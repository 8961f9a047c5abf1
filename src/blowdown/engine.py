"""Closed-loop right-hand side assembly and event-aligned integration.

State vector layout (one consistent error control for plant, controller
memory and energy quadratures):

    y = [M_s, M_fl, q_p, xi_eq, H0, q_p_cmd, E_h, E_useful, E_elec]

Disturbance breakpoints are handled by stopping and restarting the solver
exactly at each breakpoint, so no step ever straddles an input discontinuity.
Numerical protections (mass floors, flow/head bounds, bounded relaxation
target) are applied after every accepted step; a bitmask of the protections
that fired is logged with each trajectory row.

A run is one table with a row per logged instant and a column per name in
`TRAJECTORY_COLUMNS`: the differential states, the held inputs, the
algebraic reconstructions of `evaluate_snapshot`, dV/dt and the protection
mask. Both integrators log through the same row builder.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, fields
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.integrate import BDF, LSODA, RK45

from . import energetics, hydraulics, rheology, smc
from .errors import IntegrationError, ParameterError, ScenarioError
from .state import (ExogenousInputs, Parameters, ProcessState, consistency,
                    mixture_density, phase_volumes)

# Protection bitmask flags.
PROT_MS_FLOOR = 0x01      # dry-fiber mass clamped to 0
PROT_MFL_FLOOR = 0x02     # free-liquor mass clamped to 0
PROT_QP_BOUND = 0x04      # discharge flow clamped to [0, q_p_max]
PROT_H0_BOUND = 0x08      # applied head clamped to [0, H0_max]
PROT_QCMD_BOUND = 0x10    # conditioned reference clamped to [0, q_p_max]

_SOLVERS = {"LSODA": LSODA, "BDF": BDF, "RK45": RK45}

#: Bounded-hydraulic-resistance protection: the resistance used by the
#: closed loop is evaluated at no less than this consistency, so a drained
#: vessel cannot collapse the pressure-flow law into a near-infinite-gain
#: plant. Applied identically on the plant and controller sides, which
#: preserves the equivalent-head inversion identity.
RESISTANCE_FLOOR_CONSISTENCY = 0.02

#: Bounded-internal-transport-flows protection: each outgoing transport flow
#: is limited to (remaining phase inventory) / TRANSPORT_DEPLETION_TIME, so an
#: emptying vessel depletes exponentially with this time constant instead of
#: crossing zero in a cliff the mass clamps would have to absorb.
TRANSPORT_DEPLETION_TIME = 300.0  # [s]


@dataclass
class Scenario:
    """Everything needed for one reproducible closed-loop run."""

    parameters: Parameters
    initial_state: ProcessState
    schedule: List[Tuple[float, ExogenousInputs]]
    t_end: float
    log_interval: float = 50.0
    rtol: float = 1e-6
    atol: float = 1e-9
    method: str = "LSODA"

    def validate(self) -> "Scenario":
        self.parameters.validate()
        self.initial_state.validate(self.parameters)
        if not self.schedule:
            raise ScenarioError("schedule must contain at least one breakpoint")
        times = [t for t, _ in self.schedule]
        if times[0] != 0.0:
            raise ScenarioError("first schedule breakpoint must be at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("breakpoint times must be strictly increasing")
        for t, u in self.schedule:
            u.validate(self.parameters)
        if self.t_end < 0:
            raise ScenarioError(f"t_end must be non-negative, got {self.t_end}")
        if self.log_interval <= 0:
            raise ScenarioError("log_interval must be positive")
        if self.rtol <= 0 or self.atol <= 0:
            raise ScenarioError("tolerances must be positive")
        if self.method not in _SOLVERS:
            raise ScenarioError(f"unknown integration method {self.method!r}")
        return self


#: Fixed trajectory column order (one flat table; every figure panel of
#: interest is a column selection of it).
TRAJECTORY_COLUMNS = [
    "t", "M_s", "M_fl", "C", "rho_mix", "V", "C_n", "H_static", "q_p",
    "q_p_alg", "q_p_ref", "q_p_cmd", "e_q", "xi_eq", "s_q", "sigma_C",
    "H_eq", "H0s", "H0", "f_s", "f_liq", "f_in", "f_fl", "k_ch", "gamma_K",
    "gamma_dot", "tau", "Phi_v", "P_h", "P_useful", "P_elec", "eta_h",
    "E_h", "E_useful", "E_elec", "V_lyap", "dVdt", "protection_mask",
]
_COLUMN_INDEX = {name: i for i, name in enumerate(TRAJECTORY_COLUMNS)}
_ROW_VALUES = operator.itemgetter(*TRAJECTORY_COLUMNS)
_STATE_NAMES = tuple(f.name for f in fields(ProcessState))


class Trajectory:
    """Logged instants as one read-only float table (rows x columns)."""

    def __init__(self, rows: List[Tuple[float, ...]]):
        self.data = np.array(rows, dtype=float)
        self.data.setflags(write=False)

    def __len__(self) -> int:
        return len(self.data)

    @property
    def times(self) -> np.ndarray:
        return self.data[:, 0]

    def column(self, name: str) -> np.ndarray:
        """Per-row values of one column; unknown names raise KeyError."""
        return self.data[:, _COLUMN_INDEX[name]]


def inputs_at(schedule: Sequence[Tuple[float, ExogenousInputs]],
              t: float) -> ExogenousInputs:
    """Piecewise-constant, left-closed hold of the input schedule."""
    times = [bp[0] for bp in schedule]
    if t < times[0]:
        raise ScenarioError(
            f"t = {t} precedes the first schedule breakpoint at {times[0]}")
    idx = bisect.bisect_right(times, t) - 1
    return schedule[idx][1]


def assemble_rhs(t: float, y: Sequence[float], params: Parameters,
                 inputs: ExogenousInputs) -> np.ndarray:
    """Full closed-loop time derivative at one instant."""
    derivs, _ = _evaluate(y, params, inputs, full=False)
    return np.array(derivs)


def evaluate_snapshot(y: Sequence[float], params: Parameters,
                      inputs: ExogenousInputs) -> Dict[str, float]:
    """The logged algebraic reconstructions and diagnostics at one instant."""
    _, snap = _evaluate(y, params, inputs, full=True)
    return snap


def _evaluate(y, p: Parameters, u: ExogenousInputs, full: bool):
    """Shared reconstruction -> controller -> flow -> derivative pipeline.

    Clamped local copies of the states are used for the algebraic
    reconstructions so that small solver excursions outside the admissible
    region cannot produce invalid algebra mid-step.
    """
    M_s = max(float(y[0]), 0.0)
    M_fl = max(float(y[1]), 0.0)
    q_p = min(max(float(y[2]), 0.0), p.q_p_max)
    xi_eq = float(y[3])
    H0 = min(max(float(y[4]), 0.0), p.H0_max)
    q_cmd = min(max(float(y[5]), 0.0), p.q_p_max)

    # Mixture reconstructions.
    C = consistency(M_s, M_fl, p.eps)
    rho_mix = mixture_density(M_s, M_fl, p.rho_s, p.rho_fl, p.eps)
    # Density limitation: head generation sees a density clamped into the
    # physical phase bracket, so a drained vessel (reconstruction -> 0
    # through the regularizer) cannot produce a static-head cliff faster
    # than the actuator can follow. Transport flows keep the raw
    # reconstruction so they vanish together with the inventory.
    rho_head = min(max(rho_mix, min(p.rho_s, p.rho_fl)),
                   max(p.rho_s, p.rho_fl))
    C_n = rheology.hydraulic_resistance(max(C, RESISTANCE_FLOOR_CONSISTENCY),
                                        p.K_ref, p.C_ref, p.alpha_C, p.eps)
    H_static = hydraulics.static_head(rho_head, p.K_static)

    # Supervisory layer and reference conditioning.
    sigma_C = smc.consistency_guard(C, p.C_max, p.alpha_sig)
    q_star = smc.protected_reference(sigma_C, u.q_p_ref)
    d_q_cmd = smc.reference_conditioner_rhs(q_cmd, q_star, p.tau_ref)

    # Sliding-mode head command.
    e_q = q_p - q_cmd
    s_q = smc.sliding_surface(e_q, xi_eq, p.lambda_q)
    H_eq = smc.equivalent_head(H_static, C_n, q_cmd, p.n, p.eps)
    raw_cmd = H_eq - p.k_smc * smc.saturation(s_q / p.phi_q)
    H0s = min(max(raw_cmd, 0.0), p.H0_max)
    d_H0 = hydraulics.actuator_rhs(H0s, H0, p.tau_H)

    # Conditional anti-windup: pause the error integral while the head bound
    # is active and integrating would push further into the bound.
    windup = (raw_cmd > p.H0_max and e_q < 0.0) or (raw_cmd < 0.0 and e_q > 0.0)
    d_xi = 0.0 if windup else e_q

    # Quasi-steady flow; the relaxation target is bounded by q_p_max so the
    # integrated flow cannot run away when the resistance collapses.
    q_alg = hydraulics.algebraic_flow(H0, H_static, C_n, p.n, p.eps)
    q_alg = min(q_alg, p.q_p_max)
    d_q_p = hydraulics.flow_relaxation_rhs(q_alg, q_p, p.tau_p)

    # Transport flows and inventory balances. f_in / f_fl are volumetric and
    # enter via rho_fl; f_liq is already a mass flow.
    f_s = min(hydraulics.fiber_flow(rho_mix, C, q_p),
              M_s / TRANSPORT_DEPLETION_TIME)
    f_liq = min(hydraulics.liquor_flow(u.k_ch, u.gamma_K, C, rho_mix, q_p),
                M_fl / TRANSPORT_DEPLETION_TIME)
    d_M_s = -f_s
    d_M_fl = p.rho_fl * u.f_in - p.rho_fl * u.f_fl - f_liq

    # Energy quadratures.
    P_h = energetics.hydraulic_power(H0, q_p)
    P_useful = energetics.useful_power(H_static, q_p)
    P_elec = energetics.electrical_power(P_h, p.eta_pm)

    derivs = (d_M_s, d_M_fl, d_q_p, d_xi, d_H0, d_q_cmd, P_h, P_useful, P_elec)
    for name, v in (("C", C), ("rho_mix", rho_mix), ("C_n", C_n),
                    ("H_static", H_static), ("q_p_alg", q_alg),
                    ("H_eq", H_eq), ("H0s", H0s),
                    ("dM_s/dt", d_M_s), ("dM_fl/dt", d_M_fl),
                    ("dq_p/dt", d_q_p), ("dH0/dt", d_H0),
                    ("P_h", P_h), ("P_elec", P_elec)):
        if not math.isfinite(v):
            raise IntegrationError(f"non-finite quantity {name!r} in RHS")

    if not full:
        return derivs, None

    _, _, V, _ = phase_volumes(M_s, M_fl, p.rho_s, p.rho_fl, p.w)
    gamma_dot = rheology.shear_rate(q_p, p.D_pipe)
    tau = rheology.hb_stress(gamma_dot, p.tau_y, p.K_HB, p.n)
    Phi_v = rheology.viscous_dissipation(tau, gamma_dot) if q_p > 0 else 0.0
    snap = dict(
        C=C, V=V, rho_mix=rho_mix, C_n=C_n, H_static=H_static, q_p_alg=q_alg,
        sigma_C=sigma_C, e_q=e_q, s_q=s_q, H_eq=H_eq, H0s=H0s, f_s=f_s,
        f_liq=f_liq, gamma_dot=gamma_dot, tau=tau, Phi_v=Phi_v, P_h=P_h,
        P_useful=P_useful, P_elec=P_elec,
        eta_h=energetics.efficiency(P_useful, P_h, p.eps),
        V_lyap=0.5 * s_q * s_q)
    return derivs, snap


def _protect_array(y: np.ndarray, p: Parameters) -> Tuple[np.ndarray, int]:
    """The state with every crossed hard bound clamped, and the bits crossed.

    Returns `y` itself when no bound is crossed, else a clamped copy.
    """
    vals = y.tolist()
    if not all(map(math.isfinite, vals)):
        raise IntegrationError("protection cannot repair a non-finite state")
    M_s, M_fl, q_p, _, H0, q_cmd = vals[:6]
    mask = ((M_s < 0.0) * PROT_MS_FLOOR
            | (M_fl < 0.0) * PROT_MFL_FLOOR
            | (not 0.0 <= q_p <= p.q_p_max) * PROT_QP_BOUND
            | (not 0.0 <= H0 <= p.H0_max) * PROT_H0_BOUND
            | (not 0.0 <= q_cmd <= p.q_p_max) * PROT_QCMD_BOUND)
    if not mask:
        return y, 0
    out = np.array(y, dtype=float)
    out[0] = max(M_s, 0.0)
    out[1] = max(M_fl, 0.0)
    out[2] = min(max(q_p, 0.0), p.q_p_max)
    out[4] = min(max(H0, 0.0), p.H0_max)
    out[5] = min(max(q_cmd, 0.0), p.q_p_max)
    return out, mask


def _log_grid(scenario: Scenario) -> List[float]:
    """Multiples of log_interval plus every breakpoint plus t_end."""
    t_end = scenario.t_end
    pts = {0.0, t_end}
    k = 0
    while True:
        t = k * scenario.log_interval
        if t > t_end:
            break
        pts.add(t)
        k += 1
    for t, _ in scenario.schedule:
        if 0.0 <= t <= t_end:
            pts.add(t)
    return sorted(pts)


def _log_row(rows: List[Tuple[float, ...]], t: float, y_raw,
             scenario: Scenario, mask: int) -> None:
    """Append the trajectory row logged at `t`.

    The row holds the protected state, the inputs held at `t`, the
    reconstructions of `evaluate_snapshot`, dV/dt against the previous row,
    and `mask` together with the protections this state itself needs.
    """
    p = scenario.parameters
    y, m = _protect_array(y_raw, p)
    u = inputs_at(scenario.schedule, t)
    row = evaluate_snapshot(y, p, u)
    dVdt = 0.0
    if rows and t > rows[-1][0]:
        _, dVdt = smc.lyapunov_diagnostics(
            row["s_q"], rows[-1][_COLUMN_INDEX["s_q"]], t - rows[-1][0])
    row.update(zip(_STATE_NAMES, y.tolist()), t=t, dVdt=dVdt,
               protection_mask=m | mask)
    row.update(vars(u))
    rows.append(_ROW_VALUES(row))


def integrate(scenario: Scenario) -> Trajectory:
    """Adaptive, error-controlled, event-aligned closed-loop integration.

    Deterministic: an identical scenario produces a bit-identical trajectory.
    """
    scenario.validate()
    p = scenario.parameters
    solver_cls = _SOLVERS[scenario.method]

    y = np.array(scenario.initial_state.as_array(), dtype=float)
    log_times = _log_grid(scenario)
    breakpoints = [t for t, _ in scenario.schedule if t <= scenario.t_end]
    seg_edges = sorted(set(breakpoints) | {scenario.t_end})

    rows: List[Tuple[float, ...]] = []
    _log_row(rows, 0.0, y, scenario, 0)
    if scenario.t_end == 0.0:
        return Trajectory(rows)

    accum = 0
    log_idx = 1  # t = 0 already recorded
    edges = seg_edges if seg_edges[0] == 0.0 else [0.0] + seg_edges
    for ta, tb in zip(edges[:-1], edges[1:]):
        u = inputs_at(scenario.schedule, ta)

        def fun(t, yy, _u=u):
            return assemble_rhs(t, yy, p, _u)

        solver = solver_cls(fun, ta, y, tb, rtol=scenario.rtol,
                            atol=scenario.atol)
        while solver.status == "running":
            msg = solver.step()
            if solver.status == "failed":
                raise IntegrationError(
                    f"integration step failed: {msg}", t=solver.t,
                    state=ProcessState.from_array(solver.y))
            sol = None  # built only for a log time inside the step
            while (log_idx < len(log_times)
                   and log_times[log_idx] <= solver.t + 1e-12 * max(1.0, solver.t)
                   and log_times[log_idx] <= tb):
                t_log = log_times[log_idx]
                if t_log < solver.t:
                    if sol is None:
                        sol = solver.dense_output()
                    y_log = sol(t_log)
                else:
                    y_log = np.array(solver.y)
                _log_row(rows, t_log, y_log, scenario, accum)
                accum = 0
                log_idx += 1
            y_prot, m = _protect_array(solver.y, p)
            if m:
                accum |= m
                if solver.status == "running":
                    solver = solver_cls(fun, solver.t, y_prot, tb,
                                        rtol=scenario.rtol, atol=scenario.atol)
                else:
                    solver.y[:] = y_prot
        y, m = _protect_array(solver.y, p)
        accum |= m

    return Trajectory(rows)


def integrate_fixed_rk4(scenario: Scenario, dt: float = 1.0) -> Trajectory:
    """Independent fixed-step 4th-order reference integrator.

    Shares the right-hand side, the log grid, the post-step protections and
    the row builder with `integrate`; its stepping and event alignment are
    implemented from scratch so the two paths can cross-check each other.
    Steps never straddle an input breakpoint.
    """
    scenario.validate()
    if dt <= 0:
        raise ParameterError("dt must be positive")
    p = scenario.parameters
    y = np.array(scenario.initial_state.as_array(), dtype=float)
    log_times = _log_grid(scenario)
    seg_edges = sorted({t for t, _ in scenario.schedule
                        if t <= scenario.t_end} | {scenario.t_end})
    edges = seg_edges if seg_edges and seg_edges[0] == 0.0 else [0.0] + seg_edges

    rows: List[Tuple[float, ...]] = []
    _log_row(rows, 0.0, y, scenario, 0)
    if scenario.t_end == 0.0:
        return Trajectory(rows)

    log_idx = 1
    accum = 0
    for ta, tb in zip(edges[:-1], edges[1:]):
        u = inputs_at(scenario.schedule, ta)
        n_steps = max(1, int(math.ceil((tb - ta) / dt - 1e-12)))
        h = (tb - ta) / n_steps
        t = ta
        for _ in range(n_steps):
            k1 = assemble_rhs(t, y, p, u)
            k2 = assemble_rhs(t + 0.5 * h, y + 0.5 * h * k1, p, u)
            k3 = assemble_rhs(t + 0.5 * h, y + 0.5 * h * k2, p, u)
            k4 = assemble_rhs(t + h, y + h * k3, p, u)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            y, m = _protect_array(y, p)
            accum |= m
            while (log_idx < len(log_times)
                   and log_times[log_idx] <= t + 1e-9):
                _log_row(rows, log_times[log_idx], y, scenario, accum)
                accum = 0
                log_idx += 1
    return Trajectory(rows)
