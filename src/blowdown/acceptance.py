"""Runnable verification suite behind ``blowdown check``.

Eleven numbered criteria covering inversion exactness, the hydraulic
relaxation fixed point, closed-loop tracking and Lyapunov attractivity on the
default disturbance scenario, mass accounting, reconstruction anchors, oracle
integrator equivalence, the supervisory guard, energy quadrature/ordering,
boundedness under randomized disturbances, and output determinism.  Each
criterion reports pass/fail with a one-line quantitative detail; tolerances
are pinned in the criterion functions, not configurable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from . import engine, hydraulics, smc
from .engine import (PROT_H0_BOUND, PROT_MFL_FLOOR, PROT_MS_FLOOR,
                     PROT_QCMD_BOUND, PROT_QP_BOUND, Scenario, Trajectory,
                     integrate, integrate_fixed_rk4)
from .errors import IntegrationError
from .scenario_io import default_scenario, trajectory_csv

#: Seed for every randomized criterion; fixed so `check` is reproducible.
RANDOM_SEED = 20230815

#: Settling allowance after a disturbance, and the width of the pre-event
#: window over which the steady tracking error is assessed [s].
REENTRY_WINDOW = 5000.0
STEADY_WINDOW = 5000.0


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.number:2d} {self.name}: {self.detail}"


class _Context:
    """Lazily shared default-scenario run for the trajectory criteria."""

    def __init__(self, scenario: Optional[Scenario] = None):
        self.scenario = scenario if scenario is not None else default_scenario()
        self._trajectory: Optional[Trajectory] = None
        self.runtime: Optional[float] = None

    @property
    def trajectory(self) -> Trajectory:
        if self._trajectory is None:
            integrate(replace(self.scenario, t_end=0.0))  # imports, untimed
            start = time.perf_counter()
            self._trajectory = integrate(self.scenario)
            self.runtime = time.perf_counter() - start
        return self._trajectory

    @property
    def breakpoints(self) -> List[float]:
        return [t for t, _ in self.scenario.schedule
                if 0.0 < t < self.scenario.t_end]


def criterion_inversion(ctx: _Context) -> CriterionResult:
    """Pressure-flow inversion is exact on randomized admissible tuples."""
    rng = np.random.default_rng(RANDOM_SEED)
    eps = ctx.scenario.parameters.eps
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        H_static = rng.uniform(0.0, 100.0)
        C_n = rng.uniform(1.0, 1.0e6)
        n = rng.uniform(0.3, 1.5)
        q_cmd = rng.uniform(1.0e-12, 0.004)
        H_eq = smc.equivalent_head(H_static, C_n, q_cmd, n, eps)
        q_back = hydraulics.algebraic_flow(H_eq, H_static, C_n, n, eps)
        worst = max(worst, abs(q_back - q_cmd) / q_cmd)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    return CriterionResult(
        1, "inversion exactness",
        ok, f"max rel error {worst:.3e} (tol 1e-12), {elapsed:.3f} s")


def criterion_relaxation(ctx: _Context) -> CriterionResult:
    """Frozen-plant flow relaxes to the fixed point within 1% by 5*tau_p."""
    p = ctx.scenario.parameters
    H0, H_static, C_n = 20.9526, 10.9526, 8000.0
    target = 1.3465e-4
    q = 0.0
    dt, t_end = 0.25, 5.0 * p.tau_p
    for _ in range(int(round(t_end / dt))):
        q_alg = hydraulics.algebraic_flow(H0, H_static, C_n, p.n, p.eps)

        def rhs(qv):
            return hydraulics.relaxation(q_alg, qv, p.tau_p)
        k1 = rhs(q)
        k2 = rhs(q + 0.5 * dt * k1)
        k3 = rhs(q + 0.5 * dt * k2)
        k4 = rhs(q + dt * k3)
        q += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    rel = abs(q - target) / target
    return CriterionResult(
        2, "relaxation fixed point",
        rel < 0.01, f"q_p(600 s) = {q:.5e}, target {target:.5e}, "
        f"rel dev {rel:.3e} (tol 1e-2)")


def criterion_tracking(ctx: _Context) -> CriterionResult:
    """In-layer fraction, re-entry time, steady error and runtime bounds."""
    traj = ctx.trajectory
    p = ctx.scenario.parameters
    t = traj.times
    s = np.abs(traj.column("s_q"))
    e = np.abs(traj.column("e_q"))
    in_layer = float(np.mean(s <= p.phi_q))

    worst_reentry = 0.0
    for b in ctx.breakpoints:
        after = (t > b) & (t <= b + REENTRY_WINDOW)
        out = np.flatnonzero((s > p.phi_q) & after)
        reentry = 0.0 if out.size == 0 else float(t[out[-1]] - b)
        beyond = np.any((s > p.phi_q) & (t > b + REENTRY_WINDOW)
                        & (t <= (min((x for x in ctx.breakpoints if x > b),
                                     default=ctx.scenario.t_end))))
        if beyond:
            reentry = math.inf
        worst_reentry = max(worst_reentry, reentry)

    # Steady tracking error: assessed over the trailing window before each
    # disturbance and before the end of the horizon, i.e. after transients
    # have been given their re-entry allowance.
    steady_err = 0.0
    for edge in ctx.breakpoints + [ctx.scenario.t_end]:
        window = (t >= edge - STEADY_WINDOW) & (t < edge)
        if np.any(window):
            steady_err = max(steady_err, float(np.max(e[window])))

    runtime = ctx.runtime if ctx.runtime is not None else math.inf
    ok = (in_layer >= 0.95 and worst_reentry <= REENTRY_WINDOW
          and steady_err < 1e-4 and runtime < 10.0)
    return CriterionResult(
        3, "closed-loop tracking",
        ok, f"in-layer {in_layer:.4f} (>=0.95), worst re-entry "
        f"{worst_reentry:.0f} s (<=5000), steady |e_q| {steady_err:.3e} "
        f"(<1e-4), runtime {runtime:.2f} s (<10)")


def criterion_lyapunov(ctx: _Context) -> CriterionResult:
    """dV/dt < 0 at >= 99% of out-of-layer samples away from breakpoints."""
    traj = ctx.trajectory
    p = ctx.scenario.parameters
    t = traj.times
    s = np.abs(traj.column("s_q"))
    dVdt = traj.column("dVdt")
    mask = s > p.phi_q
    for b in ctx.breakpoints:
        order = np.argsort(np.abs(t - b))
        mask[order[:2]] = False  # the two samples adjacent to the breakpoint
    n_out = int(np.sum(mask))
    if n_out == 0:
        return CriterionResult(
            4, "Lyapunov decrease", True,
            "no out-of-layer samples (vacuously satisfied)")
    frac = float(np.mean(dVdt[mask] < 0.0))
    return CriterionResult(
        4, "Lyapunov decrease", frac >= 0.99,
        f"dV/dt < 0 at {frac:.4f} of {n_out} out-of-layer samples (>=0.99)")


def criterion_mass(ctx: _Context) -> CriterionResult:
    """Trapezoid-over-the-log mass accounting closes within 1e-3 relative."""
    traj = ctx.trajectory
    p = ctx.scenario.parameters
    t = traj.times
    M_s, M_fl = traj.column("M_s"), traj.column("M_fl")
    fiber = abs(M_s[0] - M_s[-1] - np.trapezoid(traj.column("f_s"), t))
    liquor_net = (p.rho_fl * traj.column("f_in")
                  - p.rho_fl * traj.column("f_fl") - traj.column("f_liq"))
    liquor = abs(M_fl[-1] - M_fl[0] - np.trapezoid(liquor_net, t))
    fiber_rel, liquor_rel = _relative(fiber, M_s), _relative(liquor, M_fl)
    ok = all(r is None or r < 1e-3 for r in (fiber_rel, liquor_rel))
    return CriterionResult(
        5, "mass accounting", ok,
        f"fiber residual {_e3(fiber_rel)}, liquor residual "
        f"{_e3(liquor_rel)} (both <1e-3)")


def _relative(error: float, mass: np.ndarray) -> Optional[float]:
    """`error` over a phase's start mass, or over its largest logged mass
    if it starts empty. A phase never present has no scale: its residual
    is None if `error` is 0, else inf."""
    scale = mass[0] if mass[0] > 0.0 else np.max(mass)
    if scale > 0.0:
        return error / scale
    return None if error == 0.0 else math.inf


def _e3(residual: Optional[float]) -> str:
    return "none" if residual is None else f"{residual:.3e}"


def criterion_reconstruction(ctx: _Context) -> CriterionResult:
    """Initial consistency and mixture density match their anchors."""
    C0 = ctx.trajectory.column("C")[0]
    rho0 = ctx.trajectory.column("rho_mix")[0]
    dC = abs(C0 - 0.090909)
    drho = abs(rho0 - 1095.26)
    ok = dC <= 1e-6 and drho <= 0.01
    return CriterionResult(
        6, "initial reconstructions", ok,
        f"C(0) = {C0:.7f} (+-1e-6 of 0.090909), "
        f"rho_mix(0) = {rho0:.2f} (+-0.01 of 1095.26)")


def criterion_oracle(ctx: _Context) -> CriterionResult:
    """Adaptive integration agrees with the fixed-step dt = 1 s reference."""
    short = replace(ctx.scenario, t_end=5000.0)
    adaptive = integrate(short)
    reference = integrate_fixed_rk4(short, dt=1.0)
    worst = 0.0
    for name in ("q_p", "C"):
        a = adaptive.column(name)
        b = reference.column(name)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return CriterionResult(
        7, "oracle integrator equivalence", worst < 1e-4,
        f"max rel deviation on q_p, C over [0, 5000 s]: {worst:.3e} (<1e-4)")


def criterion_guard(ctx: _Context) -> CriterionResult:
    """Supervisory sigmoid halves the reference exactly at C = C_max."""
    p = ctx.scenario.parameters
    q_ref = ctx.scenario.schedule[0][1].q_p_ref
    sigma = smc.consistency_guard(p.C_max, p.C_max, p.alpha_sig)
    sigma_err = abs(sigma - 0.5)
    # Conditioned reference with consistency frozen at C_max: relax the
    # first-order filter well past its settling time and compare the steady
    # value against half the raw reference.
    q_star = smc.protected_reference(sigma, q_ref)
    q_cmd, dt = 0.0, p.tau_ref / 100.0
    for _ in range(int(round(20.0 * p.tau_ref / dt))):
        q_cmd += dt * hydraulics.relaxation(q_star, q_cmd, p.tau_ref)
    cmd_err = abs(q_cmd - 0.5 * q_ref)
    ok = sigma_err <= 1e-12 and cmd_err <= 1e-6
    return CriterionResult(
        8, "supervisory guard", ok,
        f"|sigma_C(C_max) - 0.5| = {sigma_err:.2e} (<=1e-12), steady "
        f"|q_p_cmd - 0.5 q_p_ref| = {cmd_err:.2e} (<=1e-6)")


def criterion_energy(ctx: _Context) -> CriterionResult:
    """Energy quadrature states and the power ordering chain."""
    traj = ctx.trajectory
    t = traj.times
    worst = 0.0
    for energy, power in (("E_h", "P_h"), ("E_useful", "P_useful"),
                          ("E_elec", "P_elec")):
        total = traj.column(energy)[-1]
        trapz = np.trapezoid(traj.column(power), t)
        worst = max(worst, abs(total - trapz) / max(abs(total), 1e-300))
    above = traj.column("H0") >= traj.column("H_static")
    P_h = traj.column("P_h")[above]
    ordered = bool(np.all(traj.column("P_elec")[above] >= P_h)
                   and np.all(P_h >= traj.column("P_useful")[above] - 1e-15))
    ok = worst < 5e-3 and ordered
    return CriterionResult(
        9, "energy quadrature", ok,
        f"max quadrature dev {worst:.3e} (<5e-3), ordering "
        f"P_elec >= P_h >= P_useful holds: {ordered} "
        f"({int(np.sum(above))} records with H0 >= H_static)")


#: The clamps that must not fire in a randomized run, and the mass floors,
#: which a draining vessel may need and which criterion 10 reports.
_BOUND_BITS = {"PROT_QP_BOUND": PROT_QP_BOUND, "PROT_H0_BOUND": PROT_H0_BOUND,
               "PROT_QCMD_BOUND": PROT_QCMD_BOUND}
_FLOOR_BITS = {"M_s": PROT_MS_FLOOR, "M_fl": PROT_MFL_FLOOR}


def criterion_boundedness(ctx: _Context) -> CriterionResult:
    """Randomized disturbance scenarios stay finite, and the flow, head and
    reference bounds never have to clamp a state.

    Every logged state lies within its bounds by construction, so the
    criterion reads the `protection_mask` column: a flow, head or reference
    clamp on any row fails it. The mass floors are reported.
    """
    rng = np.random.default_rng(RANDOM_SEED)
    p = ctx.scenario.parameters
    base = ctx.scenario
    failures = []
    floors = {name: [0, 0] for name in _FLOOR_BITS}  # rows, runs
    for i in range(50):
        def draw():
            return dict(k_ch=rng.uniform(0.0, 1.0),
                        gamma_K=rng.uniform(0.0, 1.0),
                        f_in=rng.uniform(0.0, 5.0e-4))
        hold, step = draw(), draw()
        first = base.schedule[0][1]
        scenario = replace(
            base,
            schedule=[(0.0, replace(first, **hold)),
                      (rng.uniform(2000.0, 15000.0), replace(first, **step))],
            t_end=2.0e4)
        try:
            traj = integrate(scenario)
        except IntegrationError as exc:
            failures.append(f"run {i}: {exc}")
            continue
        mask = traj.column("protection_mask").astype(np.int64)
        finite = all(np.all(np.isfinite(traj.column(c)))
                     for c in ("M_s", "M_fl", "q_p", "H0", "C", "s_q",
                               "P_h", "E_h"))
        if not finite:
            failures.append(f"run {i}: non-finite record")
        for name, bit in _BOUND_BITS.items():
            if rows := np.count_nonzero(mask & bit):
                failures.append(f"run {i}: {name} on {rows} of {len(mask)} "
                                f"rows")
        for name, bit in _FLOOR_BITS.items():
            if rows := np.count_nonzero(mask & bit):
                floors[name][0] += rows
                floors[name][1] += 1
    bounds = f"q_p in [0, {p.q_p_max:g}], H0 in [0, {p.H0_max:g}]"
    if failures:
        detail = "; ".join(failures[:3]) + f"; {bounds}"
    else:
        fired = ", ".join(f"{name} floor on {rows} rows of {runs} runs"
                          for name, (rows, runs) in floors.items())
        detail = (f"50/50 randomized runs finite, no flow, head or reference "
                  f"clamp, {fired}, {bounds}")
    return CriterionResult(10, "boundedness and finiteness", not failures,
                           detail)


def criterion_determinism(ctx: _Context) -> CriterionResult:
    """Three runs of the same scenario give one table, bit for bit, and one
    CSV: the run as shipped, the run with every law called and its rows
    filled one at a time (`engine._unfused`), and the run as shipped again.
    The tables are compared too, since a CSV's 9 digits hide a last bit."""
    short = replace(ctx.scenario, t_end=min(ctx.scenario.t_end, 2.0e4))
    runs = (integrate(short), engine._unfused(integrate, short),
            integrate(short))
    texts = [trajectory_csv(run) for run in runs]
    tables = {run.data.tobytes() for run in runs}
    ok = len(tables) == len(set(texts)) == 1
    return CriterionResult(
        11, "determinism", ok,
        f"repeated serialization byte-identical: {ok} "
        f"({len(texts[0])} bytes)")


CRITERIA: List[Callable[[_Context], CriterionResult]] = [
    criterion_inversion, criterion_relaxation, criterion_tracking,
    criterion_lyapunov, criterion_mass, criterion_reconstruction,
    criterion_oracle, criterion_guard, criterion_energy,
    criterion_boundedness, criterion_determinism,
]


def run_all(scenario: Optional[Scenario] = None) -> List[CriterionResult]:
    """Evaluate every criterion, sharing one default-scenario run."""
    ctx = _Context(scenario)
    return [criterion(ctx) for criterion in CRITERIA]
