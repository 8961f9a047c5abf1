"""Closed-loop right-hand side assembly and event-aligned integration.

State vector layout (one consistent error control for plant, controller
memory and energy quadratures):

    y = [M_s, M_fl, q_p, xi_eq, H0, q_p_cmd, E_h, E_useful, E_elec]

Disturbance breakpoints are handled by stopping and restarting the stepper
exactly at each breakpoint, so no step ever straddles an input discontinuity.
Every integrator runs in one loop, `_drive`, the only code that applies the
numerical protections (mass floors, flow, head and reference bounds: one
rule, `_bounded`) to a step end. A clamped state starts a new segment, so a
stepper never restarts itself, and `_drive` holds every method's step budget,
`MAX_STEPS` between two breakpoints. A row's protection mask holds the bits
fired since the previous row, and a row at a step end also that end's own, so
each firing is reported once; a row read from a step's interpolant adds the
clamps its own state needs. `integrate` takes each method's stepper from one
table, `_STEPPERS`. `DOPRI5` is an owned Dormand-Prince 5(4) pair on Python
floats; a stiff scenario spends its budget fast, and the error names `LSODA`,
the shipped method: scipy's solver, which switches between Adams and BDF
formulas by itself and is imported only when a scenario uses it.

A run is one float table with a row per logged instant and a column per
name in `TRAJECTORY_COLUMNS`: the differential states, the held inputs,
the `SNAPSHOT_COLUMNS` of `evaluate_snapshot`, dV/dt and the protection
mask. The table is allocated from the log grid before the first step.
While it steps, `_drive` records each logged row raw, with one `pack_into`
call into the first cells of the row: the time, the state, the held inputs
and the protection bits gathered for the row (`_RAW_COLUMNS`); a state read
from an interpolant that is not finite is refused there, at the step that
logs it. After the last step, `_reconstruct` fills each row in place, its
raw cells read first. `_fill_block`, compiled with the kernel, fills
`_BLOCK_ROWS` rows at a time with numpy: it bounds the states, gives the
protection bits, reconstructs the row and takes dV/dt against the row
before, with the same floats as the kernel (`+ - * /` and comparisons in
numpy, `**` and `math.exp` on Python floats, a conditional expression as
`np.where`). `_fill_rows` fills a row at a time, calling `_protect` and
`evaluate_snapshot` once each: for a run of fewer than `_BLOCK_MIN_ROWS`
rows, while there is no block filler, and for any block the filler fails
on, so that the error or the bytes are those of the rows one at a time.
Both write the same bytes.

The right-hand side and the logged reconstructions come from one kernel,
written once as `_evaluate`, which calls the one public function of each
physics law in `state`, `rheology`, `hydraulics`, `smc` and `energetics`;
none of them checks its arguments. The scenario's parameters, initial state
and inputs are validated once, by `Scenario.validate`; the kernel then reads
the states through `_bounded` and checks only that its results are finite,
with one sum; only a failing check gathers them to name the first non-finite
one. It returns floats: the derivative is a 9-tuple in state order.

The kernel `assemble_rhs` and `evaluate_snapshot` run is `_evaluate` with
each call of a law (and of `_bounded`) written in as the law's body, nested
laws included, with the same operations in the same order, so every float
is the same. The laws are straight-line, each choice a conditional
expression, and `_evaluate` assigns every law it calls with statements, the
snapshot's `V` and `eta_h` included. The build tool `_kernel_writer` writes
the kernel and the block filler from their syntax trees; `python -m
blowdown._kernel_writer` commits them as the module `_generated`, with the
calls they read (`CALLS`) and, by interpreter, the digest (`_digest`) of
`_evaluate` and of each call, and tier-1 compares the module with the
writer's output. The writer writes every law in, or refuses to write the
kernel; only `_raise_non_finite` stays a call. No run imports the writer.
A run has one of two states. The first run whose `_evaluate` and calls
have the digests recorded for this interpreter compiles the two functions
of `_generated`, once per process,
never at import; every run after it uses them while each call of `CALLS` is
the object it was loaded with. Otherwise, as with no digests for this
interpreter, a module missing or corrupt, or a law edited, wrapped or
replaced, the kernel is `_evaluate` itself, each law a call, and the rows
are filled one at a time; the run after a law is restored uses the
committed unit again. `_drive` checks once per run, and until the first
run the kernel is `_evaluate`, so parsing a scenario builds nothing. A
direct `assemble_rhs` or `evaluate_snapshot` call sees a law wrapped or
replaced after the last run only from the next run on. The committed
kernel, the block filler and the DOPRI5 step are compiled under names of
their own, with their source in `linecache`, so tracebacks, profiles and
`inspect` show them.
"""

from __future__ import annotations

import bisect
import functools
import linecache
import math
import operator
import struct
import sys
import warnings
import zlib
from dataclasses import dataclass, fields
from typing import List, Sequence, Tuple

import numpy as np

from .energetics import efficiency, electrical_power, head_power
from .errors import (IntegrationError, InvariantViolation, ParameterError,
                     ScenarioError, StateValidityError)
from .hydraulics import (algebraic_flow, fiber_flow, liquor_flow, relaxation,
                         static_head)
from .rheology import (hb_stress, hydraulic_resistance, shear_rate,
                       viscous_dissipation)
from .smc import (consistency_guard, control_law, equivalent_head,
                  lyapunov_rate, lyapunov_value, protected_reference,
                  sliding_surface)
from .state import (ExogenousInputs, Parameters, ProcessState, consistency,
                    mixture_density, phase_volumes)

# Protection bitmask flags: bit i flags the i-th state `_bounded` returns.
PROT_MS_FLOOR = 0x01      # dry-fiber mass clamped to 0
PROT_MFL_FLOOR = 0x02     # free-liquor mass clamped to 0
PROT_QP_BOUND = 0x04      # discharge flow clamped to [0, q_p_max]
PROT_H0_BOUND = 0x08      # applied head clamped to [0, H0_max]
PROT_QCMD_BOUND = 0x10    # conditioned reference clamped to [0, q_p_max]

MAX_LOG_ROWS = 1_000_000  # checked before any row is built
MAX_STEPS = 100_000  # steps between two breakpoints, restarts included
#: The smallest rtol any method honours as written: scipy's LSODA raises a
#: smaller one to this with a warning, and Hairer's dopri5.f refuses it.
MIN_RTOL = 100 * sys.float_info.epsilon
_STIFF = "; for a stiff scenario use method: LSODA"

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
    log_interval: float
    rtol: float
    atol: float
    method: str

    def validate(self) -> "Scenario":
        """Check the parameters, the initial state, each schedule entry, then
        the scenario-level fields; a fault raises InvariantViolation whose
        path names the part: `parameters`, `initial_state`, `schedule[i]` or
        `scenario`."""
        p, path = self.parameters, "parameters"
        try:
            p.validate()
            path = "initial_state"
            self.initial_state.validate(p)
            for i, (_, u) in enumerate(self.schedule):
                path = f"schedule[{i}]"
                u.validate(p)
        except (ParameterError, StateValidityError) as exc:
            raise InvariantViolation(path, str(exc)) from exc
        if fault := self._fault():
            raise InvariantViolation("scenario", fault)
        return self

    def _fault(self) -> str:
        """The first fault of the scenario-level fields, else ''."""
        if not self.schedule:
            return "schedule must contain at least one breakpoint"
        times = [t for t, _ in self.schedule]
        if bad := [t for t in times if not math.isfinite(t)]:
            return f"breakpoint times must be finite, got {bad[0]!r}"
        if times[0] != 0.0:
            return "first schedule breakpoint must be at t = 0"
        if any(b <= a for a, b in zip(times, times[1:])):
            return "breakpoint times must be strictly increasing"
        for name in ("t_end", "log_interval", "rtol", "atol"):
            if not math.isfinite(getattr(self, name)):
                return f"{name} must be finite, got {getattr(self, name)!r}"
        if self.t_end < 0:
            return f"t_end must be non-negative, got {self.t_end}"
        if self.log_interval <= 0:
            return "log_interval must be positive"
        if self.rtol <= 0 or self.atol <= 0:
            return "tolerances must be positive"
        if self.rtol < MIN_RTOL:
            return f"rtol must be at least {MIN_RTOL!r}, got {self.rtol!r}"
        if self.method not in _STEPPERS:
            return (f"unknown integration method {self.method!r}; "
                    f"use one of {', '.join(_STEPPERS)}")
        rows = self.t_end // self.log_interval + 1 + len(self.schedule)
        if rows > MAX_LOG_ROWS:  # a count of 19 digits or more as 2e+304
            count = f"{rows:,.0f}" if rows < 1e18 else f"{rows:.3g}"
            return (f"t_end // log_interval + 1 + breakpoints gives "
                    f"{count} log rows, above {MAX_LOG_ROWS:,}")
        return ""


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
_STATE_NAMES = tuple(f.name for f in fields(ProcessState))
_INPUT_NAMES = tuple(f.name for f in fields(ExogenousInputs))
#: The columns other than the time, the states, the inputs, dV/dt and the
#: mask, in column order: those `evaluate_snapshot` returns.
SNAPSHOT_COLUMNS = tuple(c for c in TRAJECTORY_COLUMNS if c not in {
    "t", *_STATE_NAMES, *_INPUT_NAMES, "dVdt", "protection_mask"})
#: Packs one row of floats, given in `TRAJECTORY_COLUMNS` order, into a
#: float table at a byte offset.
_pack_into = struct.Struct(f"{len(TRAJECTORY_COLUMNS)}d").pack_into
#: What `_drive` records of a logged row, packed the same way into the first
#: cells of the row: the time, the state, the held inputs and the protection
#: bits gathered for the row.
_RAW_COLUMNS = ("t", *_STATE_NAMES, *_INPUT_NAMES, "protection_mask")
_pack_raw = struct.Struct(f"{len(_RAW_COLUMNS)}d").pack_into
_held = operator.attrgetter(*_INPUT_NAMES)  # the inputs a row records
#: The values of a row `_fill_rows` builds, in `TRAJECTORY_COLUMNS` order.
_in_column_order = operator.itemgetter(*map((
    "t", *_STATE_NAMES, *_INPUT_NAMES, *SNAPSHOT_COLUMNS, "dVdt",
    "protection_mask").index, TRAJECTORY_COLUMNS))
#: Rows `_fill_block` fills at a time: its arrays grow with this, not with
#: the run. A run of fewer rows than `_BLOCK_MIN_ROWS` is filled a row at a
#: time, which costs about 6 us a row against about 150 us for a block.
_BLOCK_ROWS = 2048
_BLOCK_MIN_ROWS = 25
_TIME = operator.itemgetter(0)  # breakpoint time of a schedule entry


class Trajectory:
    """Logged instants as one read-only float table (rows x columns)."""

    def __init__(self, data: np.ndarray):
        self.data = data  # wrapped, not copied
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
    t0 = schedule[0][0]
    if t < t0:
        raise ScenarioError(
            f"t = {t} precedes the first schedule breakpoint at {t0}")
    return schedule[bisect.bisect_right(schedule, t, key=_TIME) - 1][1]


def assemble_rhs(t: float, y: Sequence[float], params: Parameters,
                 inputs: ExogenousInputs) -> Tuple[float, ...]:
    """Closed-loop time derivative at one instant: 9 floats, in state order.

    `params` and `inputs` must have passed their `validate` (as
    `Scenario.validate` ensures): the kernel does not check them again.
    A non-finite state or quantity raises IntegrationError.
    """
    return _kernel(y, params, inputs, False)[0]


def evaluate_snapshot(y: Sequence[float], params: Parameters,
                      inputs: ExogenousInputs) -> Tuple[float, ...]:
    """The logged reconstructions at one instant, in `SNAPSHOT_COLUMNS` order.

    Same contract as `assemble_rhs`.
    """
    return _kernel(y, params, inputs, True)[1]


#: Quantities whose finiteness `_evaluate` checks, in reporting order.
_CHECKED = ("C", "rho_mix", "C_n", "H_static", "q_p_alg", "H_eq", "H0s",
            "dM_s/dt", "dM_fl/dt", "dq_p/dt", "dH0/dt", "P_h", "P_elec")


def _evaluate(y, p: Parameters, u: ExogenousInputs, full: bool):
    """Shared reconstruction -> controller -> flow -> derivative pipeline.

    The algebra reads the states through `_bounded`, so small solver
    excursions outside the admissible region cannot produce invalid algebra
    mid-step. Every equation is the public function of its physics module,
    which checks nothing; the parameters and inputs were validated once with
    the scenario, and the result is checked for finiteness here in one pass.
    """
    y = y if type(y) is list else np.asarray(y, dtype=float).tolist()
    xi_eq = y[3]
    M_s, M_fl, q_p, H0, q_cmd = _bounded(y, p)
    q_p_max, H0_max = p.q_p_max, p.H0_max

    # Mixture reconstructions.
    C = consistency(M_s, M_fl, p.eps)
    rho_mix = mixture_density(M_s, M_fl, p.rho_s, p.rho_fl, p.eps)
    # Density limitation: head generation sees a density clamped into the
    # physical phase bracket, so a drained vessel (reconstruction -> 0
    # through the regularizer) cannot produce a static-head cliff faster
    # than the actuator can follow. Transport flows keep the raw
    # reconstruction so they vanish together with the inventory.
    rho_lo, rho_hi = ((p.rho_fl, p.rho_s) if p.rho_fl < p.rho_s
                      else (p.rho_s, p.rho_fl))
    rho_head = rho_lo if rho_mix < rho_lo else rho_mix
    rho_head = rho_hi if rho_head > rho_hi else rho_head
    C_floor = (RESISTANCE_FLOOR_CONSISTENCY
               if C < RESISTANCE_FLOOR_CONSISTENCY else C)
    C_n = hydraulic_resistance(C_floor, p.K_ref, p.C_ref, p.alpha_C, p.eps)
    H_static = static_head(rho_head, p.K_static)

    # Supervisory layer and reference conditioning.
    sigma_C = consistency_guard(C, p.C_max, p.alpha_sig)
    q_star = protected_reference(sigma_C, u.q_p_ref)
    d_q_cmd = relaxation(q_star, q_cmd, p.tau_ref)

    # Sliding-mode head command.
    e_q = q_p - q_cmd
    s_q = sliding_surface(e_q, xi_eq, p.lambda_q)
    H_eq = equivalent_head(H_static, C_n, q_cmd, p.n, p.eps)
    raw_cmd, H0s = control_law(H_eq, s_q, p.k_smc, p.phi_q, H0_max)
    d_H0 = relaxation(H0s, H0, p.tau_H)

    # Conditional anti-windup: pause the error integral while the head bound
    # is active and integrating would push further into the bound.
    windup = (raw_cmd > H0_max and e_q < 0.0) or (raw_cmd < 0.0 and e_q > 0.0)
    d_xi = 0.0 if windup else e_q

    # Quasi-steady flow; the relaxation target is bounded by q_p_max so the
    # integrated flow cannot run away when the resistance collapses.
    q_alg = algebraic_flow(H0, H_static, C_n, p.n, p.eps)
    q_alg = q_p_max if q_alg > q_p_max else q_alg
    d_q_p = relaxation(q_alg, q_p, p.tau_p)

    # Transport flows and inventory balances. f_in / f_fl are volumetric and
    # enter via rho_fl; f_liq is already a mass flow.
    f_s = fiber_flow(rho_mix, C, q_p)
    cap = M_s / TRANSPORT_DEPLETION_TIME
    f_s = cap if f_s > cap else f_s
    f_liq = liquor_flow(u.k_ch, u.gamma_K, C, rho_mix, q_p)
    cap = M_fl / TRANSPORT_DEPLETION_TIME
    f_liq = cap if f_liq > cap else f_liq
    f_ex = p.rho_fl * u.f_fl  # extraction, an outgoing flow like f_liq
    f_ex = cap if f_ex > cap else f_ex
    d_M_s = -f_s
    d_M_fl = p.rho_fl * u.f_in - f_ex - f_liq

    # Energy quadratures.
    P_h = head_power(H0, q_p)
    P_useful = head_power(H_static, q_p)
    P_elec = electrical_power(P_h, p.eta_pm)

    if not math.isfinite(C + rho_mix + C_n + H_static + q_alg + H_eq + H0s
                         + d_M_s + d_M_fl + d_q_p + d_H0 + P_h + P_elec
                         + y[0] + y[1] + y[2] + xi_eq + y[4] + y[5]):
        _raise_non_finite((C, rho_mix, C_n, H_static, q_alg, H_eq, H0s,
                           d_M_s, d_M_fl, d_q_p, d_H0, P_h, P_elec), y[:6])

    derivs = (d_M_s, d_M_fl, d_q_p, d_xi, d_H0, d_q_cmd, P_h, P_useful, P_elec)
    if not full:
        return derivs, None

    # The check above bounds every argument below: q_p lies in
    # [0, q_p_max] and the masses are finite.
    gamma_dot = shear_rate(q_p, p.D_pipe)
    tau = hb_stress(gamma_dot, p.tau_y, p.K_HB, p.n)
    _, _, V, _ = phase_volumes(M_s, M_fl, p.rho_s, p.rho_fl, p.w)
    eta_h = efficiency(P_useful, P_h, p.eps)
    return derivs, (  # SNAPSHOT_COLUMNS order
        C, rho_mix, V, C_n, H_static, q_alg, e_q, s_q, sigma_C, H_eq, H0s,
        f_s, f_liq, gamma_dot, tau,
        viscous_dissipation(tau, gamma_dot) if q_p > 0 else 0.0, P_h,
        P_useful, P_elec, eta_h, lyapunov_value(s_q))


def _raise_non_finite(checked, states) -> None:
    """Name the first non-finite quantity, else the first non-finite state.

    Returns when every value is finite (their sum overflowed).
    """
    for name, v in zip(_CHECKED, checked):
        if not math.isfinite(v):
            raise IntegrationError(f"non-finite quantity {name!r} in RHS")
    for name, v in zip(_STATE_NAMES, states):
        if not math.isfinite(v):
            raise IntegrationError(f"non-finite state {name!r} in RHS")


def _bounded(y: Sequence[float], p: Parameters) -> Tuple[float, ...]:
    """(M_s, M_fl, q_p, H0, q_p_cmd) of `y` within the hard bounds: masses
    >= 0, flows in [0, q_p_max], H0 in [0, H0_max]; NaN and -0.0 pass."""
    M_s, M_fl, q_p, H0, q_cmd = y[0], y[1], y[2], y[4], y[5]
    q_p_max, H0_max = p.q_p_max, p.H0_max
    return (0.0 if M_s < 0.0 else M_s,
            0.0 if M_fl < 0.0 else M_fl,
            0.0 if q_p < 0.0 else q_p_max if q_p > q_p_max else q_p,
            0.0 if H0 < 0.0 else H0_max if H0 > H0_max else H0,
            0.0 if q_cmd < 0.0 else q_p_max if q_cmd > q_p_max else q_cmd)


def _refuse(y: List[float]) -> None:
    """IntegrationError if a state is not finite. A non-finite term makes
    the sum non-finite; a finite state whose sum overflows is then checked
    term by term."""
    if not math.isfinite(sum(y)) and not all(map(math.isfinite, y)):
        raise IntegrationError("protection cannot repair a non-finite state")


def _protect(y: List[float], p: Parameters) -> Tuple[List[float], int]:
    """The state with every crossed hard bound clamped, and the bits crossed.

    Returns `y` itself when no bound is crossed, else a clamped copy. A
    state that is not finite is refused.
    """
    _refuse(y)
    states = (y[0], y[1], y[2], y[4], y[5])
    bounded = _bounded(y, p)
    if bounded == states:
        return y, 0
    out = list(y)
    out[0], out[1], out[2], out[4], out[5] = bounded
    mask = 0
    for i, (a, b) in enumerate(zip(states, bounded)):
        if a != b:
            mask |= 1 << i
    return out, mask


def _log_grid(scenario: Scenario) -> List[float]:
    """Multiples of log_interval plus every breakpoint plus t_end."""
    t_end, step = scenario.t_end, scenario.log_interval
    pts = {k * step for k in range(int(t_end // step) + 2) if k * step <= t_end}
    pts.update(t for t, _ in scenario.schedule if 0.0 <= t <= t_end)
    return sorted(pts | {0.0, t_end})


def _compiled(source: str, generator: str, namespace: dict):
    """The function that generated `source` defines, with `namespace` as its
    globals. The source is filed in `linecache` under a name of its own, so
    tracebacks, profiles and `inspect.getsource` show the generated lines."""
    filename = f"<{__name__}.{generator}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    exec(compile(source, filename, "exec"), namespace, defined := {})
    return defined.popitem()[1]


# Until the first run compiles the committed unit, the kernel is `_evaluate`
# itself: the same floats, and parsing a scenario builds nothing.
_kernel = _evaluate
_fill_block = None  # the block filler, compiled with the kernel
_committed = None  # (kernel, filler, calls) compiled from `_generated`
#: The unit of a run that cannot use the committed one: `_evaluate`, each
#: law a call, with no block filler and no call to check.
_UNFUSED = (_evaluate, None, ())


def _refresh_kernel():
    """The kernel, with the block filler `_fill_block`, of the next run: the
    unit `_generated` holds, compiled by the first run that can use it,
    while each call it reads is the object it was loaded with; else
    `_evaluate` with no filler. `_drive` checks once per run; the two are
    assigned only when they change."""
    global _kernel, _fill_block, _committed
    unit = _committed = _committed or _load_generated()
    if unit is None or any(ns.get(name) is not obj
                           for ns, name, obj in unit[2]):
        unit = _UNFUSED
    if _kernel is not unit[0]:
        _kernel, _fill_block = unit[:2]
    return _kernel


def _digest(fn) -> int:
    """CRC-32 of what a function's code does: `co_code`, `co_consts` and
    `co_names`, as the writer compares a function with its source."""
    code = fn.__code__
    return zlib.crc32(repr((code.co_consts, code.co_names)).encode(),
                      zlib.crc32(code.co_code))


def _load_generated():
    """(kernel, filler, the calls they read) compiled from `_generated`, the
    writer's output committed for the shipped code; None if the module is
    missing or corrupt, or unless `_evaluate` and each call has the digest
    recorded there for this interpreter. A law replaced at the first run
    fails the digest: a later run tries again."""
    try:
        from . import _generated
        digests = _generated.DIGESTS[sys.implementation.cache_tag]
        calls = [(vars(sys.modules[module]), name)
                 for module, name in _generated.CALLS]
        calls = [(ns, name, ns[name]) for ns, name in calls]
        read = (_evaluate, *(obj for _, _, obj in calls))
        if tuple(map(_digest, read)) != digests:
            return None
        return (_compiled(_generated.KERNEL, "_kernel", globals()),
                _compiled(_generated.FILL_BLOCK, "_fill_block", globals()),
                calls)
    except Exception:  # runs then call `_evaluate`
        return None


def _unfused(run, *args):
    """`run(*args)` as a run of replaced laws: it calls `_evaluate`, each law
    a call, and fills its rows one at a time. The committed unit is
    restored after it, even if it raises."""
    global _kernel, _fill_block, _committed
    saved = _kernel, _fill_block, _committed
    _kernel, _fill_block, _committed = _evaluate, None, _UNFUSED
    try:
        return run(*args)
    finally:
        _kernel, _fill_block, _committed = saved


def _pow(a, b):
    """`a ** b` on Python floats, one element of a vector at a time: numpy's
    `power` rounds otherwise."""
    if type(b) is not np.ndarray:
        return np.array([x ** b for x in a.tolist()], float)
    if type(a) is not np.ndarray:
        return np.array([a ** x for x in b.tolist()], float)
    return np.array(list(map(pow, a.tolist(), b.tolist())), float)


def _exp(x):
    """`math.exp` of each element of a vector: numpy's `exp` rounds
    otherwise."""
    return np.array(list(map(math.exp, x.tolist())), float)


def _fill_rows(table, raw, start: int, stop: int, p: Parameters) -> None:
    """Rows `start` to `stop` of `table` from the same rows of `raw`, one at
    a time: each state protected by `_protect` and reconstructed by
    `evaluate_snapshot` with the inputs the row held, then dV/dt against
    the row before and the bits gathered for the row and its own."""
    states, s_q = len(_STATE_NAMES), SNAPSHOT_COLUMNS.index("s_q")
    for i, (t, *row) in enumerate(raw[start:stop].tolist(), start):
        y, m = _protect(row[:states], p)
        held = row[states:-1]
        snapshot = evaluate_snapshot(y, p, ExogenousInputs(*held))
        dVdt = 0.0
        if i and t > (t_prev := table.item(i - 1, 0)):
            dVdt = lyapunov_rate(snapshot[s_q], table.item(
                i - 1, _COLUMN_INDEX["s_q"]), t - t_prev)
        _pack_into(table, i * table.itemsize * table.shape[1],
                   *_in_column_order((t, *y, *held, *snapshot, dVdt,
                                      int(row[-1]) | m)))


def _reconstruct(table, p: Parameters) -> np.ndarray:
    """`table` filled in place from the raw cells `_drive` packed into the
    first `len(_RAW_COLUMNS)` cells of each row. `_fill_block` fills it a
    block of rows at a time; `_fill_rows` fills it a row at a time for a
    run of fewer than `_BLOCK_MIN_ROWS` rows or while there is no block
    filler, and fills again any block the filler fails on, so that its
    error or its bytes are those of its rows one at a time. Each copies the
    raw cells of its rows before it writes them."""
    raw = table[:, :len(_RAW_COLUMNS)]
    by_block = len(raw) >= _BLOCK_MIN_ROWS and _fill_block is not None
    for start in range(0, len(raw), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(raw))
        if by_block:
            try:
                with np.errstate(all="raise", under="ignore"):
                    _fill_block(table, raw, start, stop, p)
                continue
            except Exception:  # a row's error, or a value not finite
                pass
        _fill_rows(table, raw, start, stop, p)
    return table


def _drive(scenario: Scenario, segment, method: str,
           dt: float = math.inf) -> Trajectory:
    """The segment, logging, protection and restart loop of every integrator.

    `segment(ta, tb, y, u)` yields `(t, y, dense)` after each step, where
    `dense()` interpolates inside it. A row strictly inside a step records
    its state from the interpolant, refused if it is not finite, with the
    protections fired since the previous row; the step end is then
    protected, and rows at it record its state with those bits and its
    own. Nothing is carried to a later row. A clamped step end before `tb`
    starts a new segment from the clamped state. From one breakpoint to the
    next, a run may take `MAX_STEPS` steps, restarts included, plus the grid
    of a fixed step `dt`. Rows are recorded raw, into the first cells of
    the rows of a trajectory table sized by the log grid, and `_reconstruct`
    fills those rows after the last step; a row's own clamps are taken
    there. A row before `tb` holds the segment's inputs `u`; only a row at
    `tb` looks its inputs up, since there the left-closed hold takes the
    next entry."""
    _refresh_kernel()
    p, schedule = scenario.parameters, scenario.schedule
    y = scenario.initial_state.as_array()
    log_times = _log_grid(scenario) + [math.inf]  # a time no step reaches
    seg_edges = sorted({t for t, _ in schedule
                        if t <= scenario.t_end} | {scenario.t_end})
    table = np.empty((len(log_times) - 1, len(TRAJECTORY_COLUMNS)))
    size = table.itemsize * table.shape[1]
    _pack_raw(table, 0, 0.0, *y, *_held(inputs_at(schedule, 0.0)), 0)
    accum, log_idx = 0, 1  # t = 0 already recorded
    for ta, tb in zip(seg_edges[:-1], seg_edges[1:]):
        t, u = ta, inputs_at(schedule, ta)
        held = _held(u)
        budget = left = MAX_STEPS + math.ceil((tb - ta) / dt)
        while t < tb:  # a segment's last step ends at tb
            for t, y, dense in segment(t, tb, y, u):
                left -= 1
                if left < 0:
                    raise IntegrationError(
                        f"{method} needs more than {budget} steps to reach t"
                        f" = {tb:.6g} s{_STIFF if method == 'DOPRI5' else ''}",
                        t=t, state=ProcessState.from_array(y))
                if dense is not None:
                    sol = None  # built only for a log time inside the step
                    while (t_log := log_times[log_idx]) < t:
                        sol = sol or dense()
                        z = sol(t_log)
                        z = z if type(z) is list else z.tolist()
                        _refuse(z)
                        _pack_raw(table, log_idx * size, t_log, *z, *held,
                                  accum)
                        accum, log_idx = 0, log_idx + 1
                y, m = _protect(y, p)
                accum |= m
                t_due = t + 1e-12 * t if t > 1.0 else t + 1e-12
                if t_due > tb:
                    t_due = tb
                while (t_log := log_times[log_idx]) <= t_due:
                    _pack_raw(table, log_idx * size, t_log, *y, *(
                        held if t_log < tb
                        else _held(inputs_at(schedule, tb))), accum)
                    accum, log_idx = 0, log_idx + 1
                if m and t < tb:
                    break  # a new segment from the clamped state
    return Trajectory(_reconstruct(table[:log_idx], p))


def integrate(scenario: Scenario) -> Trajectory:
    """Adaptive, error-controlled, event-aligned closed-loop integration.

    Deterministic: an identical scenario produces a bit-identical trajectory.
    """
    scenario.validate()
    with warnings.catch_warnings():  # once a run: the filters are global
        # scipy reports a failed LSODA step with a warning that names its
        # reason; raised, it becomes the run's IntegrationError.
        warnings.filterwarnings("error", "lsoda: ", UserWarning)
        return _drive(scenario, _STEPPERS[scenario.method](scenario),
                      scenario.method)


def _lsoda(scenario: Scenario):
    """Segments stepped by a new scipy `LSODA` solver each; scipy is
    imported here, on first use, so a DOPRI5 run never loads it."""
    from scipy.integrate import LSODA
    p, rtol, atol = scenario.parameters, scenario.rtol, scenario.atol

    def segment(ta, tb, y, u):
        def fun(t, y):  # scipy's y is a float array: the kernel takes a list
            return assemble_rhs(t, y.tolist(), p, u)
        if tb - ta < 10.0 * math.ulp(tb):  # LSODA fails on a step this short
            yield tb, y, None  # the state holds over a few ulp
            return
        solver = LSODA(fun, ta, y, tb, rtol=rtol, atol=atol)
        t = ta
        while solver.status == "running":
            try:
                msg = solver.step()
            except UserWarning as exc:  # raised by `integrate`'s filter
                msg = str(exc)
            if msg is not None:
                raise IntegrationError(
                    f"integration step failed: {msg}", t=solver.t,
                    state=ProcessState.from_array(solver.y))
            if solver.t == t:  # a step of 0 s, as on a horizon of 1e-200 s
                raise IntegrationError(
                    "an LSODA step did not advance t; use method: DOPRI5",
                    t=t, state=ProcessState.from_array(solver.y))
            t = solver.t
            yield t, solver.y.tolist(), solver.dense_output
    return segment


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6):
# stage nodes and weights, the last row the 5th-order solution (FSAL).
_DOPRI5_STAGES = (
    (1 / 5, (1 / 5,)),
    (3 / 10, (3 / 40, 9 / 40)),
    (4 / 5, (44 / 45, -56 / 15, 32 / 9)),
    (8 / 9, (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    (1.0, (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    (1.0, (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)))
_DOPRI5_ERROR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                 22 / 525, -1 / 40)


@functools.lru_cache(maxsize=None)
def _dopri5_attempt(n: int = len(_STATE_NAMES)):
    """`attempt(rhs, p, u, t, h, y, k1, atol, rtol)` -> (y_new, err, stages),
    one sum per state component on local floats: on 100 ensemble members, zip
    comprehensions take 1.3 times as long, a loop over the tableau 2.2 times."""
    def unpack(s):
        return ", ".join(f"k{s}_{i}" for i in range(n)) + f" = k{s}"

    def weighted(weights, i):
        return " + ".join(f"{w!r} * k{j}_{i}"
                          for j, w in enumerate(weights, 1) if w)

    lines = ["def attempt(rhs, p, u, t, h, y, k1, atol, rtol):",
             ", ".join(f"y_{i}" for i in range(n)) + " = y", unpack(1)]
    for s, (c, row) in enumerate(_DOPRI5_STAGES, 2):
        z = ", ".join(f"y_{i} + h * ({weighted(row, i)})" for i in range(n))
        lines += [f"z = [{z}]", f"k{s} = rhs(t + {c!r} * h, z, p, u)",
                  unpack(s)]
    err = ", ".join(f"({weighted(_DOPRI5_ERROR, i)}) / "
                    f"(atol + rtol * max(abs(y_{i}), abs(z[{i}])))"
                    for i in range(n))
    lines += [f"err = h / {math.sqrt(n)!r} * hypot({err})",
              "return z, err, (k1, k2, k3, k4, k5, k6, k7)"]
    return _compiled("\n    ".join(lines) + "\n", "_dopri5_attempt",
                     {"hypot": math.hypot})


def _dopri5(scenario: Scenario):
    """Segments stepped by DOPRI5 with the standard step controller (safety
    0.9, factor in [0.2, 10], at most 1 right after a rejection)."""
    p, rtol, atol = scenario.parameters, scenario.rtol, scenario.atol
    attempt = _dopri5_attempt()

    def start(rhs, t, y, tb, u):  # scipy's initial step (Hairer et al. II.4)
        f0 = rhs(t, y, p, u)
        scale = [(atol + abs(v) * rtol) * math.sqrt(len(y)) for v in y]
        d0, d1 = (math.hypot(*[v / s for v, s in zip(w, scale)])
                  for w in (y, f0))  # RMS norms
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, tb - t)
        f1 = rhs(t + h0, [v + h0 * a for v, a in zip(y, f0)], p, u)
        d2 = math.hypot(*[(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
        h1 = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
              else (0.01 / max(d1, d2)) ** 0.2)
        return f0, min(100.0 * h0, h1, tb - t)

    def segment(ta, tb, y, u):
        rhs, t = assemble_rhs, ta
        f, h_next = start(rhs, t, y, tb, u)
        while t < tb:
            min_step = 10.0 * math.ulp(t)
            h_next, rejected = max(h_next, min_step), False
            while True:
                if h_next < min_step:
                    raise IntegrationError(
                        "DOPRI5 needs a step below 10 ulp of t" + _STIFF,
                        t=t, state=ProcessState.from_array(y))
                t_new = min(t + h_next, tb)
                h = t_new - t
                y_new, err, ks = attempt(rhs, p, u, t, h, y, f, atol, rtol)
                if err < 1.0:
                    factor = min(10.0, 0.9 * err ** -0.2) if err else 10.0
                    h_next = h * (min(1.0, factor) if rejected else factor)
                    break
                h_next, rejected = h * max(0.2, 0.9 * err ** -0.2), True
            yield t_new, y_new, functools.partial(
                _dopri5_dense, t, h, y, y_new, ks)
            t, y, f = t_new, y_new, ks[6]
    return segment


def _dopri5_dense(t0, h, y0, y1, ks):
    """Hairer's free 4th-order continuous extension of one DOPRI5 step."""
    d1, d3, d4, d5, d6, d7 = (
        -12715105075 / 11282082432, 87487479700 / 32700410799,
        -10690763975 / 1880347072, 701980252875 / 199316789632,
        -1453857185 / 822651844, 69997945 / 29380423)
    rc = [(v, w - v, h * a - (w - v), (w - v) - h * k - (h * a - (w - v)),
           h * (d1 * a + d3 * c + d4 * d + d5 * e + d6 * g + d7 * k))
          for v, w, a, _, c, d, e, g, k in zip(y0, y1, *ks)]
    def at(t):
        s = (t - t0) / h
        return [r1 + s * (r2 + (1.0 - s) * (r3 + s * (r4 + (1.0 - s) * r5)))
                for r1, r2, r3, r4, r5 in rc]
    return at


def integrate_fixed_rk4(scenario: Scenario, dt: float = 1.0) -> Trajectory:
    """Independent fixed-step 4th-order reference integrator.

    Shares the right-hand side, the log grid, the post-step protections, the
    mask rule and the row builder with `integrate` through `_drive`; its
    stepping is implemented from scratch so the two paths can cross-check
    each other. With no interpolant, every log time a step reaches is logged
    at its protected end.
    """
    scenario.validate()
    if not dt > 0:  # NaN included
        raise ParameterError(f"dt must be positive, got {dt!r}")
    p, schedule = scenario.parameters, scenario.schedule

    def segment(ta, tb, y, u):  # on the grid from the breakpoint t0 <= ta
        t0 = schedule[bisect.bisect_right(schedule, ta, key=_TIME) - 1][0]
        n_steps = max(1, int(math.ceil((tb - t0) / dt - 1e-12)))
        h = (tb - t0) / n_steps
        h2, h6 = 0.5 * h, h / 6.0
        f = assemble_rhs
        for i in range(round((ta - t0) / h) + 1, n_steps + 1):
            t = t0 + (i - 1) * h
            k1 = f(t, y, p, u)
            k2 = f(t + 0.5 * h, [v + h2 * a for v, a in zip(y, k1)], p, u)
            k3 = f(t + 0.5 * h, [v + h2 * a for v, a in zip(y, k2)], p, u)
            k4 = f(t + h, [v + h * a for v, a in zip(y, k3)], p, u)
            y = [v + h6 * (a + 2.0 * b + 2.0 * c + d)
                 for v, a, b, c, d in zip(y, k1, k2, k3, k4)]
            yield (tb if i == n_steps else t0 + i * h), y, None
    return _drive(scenario, segment, "RK4", dt)


#: Each method's stepper factory: `factory(scenario)` gives `segment`.
_STEPPERS = {"DOPRI5": _dopri5, "LSODA": _lsoda}
