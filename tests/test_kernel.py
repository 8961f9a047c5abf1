"""The closed-loop kernel against the model written out as formulas.

`engine._evaluate` calls the public function of every physics law and checks
the result once; the kernel `assemble_rhs` and `evaluate_snapshot` run is
generated from it, with each law's body written in. The reference below does
not call the package: it writes each law out as a formula in the same order
of operations, and composes the laws the way the closed loop is documented
(clamps, resistance floor, density clamp, bounded head command with
anti-windup, depletion caps), so equality with `==` shows that the kernel
computes the model's floats. The generated kernel must give `_evaluate`'s
floats bit for bit, and raise its errors word for word; the block filler
written from it must write the bytes, and raise the errors, of the rows
filled one at a time, calling `_protect` and `evaluate_snapshot`.
Property tests use Hypothesis (MacIver et al., JOSS 2019).
"""

import ast
import functools
import inspect
import linecache
import math
import operator
import re
import struct
import sys
import traceback
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowdown import _generated, _kernel_writer, engine, smc
from blowdown.engine import (SNAPSHOT_COLUMNS, assemble_rhs, evaluate_snapshot,
                             integrate)
from blowdown.errors import IntegrationError
from blowdown.scenario_io import default_scenario
from blowdown.state import ExogenousInputs, ProcessState
from defaults import parameters

DEFAULT_INPUTS = dict(k_ch=0.5, gamma_K=0.2, f_in=1.0e-4, f_fl=0.0,
                      q_p_ref=0.003)
DEFAULT_STATE = dict(M_s=2500.0, M_fl=25000.0, q_p=0.003, xi_eq=0.0,
                     H0=95.0, q_p_cmd=0.003, E_h=0.0, E_useful=0.0,
                     E_elec=0.0)


def reference(y, p, u):
    """Derivatives, snapshot and raw head command, formula by formula."""
    M_s = max(float(y[0]), 0.0)
    M_fl = max(float(y[1]), 0.0)
    q_p = min(max(float(y[2]), 0.0), p.q_p_max)
    xi_eq = float(y[3])
    H0 = min(max(float(y[4]), 0.0), p.H0_max)
    q_cmd = min(max(float(y[5]), 0.0), p.q_p_max)

    # Mixture: C = M_s / (M_s + M_fl + eps), harmonic density.
    C = M_s / (M_s + M_fl + p.eps)
    rho_mix = (M_s + M_fl) / (M_s / p.rho_s + M_fl / p.rho_fl + p.eps)
    rho_head = min(max(rho_mix, min(p.rho_s, p.rho_fl)),
                   max(p.rho_s, p.rho_fl))
    C_res = max(C, engine.RESISTANCE_FLOOR_CONSISTENCY)
    C_n = p.K_ref * ((C_res + p.eps) / p.C_ref) ** p.alpha_C
    H_static = p.K_static * rho_head

    # Guard: the logistic 1 / (1 + exp(-x)), x = alpha_sig (C_max - C),
    # evaluated as exp(x) / (1 + exp(x)) where x < 0 so it cannot overflow.
    x = p.alpha_sig * (p.C_max - C)
    sigma_C = (1.0 / (1.0 + math.exp(-x)) if x >= 0
               else math.exp(x) / (1.0 + math.exp(x)))
    q_star = sigma_C * u.q_p_ref
    d_q_cmd = (q_star - q_cmd) / p.tau_ref

    # Sliding mode: s = e + lambda xi, H_eq inverts the pressure-flow law,
    # the command switches with sat(s / phi) and is bounded to [0, H0_max].
    e_q = q_p - q_cmd
    s_q = e_q + p.lambda_q * xi_eq
    H_eq = H_static + (C_n + p.eps) * q_cmd ** p.n
    raw_cmd = H_eq - p.k_smc * min(max(s_q / p.phi_q, -1.0), 1.0)
    H0s = min(max(raw_cmd, 0.0), p.H0_max)
    d_H0 = (H0s - H0) / p.tau_H
    windup = ((raw_cmd > p.H0_max and e_q < 0.0)
              or (raw_cmd < 0.0 and e_q > 0.0))
    d_xi = 0.0 if windup else e_q

    # Pressure-flow law q = (max(H0 - H_static, 0) / (C_n + eps))**(1/n).
    dH = H0 - H_static
    q_alg = 0.0 if dH <= 0.0 else (dH / (C_n + p.eps)) ** (1.0 / p.n)
    q_alg = min(q_alg, p.q_p_max)
    d_q_p = (q_alg - q_p) / p.tau_p

    limit = engine.TRANSPORT_DEPLETION_TIME
    f_s = min(rho_mix * C * q_p, M_s / limit)
    f_liq = min((1.0 - u.k_ch) * (1.0 - u.gamma_K * C) * rho_mix
                * (1.0 - C) * q_p, M_fl / limit)
    f_ex = min(p.rho_fl * u.f_fl, M_fl / limit)
    d_M_fl = p.rho_fl * u.f_in - f_ex - f_liq

    P_h = H0 * q_p
    P_useful = H_static * q_p
    P_elec = P_h / p.eta_pm

    gamma_dot = 32.0 * q_p / (math.pi * p.D_pipe ** 3)
    tau = p.tau_y + p.K_HB * gamma_dot ** p.n
    V_s = M_s / (p.rho_s * (1.0 - p.w))
    snap = dict(
        C=C, V=V_s + M_fl / p.rho_fl, rho_mix=rho_mix, C_n=C_n,
        H_static=H_static, q_p_alg=q_alg, sigma_C=sigma_C, e_q=e_q, s_q=s_q,
        H_eq=H_eq, H0s=H0s, f_s=f_s, f_liq=f_liq, gamma_dot=gamma_dot,
        tau=tau, Phi_v=tau * gamma_dot if q_p > 0 else 0.0,
        P_h=P_h, P_useful=P_useful, P_elec=P_elec,
        eta_h=min(max(P_useful / (P_h + p.eps), 0.0), 1.0),
        V_lyap=0.5 * s_q * s_q)
    derivs = [-f_s, d_M_fl, d_q_p, d_xi, d_H0, d_q_cmd, P_h, P_useful,
              P_elec]
    return derivs, snap, raw_cmd


def make_case(y=None, params=None, inputs=None):
    """(state vector, validated parameters, validated inputs)."""
    p = parameters(**(params or {})).validate()
    u = ExogenousInputs(**{**DEFAULT_INPUTS, **(inputs or {})}).validate(p)
    return (ProcessState(**{**DEFAULT_STATE, **(y or {})}).as_array(), p, u)


#: One state per branch of the closed loop, with the test that it is taken.
BRANCH_CASES = {
    "depletion cap": (  # extraction 1.1 kg/s is capped too
        make_case(dict(M_s=1.0, M_fl=5.0), inputs=dict(f_fl=1e-3)),
        lambda y, p, snap, raw: (
            snap["f_s"] == y[0] / engine.TRANSPORT_DEPLETION_TIME
            and snap["f_liq"] == y[1] / engine.TRANSPORT_DEPLETION_TIME)),
    "guard active": (
        make_case(dict(M_s=6000.0, M_fl=9000.0)),
        lambda y, p, snap, raw: snap["C"] > p.C_max
        and snap["sigma_C"] < 0.5),
    "anti-windup at H0_max": (
        make_case(dict(M_s=6000.0, M_fl=9000.0, q_p=0.001, q_p_cmd=0.004)),
        lambda y, p, snap, raw: raw > p.H0_max and snap["e_q"] < 0.0),
    "anti-windup at 0": (
        make_case(dict(q_p=0.002, q_p_cmd=0.0), params=dict(K_static=0.0)),
        lambda y, p, snap, raw: raw < 0.0 and snap["e_q"] > 0.0),
    "H0 at or below H_static": (
        make_case(dict(H0=5.0)),
        lambda y, p, snap, raw: (y[4] <= snap["H_static"]
                                 and snap["q_p_alg"] == 0.0)),
    "q_p_cmd at 0": (
        make_case(dict(q_p_cmd=0.0)),
        lambda y, p, snap, raw: y[5] == 0.0),
    "q_p_cmd at q_p_max": (
        make_case(dict(q_p_cmd=0.004)),
        lambda y, p, snap, raw: y[5] == p.q_p_max),
    "clamped states": (
        make_case(dict(M_s=-1.0, q_p=0.01, H0=500.0, q_p_cmd=-1e-3)),
        lambda y, p, snap, raw: snap["f_s"] == 0.0
        and snap["H_eq"] == snap["H_static"]),
}


@st.composite
def cases(draw):
    """Admissible parameters and inputs, and states inside and out of bounds.

    Masses span near-empty to full vessels at any consistency; the flow,
    head and reference states include their bounds and excursions past
    them; K_static and k_smc reach values where the head command saturates
    below zero.
    """
    mass = st.one_of(st.floats(-1.0, 10.0), st.floats(10.0, 1.0e5))
    params = dict(
        k_smc=draw(st.floats(0.0, 50.0)),
        K_static=draw(st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.05)),
        phi_q=draw(st.floats(1e-5, 1e-3)),
        n=draw(st.floats(0.3, 1.5)),
        rho_s=draw(st.floats(900.0, 1300.0)),
        alpha_sig=draw(st.floats(10.0, 500.0)))
    p = parameters(**params).validate()
    q_max = p.q_p_max
    flow = st.sampled_from([0.0, q_max]) | st.floats(-1e-3, 2.0 * q_max)
    y = dict(M_s=draw(mass), M_fl=draw(mass), q_p=draw(flow),
             xi_eq=draw(st.floats(-50.0, 50.0)),
             H0=draw(st.sampled_from([0.0, p.H0_max])
                     | st.floats(-10.0, 1.2 * p.H0_max)),
             q_p_cmd=draw(flow))
    inputs = dict(k_ch=draw(st.floats(0.0, 1.0)),
                  gamma_K=draw(st.floats(0.0, 1.0)),
                  f_in=draw(st.floats(0.0, 1e-3)),
                  f_fl=draw(st.floats(0.0, 1e-3)),
                  q_p_ref=draw(st.floats(0.0, q_max)))
    return make_case(y, params, inputs)


def with_branch_examples(test):
    for case, _ in BRANCH_CASES.values():
        test = example(case)(test)
    return test


class TestKernelMatchesHelpers:
    @settings(max_examples=300, deadline=None)
    @with_branch_examples
    @given(cases())
    def test_rhs_and_snapshot_equal_reference(self, case):
        y, p, u = case
        derivs, snap, _ = reference(y, p, u)
        rhs = assemble_rhs(0.0, y, p, u)
        assert type(rhs) is tuple and rhs == tuple(derivs)
        assert assemble_rhs(0.0, np.array(y), p, u) == rhs
        got = evaluate_snapshot(y, p, u)
        assert type(got) is tuple and len(got) == len(SNAPSHOT_COLUMNS)
        assert dict(zip(SNAPSHOT_COLUMNS, got)) == snap

    @pytest.mark.parametrize("name", BRANCH_CASES)
    def test_branch_cases_take_their_branch(self, name):
        (y, p, u), taken = BRANCH_CASES[name]
        _, snap, raw_cmd = reference(y, p, u)
        assert taken(y, p, snap, raw_cmd)

    def test_windup_pauses_the_integral(self):
        for name in ("anti-windup at H0_max", "anti-windup at 0"):
            (y, p, u), _ = BRANCH_CASES[name]
            assert assemble_rhs(0.0, y, p, u)[3] == 0.0


def test_rhs_is_a_tuple_of_floats():
    # Steppers do arithmetic on the derivative as it comes: no array to
    # convert back, and scipy wraps it in `np.asarray` itself.
    rhs = assemble_rhs(0.0, *make_case())
    assert type(rhs) is tuple and len(rhs) == len(engine._STATE_NAMES)
    assert {type(v) for v in rhs} == {float}


class TestBounds:
    """`engine._bounded`, the one rule for the five hard state bounds."""

    def test_clamps_each_bound(self):
        y, p, _ = make_case(dict(M_s=-1.0, M_fl=-2.0, q_p=1.0, H0=-3.0,
                                 q_p_cmd=-4.0))
        assert engine._bounded(y, p) == (0.0, 0.0, p.q_p_max, 0.0, 0.0)
        y, p, _ = make_case(dict(q_p=-1.0, H0=1.0e9, q_p_cmd=1.0))
        assert engine._bounded(y, p)[2:] == (0.0, p.H0_max, p.q_p_max)

    def test_nan_and_negative_zero_pass(self):
        y, p, _ = make_case(dict(M_s=-0.0, M_fl=math.nan, q_p=-0.0,
                                 H0=math.nan, q_p_cmd=-0.0))
        bounded = engine._bounded(y, p)
        assert [math.copysign(1.0, v) for v in bounded[::2]] == [-1.0] * 3
        assert math.isnan(bounded[1]) and math.isnan(bounded[3])

    def test_protect_flags_each_state_it_changed(self):
        y, p, _ = make_case(dict(M_fl=-2.0, H0=1.0e9))
        out, mask = engine._protect(y, p)
        assert mask == engine.PROT_MFL_FLOOR | engine.PROT_H0_BOUND
        assert out[:6] == [y[0], 0.0, y[2], y[3], p.H0_max, y[5]]
        assert engine._protect(out, p) == (out, 0)


class TestNonFiniteState:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(6),
                             ids=["M_s", "M_fl", "q_p", "xi_eq", "H0",
                                  "q_p_cmd"])
    def test_raises_integration_error(self, index, value):
        y, p, u = make_case()
        y[index] = value
        with pytest.raises(IntegrationError, match="non-finite"):
            assemble_rhs(0.0, y, p, u)
        with pytest.raises(IntegrationError, match="non-finite"):
            evaluate_snapshot(y, p, u)

    def test_quantity_named_before_state(self):
        # A NaN head reaches the algebraic flow first; the message names
        # the first non-finite quantity in the kernel's order.
        y, p, u = make_case(dict(H0=math.nan))
        with pytest.raises(IntegrationError,
                           match="non-finite quantity 'q_p_alg' in RHS"):
            assemble_rhs(0.0, y, p, u)

    def test_overflowing_sum_of_finite_values_passes(self):
        # The one-pass check adds the values up; a sum that overflows while
        # every value is finite must not raise.
        y, p, u = make_case(dict(M_s=1.0e308, xi_eq=1.0e308))
        assert np.all(np.isfinite(assemble_rhs(0.0, y, p, u)))


def outcome(kernel, y, p, u):
    """The bytes of a kernel's derivative and snapshot, or its error text."""
    try:
        derivs, snap = kernel(list(y), p, u, True)
        rhs, none = kernel(list(y), p, u, False)
    except IntegrationError as exc:
        return f"IntegrationError: {exc}"
    assert none is None and rhs == derivs
    return struct.pack(f"{len(derivs) + len(snap)}d", *derivs, *snap)


@st.composite
def wide_cases(draw):
    """States inside and outside the five hard bounds, -0.0 included, masses
    from 0 to 1e7 with the consistency on both sides of C_max, and inputs
    across their validated ranges, bounds and -0.0 included."""
    p = parameters(k_smc=draw(st.floats(0.0, 50.0)),
                   n=draw(st.floats(0.3, 1.5))).validate()
    q_max, H_max = p.q_p_max, p.H0_max

    def around(top):  # the bounds, -0.0, and values inside and past them
        return (st.sampled_from([-0.0, 0.0, top])
                | st.floats(-0.5 * top, 1.5 * top))

    total = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1.0e7))
    C = draw(st.floats(0.0, 1.0) | st.floats(0.9 * p.C_max, 1.1 * p.C_max))
    M_s, M_fl = C * total, (1.0 - C) * total
    if draw(st.booleans()):  # a mass below its floor
        M_s, M_fl = draw(st.sampled_from([(-1.0, M_fl), (M_s, -2.0),
                                          (-0.0, M_fl), (M_s, -0.0)]))
    y = dict(M_s=M_s, M_fl=M_fl, q_p=draw(around(q_max)),
             xi_eq=draw(st.floats(-50.0, 50.0)), H0=draw(around(H_max)),
             q_p_cmd=draw(around(q_max)))
    share = st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0)
    flow = st.sampled_from([-0.0, 0.0]) | st.floats(0.0, 1e-3)
    inputs = dict(k_ch=draw(share), gamma_K=draw(share), f_in=draw(flow),
                  f_fl=draw(flow), q_p_ref=draw(
                      st.sampled_from([-0.0, q_max]) | st.floats(0.0, q_max)))
    return make_case(y, {"k_smc": p.k_smc, "n": p.n}, inputs)


class TestGeneratedKernel:
    """The kernel generated from `_evaluate` and the laws' bodies."""

    @settings(max_examples=300, deadline=None)
    @given(wide_cases())
    def test_same_bytes_as_evaluate_and_the_formulas(self, case):
        y, p, u = case
        kernel = engine._refresh_kernel()
        assert kernel is not engine._evaluate
        assert outcome(kernel, y, p, u) == outcome(engine._evaluate, y, p, u)
        derivs, snap, _ = reference(y, p, u)
        assert assemble_rhs(0.0, y, p, u) == tuple(derivs)
        assert dict(zip(SNAPSHOT_COLUMNS, evaluate_snapshot(y, p, u))) == snap

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(9))
    def test_same_error_for_a_non_finite_state(self, index, value):
        y, p, u = make_case()
        y[index] = value
        expected = outcome(engine._evaluate, y, p, u)
        assert outcome(engine._refresh_kernel(), y, p, u) == expected
        if index < 6:
            assert expected.startswith("IntegrationError: non-finite")
        else:  # the kernel reads no energy
            assert isinstance(expected, bytes)

    @pytest.mark.parametrize("state, raises", [
        (dict(M_s=1.0e308, M_fl=1.0e308), True),  # the density overflows
        (dict(M_s=1.0e308, xi_eq=1.0e308), False)])  # only the check's sum
    def test_same_outcome_for_an_overflowing_state(self, state, raises):
        y, p, u = make_case(state)
        expected = outcome(engine._evaluate, y, p, u)
        assert outcome(engine._refresh_kernel(), y, p, u) == expected
        assert isinstance(expected, str) == raises

    def test_a_traceback_shows_the_generated_line(self):
        y, p, u = make_case(dict(H0=math.nan))
        with pytest.raises(IntegrationError) as info:
            assemble_rhs(0.0, y, p, u)
        frame = next(f for f in traceback.extract_tb(info.tb)
                     if f.name == "_kernel")
        assert frame.filename == "<blowdown.engine._kernel>"
        assert frame.line.startswith("_raise_non_finite(")

    def test_wrapped_or_replaced_laws_stay_calls(self, monkeypatch):
        # The tracer's counters wrap laws, and a test may replace one: the
        # run calls `_evaluate`, which calls what `engine` holds, and the
        # committed kernel once the laws are restored.
        scenario = replace(default_scenario(), t_end=400.0, method="DOPRI5")
        plain = integrate(scenario).data.copy()
        counts = Counter()
        guard = engine.consistency_guard

        @functools.wraps(guard)
        def counted_guard(*args):
            counts["consistency_guard"] += 1
            return guard(*args)

        def slower_lag(target, value, tau):  # twice each time constant
            counts["relaxation"] += 1
            return (target - value) / (2.0 * tau)

        def counted(name):
            kernel_entry = getattr(engine, name)

            def wrapper(*args):
                counts[name] += 1
                return kernel_entry(*args)
            monkeypatch.setattr(engine, name, wrapper)

        monkeypatch.setattr(engine, "consistency_guard", counted_guard)
        monkeypatch.setattr(engine, "relaxation", slower_lag)
        engine._evaluate(*make_case(), True)
        per_call = Counter(counts)  # the calls one `_evaluate` makes
        assert per_call == {"consistency_guard": 1, "relaxation": 3}
        counted("assemble_rhs")
        counted("evaluate_snapshot")
        counts.clear()
        replaced = integrate(scenario).data
        calls = counts["assemble_rhs"] + counts["evaluate_snapshot"]
        assert calls > 0
        for law in per_call:
            assert counts[law] == per_call[law] * calls, law
        assert not np.array_equal(replaced, plain)
        assert {"consistency_guard", "relaxation"} <= set(
            engine._kernel.__code__.co_names)

        monkeypatch.undo()
        counts.clear()
        restored = integrate(scenario).data
        assert counts == Counter()
        assert not {"consistency_guard", "relaxation"} & set(
            engine._kernel.__code__.co_names)
        assert np.array_equal(restored, plain)


#: The raw cells of a trajectory table's rows, before they are filled.
RAW = np.s_[:, :len(engine._RAW_COLUMNS)]


def raw_table(states, inputs, times, masks=None):
    """A trajectory table as `_drive` stages it, a row a state, each packed
    as it is given, a list or an array, into the row's raw cells; the other
    cells are NaN."""
    raw = np.full((len(states), len(engine.TRAJECTORY_COLUMNS)), math.nan)
    size = raw.itemsize * raw.shape[1]
    for i, (y, u, t) in enumerate(zip(states, inputs, times)):
        engine._pack_raw(raw, i * size, t, *y, *engine._held(u),
                         masks[i] if masks else 0)
    return raw


@st.composite
def raw_blocks(draw):
    """(raw, p): a staged table of 1 to 8 rows, the states and inputs of
    `wide_cases` under the parameters of the first, whose bounds all share;
    each state a list or, as LSODA's interpolant gives it, an array; times
    that repeat (dV/dt 0.0) or move on, and the bits gathered."""
    cases = draw(st.lists(wide_cases(), min_size=1, max_size=8))
    t = draw(st.floats(0.0, 1.0e5))
    times = []
    for _ in cases:
        t += draw(st.sampled_from([0.0]) | st.floats(0.0, 1.0e4))
        times.append(t)
    states = [np.array(y) if draw(st.booleans()) else y for y, _, _ in cases]
    masks = draw(st.lists(st.integers(0, 31), min_size=len(cases),
                          max_size=len(cases)))
    return raw_table(states, [u for _, _, u in cases], times,
                     masks), cases[0][1]


def filled(raw, p, **constants):
    """The bytes of the table `_reconstruct` fills from a copy of the
    staged table `raw` with `constants` set in `engine`, or the text of the
    IntegrationError it raised; a RuntimeWarning is an error."""
    engine._refresh_kernel()
    with mock.patch.multiple(engine, **constants), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return engine._reconstruct(raw.copy(), p).tobytes()
        except IntegrationError as exc:
            return f"IntegrationError: {exc}"


def by_rows(raw, p):
    return filled(raw, p, _fill_block=None)


def by_blocks(raw, p, rows=2):
    """Filled by `_fill_block`, `rows` rows a block."""
    return filled(raw, p, _BLOCK_ROWS=rows, _BLOCK_MIN_ROWS=1)


MASK = engine.TRAJECTORY_COLUMNS.index("protection_mask")


class TestRowWriter:
    """The block filler against the rows filled one at a time, calling
    `_protect` and `evaluate_snapshot`."""

    @settings(max_examples=300, deadline=None)
    @given(raw_blocks(), st.sampled_from([1, 2, 3, 2048]))
    def test_same_row_as_calling_through(self, block, rows):
        raw, p = block
        expected = by_rows(raw, p)
        assert by_blocks(raw, p, rows) == expected
        # The filler takes the whole table, unless a value overflows (as
        # dV/dt over a step of 5e-324 s does): Python's floats give inf,
        # numpy raises, and the rows are filled one at a time.
        table = np.empty((len(raw), len(engine.TRAJECTORY_COLUMNS)))
        try:
            with np.errstate(all="raise", under="ignore"):
                engine._fill_block(table, raw[RAW], 0, len(raw), p)
        except FloatingPointError:
            return
        assert table.tobytes() == expected
        for row, values in zip(table, raw[RAW].tolist()):
            protected, bits = engine._protect(values[1:10], p)
            assert row[MASK] == int(values[-1]) | bits
            assert list(row[1:3]) == protected[:2]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(9))
    def test_same_error_for_a_non_finite_state(self, index, value):
        y, p, u = make_case()
        states = [list(y) for _ in range(5)]
        states[3][index] = value  # in the second block of two rows
        raw = raw_table(states, [u] * 5, [0.0, 1.0, 2.0, 3.0, 4.0])
        expected = by_rows(raw, p)
        assert expected == ("IntegrationError: protection cannot repair a "
                            "non-finite state")
        assert by_blocks(raw, p) == expected

    @pytest.mark.parametrize("state, raises", [
        (dict(M_s=1.0e308, M_fl=1.0e308), True),  # the density overflows
        (dict(M_s=1.0e308, xi_eq=1.0e308), False)])  # only the check's sum
    @pytest.mark.parametrize("row", range(3))
    def test_same_outcome_for_an_overflowing_state(self, state, raises, row):
        y, p, u = make_case()
        states = [list(y) for _ in range(3)]
        states[row] = make_case(state)[0]
        raw = raw_table(states, [u] * 3, [0.0, 1.0, 2.0])
        expected = by_rows(raw, p)
        assert by_blocks(raw, p) == expected
        assert isinstance(expected, str) == raises

    @pytest.mark.parametrize("base", ["scalar", "vector"])
    def test_pow_of_a_vector_exponent_is_pythons(self, base):
        # The filler writes `_pow` for any `**` with a vector operand: each
        # element is Python's `**`, bit for bit, whether the base is a
        # float or a vector too.
        rng = np.random.default_rng(11)
        exponents = rng.uniform(-3.0, 3.0, 1000)
        bases = 1.7 if base == "scalar" else rng.uniform(1e-3, 1e3, 1000)
        powers = engine._pow(bases, exponents)
        expected = [a ** b for a, b in zip(
            np.broadcast_to(bases, exponents.shape).tolist(),
            exponents.tolist())]
        assert powers.tobytes() == np.array(expected).tobytes()

    def test_a_block_the_filler_fails_on_is_filled_row_by_row(
            self, monkeypatch):
        # Only the check's sum overflows: the rows are finite, the block
        # raises, and its rows alone are filled one at a time.
        scenario = replace(default_scenario(), t_end=400.0, method="DOPRI5")
        data = integrate(scenario).data
        raw = data.copy()
        raw[RAW] = data[:, [engine.TRAJECTORY_COLUMNS.index(name)
                            for name in engine._RAW_COLUMNS]]
        raw[len(raw) // 2, [1, 4]] = 1.0e308  # M_s, xi_eq
        p = scenario.parameters
        blocks, fill_rows = [], engine._fill_rows
        monkeypatch.setattr(engine, "_fill_rows", lambda *args: (
            blocks.append(args[2:4]), fill_rows(*args)))
        assert by_blocks(raw, p, 8) == by_rows(raw, p)
        middle = len(raw) // 2 // 8 * 8
        assert blocks[0] == (middle, middle + 8)
        assert blocks[1] == (0, len(raw))  # `by_rows`

    @pytest.mark.parametrize("t_end, rows, filler", [
        (1200.0, engine._BLOCK_MIN_ROWS, True),
        (1150.0, engine._BLOCK_MIN_ROWS - 1, False)])
    def test_few_rows_are_filled_one_at_a_time(self, monkeypatch, t_end,
                                               rows, filler):
        # A row at a time costs less than a block below `_BLOCK_MIN_ROWS`
        # rows: an ensemble member logs 5.
        engine._refresh_kernel()
        calls, fill_block = [], engine._fill_block
        monkeypatch.setattr(engine, "_fill_block", lambda *args: (
            calls.append(args), fill_block(*args)))
        traj = integrate(replace(default_scenario(), t_end=t_end))
        assert len(traj) == rows
        assert bool(calls) == filler

    def test_reconstruction_memory_scales_with_the_block(self, monkeypatch):
        # The filler's arrays grow with `_BLOCK_ROWS`, not with the run,
        # and the rows are filled in place: filling 50,000 rows peaks
        # within a fixed allowance.
        y, p, u = make_case()
        rows = 50_000
        raw = np.tile(raw_table([y], [u], [0.0]), (rows, 1))
        raw[:, 0] = np.arange(rows) * 2.0
        raw[:, 1:3] *= np.random.default_rng(5).uniform(0.5, 1.5, (rows, 2))
        engine._refresh_kernel()
        monkeypatch.setattr(engine, "_fill_rows", None)  # never called
        tracemalloc.start()
        try:
            table = engine._reconstruct(raw, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table is raw
        assert table.shape == (rows, len(engine.TRAJECTORY_COLUMNS))
        assert peak <= 4 * 2**20

    def test_a_replaced_law_runs_evaluate_until_it_is_restored(
            self, monkeypatch):
        # A run with a call of `CALLS` replaced, in `engine` or in the law's
        # own module, calls `_evaluate`, which calls the replacement, and
        # fills its rows one at a time; once the law is restored, the next
        # run uses the committed unit again.
        scenario = replace(default_scenario(), t_end=2000.0)
        by_block = integrate(scenario).data.tobytes()
        unit = engine._kernel, engine._fill_block
        for module, name in ((engine, "consistency_guard"),
                             (smc, "saturation")):
            law, calls = getattr(module, name), []
            with monkeypatch.context() as patch:
                patch.setattr(module, name, lambda *args: (
                    calls.append(args), law(*args))[1])
                traj = integrate(scenario)
                assert calls and traj.data.tobytes() == by_block
                assert engine._kernel is engine._evaluate
                assert engine._fill_block is None
            calls.clear()
            assert integrate(scenario).data.tobytes() == by_block
            assert not calls
            assert (engine._kernel, engine._fill_block) == unit


#: `consistency_guard` in forms the shipped laws do not take: a parameter read
#: twice and in a keyword argument, and a result built over several lines,
#: the last of which holds no code, by a conditional expression with calls
#: in both branches.
SYNTHETIC = '''
def guard(C, C_max, alpha_sig):
    """The consistency guard, written another way."""
    x = sorted([alpha_sig * (C_max - C)], reverse=C_max > 2.0)[0]
    return (
        1.0 / (1.0 + math.exp(-x)) if x >= 0
        else math.exp(x) / (1.0 + math.exp(x))
    )
'''
#: The guard with an `if` statement that returns, a form no law may take.
BRANCHING = '''
def guard(C, C_max, alpha_sig):
    """The consistency guard, with a branch."""
    x = alpha_sig * (C_max - C)
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)
'''


def written():
    """The kernel the writer writes for the laws `engine` holds now,
    compiled."""
    source, _, _ = _kernel_writer.write(engine._evaluate, "_kernel",
                                        vars(engine))
    exec(compile(source, "<written>", "exec"), vars(engine), defined := {})
    return defined["_kernel"]


#: The form the writer refuses each law for, in its words.
REFUSED = {"indented": "the source of `indented` is not its code",
           "unread": "the source of `unread` is not its code",
           "shadowed": "`shadowed` reads `p` as the kernel reads it",
           "branching": "`branching` is straight-line"}


@pytest.mark.parametrize("form", ["module level", *REFUSED])
def test_a_law_of_another_form(monkeypatch, form):
    # A law is written in from the source `linecache` holds for it. The
    # writer refuses one written inside a block, whose source cannot be
    # read, that reads a global the kernel would shadow with a parameter of
    # `_evaluate`, or that holds an `if` statement, naming it.
    filename = f"<smc.consistency_guard, {form}>"
    source = (BRANCHING if form == "branching" else SYNTHETIC).replace(
        "guard", form.replace(" ", "_"))
    if form == "indented":
        source = "if True:\n" + source.replace("\n", "\n    ")
    if form == "shadowed":  # in the kernel, `p` is the parameters
        one = 1.0
        monkeypatch.setitem(vars(smc), "p", one)
        monkeypatch.setitem(vars(engine), "p", one)
        source = source.replace("1.0 / (1.0 + math.exp(-x))",
                                "p / (p + math.exp(-x))")
    if form != "unread":
        monkeypatch.setitem(linecache.cache, filename, (
            len(source), None, source.splitlines(True), filename))
    exec(compile(source, filename, "exec"), vars(smc), defined := {})
    monkeypatch.setattr(engine, "consistency_guard", defined.popitem()[1])
    if form in REFUSED:
        with pytest.raises(ValueError, match=re.escape(REFUSED[form])):
            written()
        return
    kernel = written()
    assert "consistency_guard" not in kernel.__code__.co_names
    for (y, p, u), _ in BRANCH_CASES.values():
        assert outcome(kernel, y, p, u) == outcome(engine._evaluate, y, p, u)


def test_a_law_whose_source_is_not_its_code(monkeypatch):
    # Source that does not compile to the loaded code (a file edited after
    # import) is not written in: the writer refuses an edited law and an
    # edited `_evaluate`, naming it.
    filename = "<smc.consistency_guard, edited>"
    source = SYNTHETIC.replace("guard", "edited_guard")
    exec(compile(source, filename, "exec"), vars(smc), defined := {})
    edited = source.replace("1.0 / (1.0 + math.exp(-x))",
                            "1.0 / (1.0 + math.exp(x))")
    engine_file = engine._evaluate.__code__.co_filename
    edited_engine = [line.replace("f_ex = p.rho_fl * u.f_fl",
                                  "f_ex = p.rho_fl * u.f_fl * 2.0")
                     for line in linecache.getlines(engine_file)]
    assert edited_engine != linecache.getlines(engine_file)
    with monkeypatch.context() as patch:
        patch.setitem(linecache.cache, filename, (
            len(edited), None, edited.splitlines(True), filename))
        patch.setattr(engine, "consistency_guard", defined["edited_guard"])
        with pytest.raises(ValueError,
                           match="the source of `edited_guard` is not its"):
            written()
    monkeypatch.setitem(linecache.cache, engine_file, (
        0, None, edited_engine, engine_file))
    with pytest.raises(ValueError,
                       match="the source of `_evaluate` is not its code"):
        written()


#: A law of two statements, and functions calling it where the call may not
#: run, where it is an argument of a call that is not a law, with a keyword
#: argument, and as the whole value of an assignment: only the last is
#: written in.
INVERSE = '''
def inv(a):
    b = 1.0 / a
    return b
'''
PROBES = {
    "chained comparison": "return 0.0 < x < inv(x)",
    "and": "return x and inv(x)",
    "if expression": "return inv(x) if x else 0.0",
    "argument": "return abs(inv(x))",
    "keyword": "y = inv(a=x)\n    return y",
    "assignment": "y = inv(x)\n    return y"}


def run_probe(fn, x):
    try:
        return fn(x)
    except ZeroDivisionError as exc:
        return type(exc)


@pytest.mark.parametrize("position", PROBES)
def test_a_law_is_written_in_only_where_its_call_stands(monkeypatch,
                                                        position):
    # Nothing is moved: a law with statements is written in only in place of
    # a whole assignment, and the written function returns what its source
    # returns. The writer refuses it anywhere else, as where its call may
    # not run, naming it.
    source = f"def probe(x):\n    {PROBES[position]}\n"
    for filename, text in (("<inv>", INVERSE), ("<probe>", source)):
        monkeypatch.setitem(linecache.cache, filename, (
            len(text), None, text.splitlines(True), filename))
    exec(compile(INVERSE, "<inv>", "exec"), dict(vars(smc)), law := {})
    namespace = {"inv": law["inv"]}
    exec(compile(source, "<probe>", "exec"), namespace)
    if position != "assignment":
        form = "with positional" if position == "keyword" else "as the whole"
        with pytest.raises(ValueError, match=f"`inv` is called {form}"):
            _kernel_writer.write(namespace["probe"], "written", namespace)
        return
    written, _, calls = _kernel_writer.write(namespace["probe"], "written",
                                             namespace)
    assert [name for _, name, _ in calls] == ["inv"]
    exec(compile(written, "<written>", "exec"), namespace)
    for x in (0.0, 2.0):
        assert run_probe(namespace["written"], x) == run_probe(
            namespace["probe"], x), written
    assert "inv" not in namespace["written"].__code__.co_names, written


def test_the_row_writer_is_fused_from_the_kernels_tree(monkeypatch):
    # `write` hands the block writer the kernel's syntax tree: the filler
    # is written without parsing the printed kernel.
    parsed, parse = [], ast.parse

    def recording(source, *args, **kwargs):
        parsed.append(source)
        return parse(source, *args, **kwargs)

    kernel_source, kernel, _ = _kernel_writer.write(
        engine._evaluate, "_kernel", vars(engine))
    monkeypatch.setattr(ast, "parse", recording)
    fill_source, _ = _kernel_writer.write_block(kernel, vars(engine))
    assert kernel_source.startswith("def _kernel(y, p, u, full):")
    assert "evaluate_snapshot" not in fill_source
    assert parsed and kernel_source not in parsed


#: What a code object does, as the writer compares it.
DOES = operator.attrgetter("co_code", "co_consts", "co_names")


def generated_block_filler():
    engine._refresh_kernel()
    return engine._fill_block


@pytest.mark.parametrize("generated, name, head", [
    (engine._refresh_kernel, "_kernel", "def _kernel(y, p, u, full):"),
    (generated_block_filler, "_fill_block",
     "def _fill_block(table, raw, start, stop, p):"),
    (engine._dopri5_attempt, "_dopri5_attempt",
     "def attempt(rhs, p, u, t, h, y, k1, atol, rtol):")])
def test_generated_source_can_be_read(generated, name, head):
    # Tracebacks, profiles and `inspect` read the generated lines, and they
    # are the code that runs.
    fn = generated()
    assert fn.__code__.co_filename == f"<blowdown.engine.{name}>"
    source = inspect.getsource(fn)
    assert source.startswith(head + "\n")
    exec(compile(source, "<check>", "exec"), {}, filed := {})
    assert DOES(filed.popitem()[1].__code__) == DOES(fn.__code__)


TAG = sys.implementation.cache_tag
ROOT = Path(__file__).resolve().parents[1]


def test_the_committed_module_is_the_writers_output():
    # The committed kernel and filler are derived, never edited: a law,
    # `_evaluate` or the writer changed without regenerating fails here, as
    # does a module without this interpreter's digests. Those of the other
    # interpreters are taken as they are committed.
    text = _kernel_writer.generated(vars(engine), _generated.DIGESTS)
    with open(_generated.__file__, encoding="utf-8") as file:
        same = text == file.read()
    assert same, ("src/blowdown/_generated.py is not the writer's output: "
                  "run `python -m blowdown._kernel_writer`")


def test_main_writes_the_committed_module(monkeypatch, capsys):
    # `python -m blowdown._kernel_writer` writes the committed module, with
    # the digests it holds for other interpreters; with no module to read
    # them from, it writes this interpreter's alone.
    written = []
    monkeypatch.setattr(Path, "write_text", lambda path, text: written.append(
        (path, text)))
    path = Path(_generated.__file__)
    _kernel_writer.main()
    assert written == [(path, path.read_text(encoding="utf-8"))]
    assert capsys.readouterr().out == f"wrote {path}\n"
    monkeypatch.setitem(sys.modules, "blowdown._generated", None)
    written.clear()
    _kernel_writer.main()
    [(_, text)] = written
    exec(text, module := {})
    assert module["DIGESTS"] == {TAG: _generated.DIGESTS[TAG]}


def rate(s_q, s_prev, dt):
    """`smc.lyapunov_rate`'s floats, from code of its own."""
    return smc.lyapunov_rate(s_q, s_prev, dt)


def test_the_committed_module_has_digests_for_each_ci_interpreter():
    # An interpreter without digests runs `_evaluate`, each law a call.
    workflow = yaml.safe_load(
        (ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    versions = workflow["jobs"]["tests"]["strategy"]["matrix"][
        "python-version"]
    assert versions and {f"cpython-{v.replace('.', '')}" for v in versions
                         } <= _generated.DIGESTS.keys()


def test_the_committed_calls_repeat_none():
    assert len(set(_generated.CALLS)) == len(_generated.CALLS)


#: Each way the committed unit cannot be used, and the change that makes it
#: so: the first run then calls `_evaluate`, each law a call.
FALLBACKS = {
    "another interpreter": lambda patch: patch.setattr(
        _generated, "DIGESTS", {"other-tag": _generated.DIGESTS[TAG]}),
    "patched digest": lambda patch: patch.setitem(
        _generated.DIGESTS, TAG, (0,) + _generated.DIGESTS[TAG][1:]),
    "corrupt module": lambda patch: patch.setattr(
        _generated, "KERNEL", _generated.KERNEL[:-40]),
    "missing module": lambda patch: (
        patch.delattr(sys.modules["blowdown"], "_generated"),
        patch.setitem(sys.modules, "blowdown._generated", None)),
    "wrapped law": lambda patch: patch.setattr(
        engine, "consistency_guard", functools.wraps(smc.consistency_guard)(
            lambda *args: smc.consistency_guard(*args))),
    "replaced lyapunov_rate": lambda patch: patch.setattr(
        engine, "lyapunov_rate", rate)}


def as_first_run(patch):
    """Makes the next run a process's first, with no unit compiled."""
    patch.setattr(engine, "_kernel", engine._evaluate)
    for name in ("_fill_block", "_committed"):
        patch.setattr(engine, name, None)


def first_run(monkeypatch, change=None):
    """(table bytes, (kernel, filler)) of a 2000 s run made as a process's
    first, after `change`; the unit is restored after."""
    scenario = replace(default_scenario(), t_end=2000.0)
    with monkeypatch.context() as patch:
        as_first_run(patch)
        if change:
            change(patch)
        return integrate(scenario).data.tobytes(), (
            engine._kernel, engine._fill_block)


@pytest.mark.parametrize("fallback", FALLBACKS)
def test_each_fallback_gives_the_committed_bytes(monkeypatch, fallback):
    committed, (kernel, filler) = first_run(monkeypatch)
    assert filler is not None
    assert kernel.__code__.co_filename == "<blowdown.engine._kernel>"
    unfused, unit = first_run(monkeypatch, FALLBACKS[fallback])
    assert unfused == committed
    assert unit == (engine._evaluate, None)


def test_a_law_wrapped_at_the_first_run_is_fused_once_restored(monkeypatch):
    # A wrapped law fails its digest: the first run calls `_evaluate`, and
    # the run after the law is restored compiles the committed unit.
    scenario = replace(default_scenario(), t_end=2000.0)
    committed = integrate(scenario).data.tobytes()
    as_first_run(monkeypatch)
    with monkeypatch.context() as patch:
        FALLBACKS["wrapped law"](patch)
        assert integrate(scenario).data.tobytes() == committed
        assert (engine._kernel, engine._fill_block) == (engine._evaluate, None)
    assert integrate(scenario).data.tobytes() == committed
    assert engine._kernel.__code__.co_filename == "<blowdown.engine._kernel>"
    assert engine._fill_block is not None
