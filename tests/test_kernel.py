"""The closed-loop kernel against the model written out as formulas.

`engine._evaluate` calls the public function of every physics law and checks
the result once. The reference below does not call the package: it writes
each law out as a formula in the same order of operations, and composes the
laws the way the closed loop is documented (clamps, resistance floor,
density clamp, bounded head command with anti-windup, depletion caps), so
equality with `==` shows that the kernel computes the model's floats.
Property tests use Hypothesis (MacIver et al., JOSS 2019).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowdown import engine
from blowdown.engine import SNAPSHOT_COLUMNS, assemble_rhs, evaluate_snapshot
from blowdown.errors import IntegrationError
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
