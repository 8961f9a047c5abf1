"""Head/flow laws, first-order lags, and the two transport flows."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowdown import hydraulics
from defaults import WIDE, bits, refused

EPS = 1e-9  # the shipped Parameters.eps
#: The index n as `Parameters.validate` keeps it, in (0, 2], its bounds
#: drawn often.
INDEX = st.sampled_from([5e-324, 1.0, 2.0]) | st.floats(
    0.0, 2.0, exclude_min=True)


def branching_algebraic_flow(H0: float, H_static: float, C_n: float, n: float,
                             eps: float) -> float:
    """`hydraulics.algebraic_flow` as it was written with an `if` statement,
    the reference for its conditional expression."""
    dH = H0 - H_static
    if dH <= 0.0:
        return 0.0
    return (dH / (C_n + eps)) ** (1.0 / n)


class TestStaticHead:
    def test_reference_density(self):
        assert hydraulics.static_head(1095.26, 0.01) == pytest.approx(
            10.9526, rel=1e-9)

    def test_zero_density(self):
        assert hydraulics.static_head(0.0, 0.01) == 0.0

    def test_rejects_negative_density(self):
        refused({"parameters": {"rho_fl": -1.0}},
                "parameters: phase densities must be positive")


class TestAlgebraicFlow:
    def test_reference_point(self):
        # 10 m of driving head across the reference resistance.
        q = hydraulics.algebraic_flow(20.9526, 10.9526, 8000.0, 0.75, EPS)
        assert q == pytest.approx(1.3465e-4, rel=1e-3)

    def test_exactly_zero_below_static_head(self):
        assert hydraulics.algebraic_flow(10.0, 10.9526, 8000.0, 0.75,
                                         EPS) == 0.0
        assert hydraulics.algebraic_flow(10.9526, 10.9526, 8000.0, 0.75,
                                         EPS) == 0.0

    def test_monotone_in_head(self):
        heads = np.linspace(0.0, 120.0, 200)
        flows = [hydraulics.algebraic_flow(H, 10.9526, 8000.0, 0.75, EPS)
                 for H in heads]
        assert all(b >= a for a, b in zip(flows, flows[1:]))

    def test_monotone_decreasing_in_resistance(self):
        flows = [hydraulics.algebraic_flow(50.0, 10.9526, C_n, 0.75, EPS)
                 for C_n in (1e3, 1e4, 1e5, 1e6)]
        assert all(b < a for a, b in zip(flows, flows[1:]))

    def test_newtonian_limit(self):
        # n = 1 degenerates to a linear conductance law.
        q = hydraulics.algebraic_flow(11.0, 10.0, 8000.0, 1.0, eps=0.0)
        assert q == pytest.approx(1.0 / 8000.0, rel=1e-12)

    @settings(max_examples=500, deadline=None)
    @example(10.0, 10.9526, math.nan, 0.75, EPS)
    @example(-0.0, 0.0, 0.0, 5e-324, 5e-324)
    @example(1e300, -1e300, 0.0, 2.0, 1e-300)
    @given(WIDE, WIDE, st.sampled_from([-0.0, math.nan]) | st.floats(
        min_value=-0.0), INDEX, st.floats(min_value=0.0, exclude_min=True,
                                          allow_infinity=False))
    def test_same_bits_as_the_branching_law(self, H0, H_static, C_n, n, eps):
        # C_n and eps as the kernel gives them: eps > 0 is validated, and
        # C_n = K_ref * (...)**alpha_C with K_ref >= 0 is >= 0, inf or NaN.
        # The one difference: with a NaN C_n and no head to drive a flow,
        # the law gives NaN where the branch gave 0.0. A run's error does
        # not change, since the kernel checks C_n before q_p_alg.
        args = H0, H_static, C_n, n, eps
        if math.isnan(C_n) and H0 - H_static <= 0.0:
            assert branching_algebraic_flow(*args) == 0.0
            assert math.isnan(hydraulics.algebraic_flow(*args))
        else:
            assert bits(hydraulics.algebraic_flow, *args) == bits(
                branching_algebraic_flow, *args)

    def test_rejects_nonpositive_index(self):
        refused({"parameters": {"n": 0.0}},
                "parameters: n must lie in (0, 2], got 0.0")

    def test_rejects_negative_resistance(self):
        refused({"parameters": {"K_ref": -1.0}},
                "parameters: resistance/head coefficients must be "
                "non-negative")


class TestLags:
    def test_flow_relaxation_sign(self):
        assert hydraulics.relaxation(2e-4, 1e-4, 120.0) > 0
        assert hydraulics.relaxation(1e-4, 2e-4, 120.0) < 0
        assert hydraulics.relaxation(1e-4, 1e-4, 120.0) == 0.0

    def test_flow_relaxation_timescale(self):
        assert hydraulics.relaxation(2e-4, 1e-4, 120.0) \
            == pytest.approx(1e-4 / 120.0, rel=1e-12)

    def test_actuator_sign(self):
        assert hydraulics.relaxation(100.0, 50.0, 300.0) > 0
        assert hydraulics.relaxation(50.0, 100.0, 300.0) < 0

    def test_rejects_nonpositive_time_constants(self):
        for name, value in (("tau_p", 0.0), ("tau_H", -1.0),
                            ("tau_ref", 0.0)):
            refused({"parameters": {name: value}},
                    f"parameters: {name} must be positive")


class TestTransportFlows:
    def test_fiber_flow_reference(self):
        f_s = hydraulics.fiber_flow(1095.26, 0.0909090909, 0.003)
        assert f_s == pytest.approx(0.29871, abs=1e-4)

    def test_fiber_flow_zero_cases(self):
        assert hydraulics.fiber_flow(1095.26, 0.0, 0.003) == 0.0
        assert hydraulics.fiber_flow(1095.26, 0.09, 0.0) == 0.0

    def test_liquor_flow_reference(self):
        f_liq = hydraulics.liquor_flow(0.5, 0.2, 0.0909090909, 1095.26, 0.003)
        assert f_liq == pytest.approx(1.46638, abs=1e-4)

    def test_full_channeling_kills_liquor_transport(self):
        assert hydraulics.liquor_flow(1.0, 0.2, 0.09, 1095.26, 0.003) == 0.0

    def test_liquor_flow_decreasing_in_channeling(self):
        flows = [hydraulics.liquor_flow(k, 0.2, 0.09, 1095.26, 0.003)
                 for k in np.linspace(0.0, 1.0, 11)]
        assert all(b < a for a, b in zip(flows, flows[1:]))

    def test_liquor_flow_decreasing_in_drainability(self):
        flows = [hydraulics.liquor_flow(0.5, g, 0.09, 1095.26, 0.003)
                 for g in np.linspace(0.0, 1.0, 11)]
        assert all(b < a for a, b in zip(flows, flows[1:]))
