"""Sliding-mode control stack: guard, manifold, control law, diagnostics."""

import math

import numpy as np
import pytest

from blowdown import hydraulics, smc
from blowdown.errors import ParameterError
from defaults import refused

EPS = 1e-9  # the shipped Parameters.eps


class TestConsistencyGuard:
    def test_half_at_limit(self):
        assert smc.consistency_guard(0.30, 0.30, 200.0) == 0.5

    def test_open_below_limit(self):
        assert smc.consistency_guard(0.09, 0.30, 200.0) == pytest.approx(
            1.0, abs=1e-9)

    def test_closed_above_limit(self):
        assert smc.consistency_guard(0.60, 0.30, 200.0) == pytest.approx(
            0.0, abs=1e-9)

    def test_point_symmetry_about_limit(self):
        for dC in (0.001, 0.01, 0.05):
            lo = smc.consistency_guard(0.30 - dC, 0.30, 200.0)
            hi = smc.consistency_guard(0.30 + dC, 0.30, 200.0)
            assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self):
        # Strictly decreasing through the transition, non-increasing where
        # the logistic saturates to machine 0 / 1.
        vals = [smc.consistency_guard(C, 0.30, 200.0)
                for C in np.linspace(0.2, 0.4, 101)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        tails = [smc.consistency_guard(C, 0.30, 200.0)
                 for C in np.linspace(0.0, 1.0, 101)]
        assert all(b <= a for a, b in zip(tails, tails[1:]))

    def test_no_overflow_at_extreme_arguments(self):
        assert smc.consistency_guard(1.0, 0.30, 5000.0) == pytest.approx(0.0)
        assert smc.consistency_guard(0.0, 0.30, 5000.0) == pytest.approx(1.0)

    def test_rejects_nonpositive_steepness(self):
        refused({"parameters": {"alpha_sig": 0.0}},
                "parameters: alpha_sig must be positive")


class TestReference:
    def test_protected_reference_product(self):
        assert smc.protected_reference(0.5, 0.003) == 0.0015

    # The conditioner is the lag of q_p_cmd toward sigma_C * q_p_ref.
    def test_conditioner_fixed_point(self):
        assert hydraulics.relaxation(0.0015, 0.0015, 500.0) == 0.0

    def test_conditioner_sign(self):
        assert hydraulics.relaxation(0.003, 0.0, 500.0) > 0
        assert hydraulics.relaxation(0.0, 0.003, 500.0) < 0


class TestSlidingSurface:
    def test_on_manifold(self):
        assert smc.sliding_surface(1e-4, -1.0, 1e-4) == pytest.approx(
            0.0, abs=1e-18)

    def test_linear_combination(self):
        assert smc.sliding_surface(2e-4, 3.0, 1e-4) == pytest.approx(
            5e-4, rel=1e-12)

    def test_saturation_shape(self):
        assert smc.saturation(0.5) == 0.5
        assert smc.saturation(-0.25) == -0.25
        assert smc.saturation(3.0) == 1.0
        assert smc.saturation(-7.0) == -1.0
        assert smc.saturation(1.0) == 1.0


class TestEquivalentHead:
    def test_reference_command(self):
        H_eq = smc.equivalent_head(10.9526, 8000.0, 0.003, 0.75, EPS)
        assert H_eq == pytest.approx(113.50, abs=0.05)

    def test_inverts_flow_law(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            H_static = rng.uniform(0.0, 100.0)
            C_n = rng.uniform(1.0, 1e6)
            n = rng.uniform(0.3, 1.5)
            q_cmd = rng.uniform(1e-9, 0.004)
            H_eq = smc.equivalent_head(H_static, C_n, q_cmd, n, EPS)
            q = hydraulics.algebraic_flow(H_eq, H_static, C_n, n, EPS)
            assert q == pytest.approx(q_cmd, rel=1e-12)

    def test_zero_command_gives_static_head(self):
        assert smc.equivalent_head(10.9526, 6611.57, 0.0, 0.75,
                                   EPS) == 10.9526

    def test_rejects_negative_command(self):
        refused({"initial_state": {"q_p_cmd": -1e-4}},
                "initial_state: q_p_cmd must lie in [0, 0.004], got -0.0001")


class TestControlLaw:
    """`control_law` returns (raw command, command bounded to [0, H0_max])."""

    def test_on_manifold_equals_equivalent_head(self):
        assert smc.control_law(60.0, 0.0, 3.0, 5e-4, 120.0) == (60.0, 60.0)

    def test_switching_direction(self):
        # Positive s (flow too high) must lower the head and vice versa.
        assert smc.control_law(60.0, 1e-3, 3.0, 5e-4, 120.0) == (57.0, 57.0)
        assert smc.control_law(60.0, -1e-3, 3.0, 5e-4, 120.0) == (63.0, 63.0)

    def test_linear_inside_boundary_layer(self):
        assert smc.control_law(60.0, 2.5e-4, 3.0, 5e-4, 120.0)[1] == \
            pytest.approx(58.5, rel=1e-12)

    def test_clamped_to_actuator_range(self):
        assert smc.control_law(125.0, 0.0, 3.0, 5e-4, 120.0) == (125.0, 120.0)
        assert smc.control_law(1.0, 1e-3, 3.0, 5e-4, 120.0) == (-2.0, 0.0)

    def test_rejects_nonpositive_layer(self):
        refused({"parameters": {"phi_q": 0.0}},
                "parameters: phi_q must be positive")


class TestDiagnostics:
    def test_lyapunov_value(self):
        assert smc.lyapunov_value(1e-3) == pytest.approx(5e-7, rel=1e-12)

    def test_lyapunov_decrease_sign(self):
        assert smc.lyapunov_rate(1e-3, 2e-3, 1.0) < 0

    def test_gain_condition(self):
        assert smc.check_gain_condition(3.0, 120.0, 1e-3)
        assert not smc.check_gain_condition(3.0, 120.0, 1.0)

    def test_delta_max_of_pure_decay(self):
        # s following exactly ds/dt = -(k/tau) sat(s/phi) has zero residual.
        k, tau, phi = 3.0, 120.0, 5e-4
        t = np.linspace(0.0, 6.0, 601)  # s stays well outside the layer
        s0 = 0.2
        s = s0 - (k / tau) * t  # constant switching-driven decay rate
        delta = smc.estimate_delta_max(t, s, k, tau, phi)
        assert delta == pytest.approx(0.0, abs=1e-9)


class TestManifoldGrid:
    def test_shapes_and_orientation(self):
        e, xi, s = smc.manifold_grid((-1e-3, 1e-3), (-10.0, 10.0), 1e-4,
                                     steps=21)
        assert e.shape == xi.shape == s.shape == (21, 21)
        assert e[0, 0] == -1e-3 and e[-1, 0] == 1e-3
        assert xi[0, 0] == -10.0 and xi[0, -1] == 10.0

    def test_surface_values(self):
        e, xi, s = smc.manifold_grid((0.0, 1e-3), (0.0, 10.0), 1e-4, steps=11)
        assert s[0, 0] == 0.0
        np.testing.assert_allclose(s, e + 1e-4 * xi, rtol=1e-12)

    def test_zero_contour_has_both_signs(self):
        _, _, s = smc.manifold_grid((-1e-3, 1e-3), (-10.0, 10.0), 1e-4)
        assert (s < 0).any() and (s > 0).any()

    def test_rejects_degenerate_ranges(self):
        with pytest.raises(ParameterError):
            smc.manifold_grid((1.0, 1.0), (0.0, 1.0), 1e-4)
        with pytest.raises(ParameterError):
            smc.manifold_grid((0.0, 1.0), (0.0, 1.0), 1e-4, steps=1)
