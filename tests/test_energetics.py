"""The head-power law, efficiency and the electrical demand."""

import pytest

from blowdown import energetics
from defaults import refused

EPS = 1e-9  # the shipped Parameters.eps


class TestHydraulicPower:
    """Hydraulic transport power: `head_power` at the applied head H0."""

    def test_reference_point(self):
        assert energetics.head_power(113.51, 0.003) == pytest.approx(
            0.34053, abs=1e-5)

    def test_zero_flow(self):
        assert energetics.head_power(113.51, 0.0) == 0.0

    def test_bilinearity(self):
        base = energetics.head_power(50.0, 0.002)
        assert energetics.head_power(100.0, 0.004) == pytest.approx(
            4.0 * base, rel=1e-12)

    def test_rejects_negative_inputs(self):
        refused({"initial_state": {"H0": -1.0}},
                "initial_state: H0 must lie in [0, 120.0], got -1.0")


class TestUsefulPower:
    """Useful conveyance power: `head_power` at the static head."""

    def test_reference_point(self):
        assert energetics.head_power(10.9526, 0.003) == pytest.approx(
            0.032858, abs=1e-6)

    def test_zero_cases(self):
        assert energetics.head_power(10.9526, 0.0) == 0.0
        assert energetics.head_power(0.0, 0.003) == 0.0


class TestEfficiency:
    def test_reference_ratio(self):
        eta = energetics.efficiency(0.032858, 0.34053, EPS)
        assert eta == pytest.approx(0.0965, abs=1e-3)

    def test_head_ratio_identity(self):
        # q_p cancels: unclamped efficiency equals H_static / H0.
        H_static, H0, q_p = 10.9526, 113.51, 0.00271
        eta = energetics.efficiency(energetics.head_power(H_static, q_p),
                                    energetics.head_power(H0, q_p), EPS)
        assert eta == pytest.approx(H_static / H0, rel=1e-5)

    def test_unity_when_equal(self):
        assert energetics.efficiency(0.5, 0.5, EPS) == pytest.approx(
            1.0, rel=1e-8)

    def test_no_flow_convention(self):
        assert energetics.efficiency(0.0, 0.0, EPS) == 0.0

    def test_clamp_to_unity(self):
        assert energetics.efficiency(2.0, 1.0, EPS) == 1.0

    def test_unclamped_passthrough(self):
        assert energetics.efficiency(0.25, 1.0, EPS) == 0.25 / (1.0 + EPS)


class TestElectricalPower:
    def test_reference_point(self):
        assert energetics.electrical_power(0.34053, 0.65) == pytest.approx(
            0.52389, abs=1e-5)

    def test_perfect_drive(self):
        assert energetics.electrical_power(0.34053, 1.0) == 0.34053

    def test_zero_power(self):
        assert energetics.electrical_power(0.0, 0.65) == 0.0

    def test_never_below_hydraulic(self):
        for eta_pm in (0.3, 0.65, 1.0):
            assert energetics.electrical_power(0.34, eta_pm) >= 0.34

    def test_rejects_nonpositive_efficiency(self):
        refused({"parameters": {"eta_pm": 0.0}},
                "parameters: eta_pm must lie in (0, 1], got 0.0")
