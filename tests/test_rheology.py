"""Herschel-Bulkley rheology and the consistency-dependent resistance."""

import math

import numpy as np
import pytest

from blowdown import rheology
from blowdown.engine import SNAPSHOT_COLUMNS, evaluate_snapshot
from blowdown.scenario_io import default_scenario
from defaults import refused

EPS = 1e-9  # the shipped Parameters.eps


class TestShearRate:
    def test_reference_flow(self):
        assert rheology.shear_rate(0.003, 0.2) == pytest.approx(
            3.8197186, abs=1e-6)

    def test_zero_flow(self):
        assert rheology.shear_rate(0.0, 0.2) == 0.0

    def test_linear_in_flow(self):
        assert rheology.shear_rate(0.006, 0.2) == pytest.approx(
            2.0 * rheology.shear_rate(0.003, 0.2), rel=1e-12)

    def test_rejects_negative_flow(self):
        refused({"initial_state": {"q_p": -1e-6}},
                "initial_state: q_p must lie in [0, 0.004], got -1e-06")

    def test_rejects_zero_diameter(self):
        refused({"parameters": {"D_pipe": 0.0}},
                "parameters: D_pipe must be positive")


class TestHBStress:
    def test_reference_point(self):
        gd = rheology.shear_rate(0.003, 0.2)
        tau = rheology.hb_stress(gd, 50.0, 75.0, 0.75)
        assert tau == pytest.approx(50.0 + 75.0 * gd ** 0.75, rel=1e-12)
        assert tau == pytest.approx(254.94, abs=0.05)

    def test_yield_stress_at_rest(self):
        assert rheology.hb_stress(0.0, 50.0, 75.0, 0.75) == 50.0

    def test_monotone_in_shear_rate(self):
        gds = np.linspace(0.0, 50.0, 200)
        taus = [rheology.hb_stress(g, 50.0, 75.0, 0.75) for g in gds]
        assert all(b >= a for a, b in zip(taus, taus[1:]))

    def test_rejects_negative_shear_rate(self):
        # A solver excursion below zero flow reaches the law as rest.
        scenario = default_scenario()
        y = scenario.initial_state.as_array()
        y[2] = -1e-6
        snap = dict(zip(SNAPSHOT_COLUMNS, evaluate_snapshot(
            y, scenario.parameters, scenario.schedule[0][1])))
        assert snap["gamma_dot"] == 0.0
        assert snap["tau"] == scenario.parameters.tau_y


class TestHydraulicResistance:
    def test_reference_consistency(self):
        # At C = C_ref the resistance equals K_ref (up to the eps shift).
        assert rheology.hydraulic_resistance(
            0.10, 8000.0, 0.10, 2.0, EPS) == pytest.approx(8000.0, rel=1e-6)

    def test_initial_consistency(self):
        C_n = rheology.hydraulic_resistance(0.0909090909, 8000.0, 0.10, 2.0,
                                            EPS)
        assert C_n == pytest.approx(6611.57, abs=0.01)

    def test_quadratic_scaling(self):
        low = rheology.hydraulic_resistance(0.05, 8000.0, 0.10, 2.0, EPS)
        high = rheology.hydraulic_resistance(0.10, 8000.0, 0.10, 2.0, EPS)
        assert high == pytest.approx(4.0 * low, rel=1e-6)

    def test_monotone_in_consistency(self):
        Cs = np.linspace(0.0, 0.5, 100)
        vals = [rheology.hydraulic_resistance(C, 8000.0, 0.10, 2.0, EPS)
                for C in Cs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_consistency_outside_unit_interval(self):
        # Only a negative mass puts C outside [0, 1).
        refused({"initial_state": {"M_fl": -1.0}},
                "initial_state: masses must be non-negative")

    def test_rejects_nonpositive_reference(self):
        refused({"parameters": {"C_ref": 0.0}},
                "parameters: C_ref must lie in (0, 1), got 0.0")


class TestViscousDissipation:
    def test_zero_at_rest(self):
        assert rheology.viscous_dissipation(255.0, 0.0) == 0.0

    def test_product_form(self):
        assert rheology.viscous_dissipation(255.5, 3.82) == pytest.approx(
            255.5 * 3.82, rel=1e-12)

    def test_rejects_nonfinite(self):
        refused({"parameters": {"tau_y": math.inf}},
                "parameters.tau_y: must be finite, got inf")
