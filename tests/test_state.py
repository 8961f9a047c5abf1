"""Domain types and mixture reconstructions."""

import math

import pytest

from blowdown.errors import ParameterError, StateValidityError
from blowdown.state import (ExogenousInputs, ProcessState, consistency,
                            mixture_density, phase_volumes)
from defaults import parameters, refused

EPS = 1e-9  # the shipped Parameters.eps


class TestConsistency:
    def test_reference_masses(self):
        assert consistency(2500.0, 25000.0, 1e-9) == pytest.approx(
            0.0909090909, abs=1e-9)

    def test_empty_vessel_is_regularized(self):
        assert consistency(0.0, 0.0, EPS) == 0.0

    def test_pure_fiber_tends_to_one(self):
        assert consistency(1000.0, 0.0, EPS) == pytest.approx(1.0, abs=1e-9)

    def test_bounded_on_grid(self):
        for M_s in (0.0, 1.0, 500.0, 2500.0):
            for M_fl in (0.0, 1.0, 500.0, 25000.0):
                C = consistency(M_s, M_fl, EPS)
                assert 0.0 <= C < 1.0

    def test_rejects_negative_mass(self):
        # consistency(-1e-9, 0.0, 1e-9) would divide by zero: the document's
        # masses are validated before the start state is derived from them.
        refused({"initial_state": {"M_s": -1.0e-9, "M_fl": 0.0}},
                "initial_state: masses must be non-negative")

    def test_rejects_nonfinite_mass(self):
        refused({"initial_state": {"M_s": math.nan}},
                "initial_state.M_s: must be finite, got nan")

    def test_rejects_bad_eps(self):
        refused({"parameters": {"eps": 0.0}},
                "parameters: eps must be positive")


class TestMixtureDensity:
    def test_reference_masses(self):
        rho = mixture_density(2500.0, 25000.0, 1050.0, 1100.0, EPS)
        assert rho == pytest.approx(1095.26, abs=0.01)

    def test_harmonic_mean_bound(self):
        for M_s in (1.0, 100.0, 2500.0):
            for M_fl in (1.0, 100.0, 25000.0):
                rho = mixture_density(M_s, M_fl, 1050.0, 1100.0, EPS)
                assert 1050.0 <= rho <= 1100.0

    def test_single_phase_limits(self):
        assert mixture_density(1000.0, 0.0, 1050.0, 1100.0,
                               EPS) == pytest.approx(1050.0, rel=1e-8)
        assert mixture_density(0.0, 1000.0, 1050.0, 1100.0,
                               EPS) == pytest.approx(1100.0, rel=1e-8)

    def test_rejects_nonpositive_density(self):
        refused({"parameters": {"rho_s": 0.0}},
                "parameters: phase densities must be positive")


class TestPhaseVolumes:
    def test_reference_masses(self):
        V_s, V_fl, V, M_total = phase_volumes(2500.0, 25000.0, 1050.0,
                                              1100.0, 0.0)
        assert V_s == pytest.approx(2.380952, abs=1e-5)
        assert V_fl == pytest.approx(22.727273, abs=1e-5)
        assert V == pytest.approx(25.108225, abs=1e-5)
        assert M_total == 27500.0

    def test_moisture_correction_inflates_solid_volume(self):
        V_s_dry, _, _, _ = phase_volumes(1000.0, 0.0, 1050.0, 1100.0, w=0.0)
        V_s_wet, _, _, _ = phase_volumes(1000.0, 0.0, 1050.0, 1100.0, w=0.5)
        assert V_s_wet == pytest.approx(2.0 * V_s_dry, rel=1e-12)

    def test_rejects_w_of_one(self):
        refused({"parameters": {"w": 1.0}},
                "parameters: w must lie in [0, 1), got 1.0")


class TestParameters:
    def test_defaults_validate(self):
        parameters().validate()

    @pytest.mark.parametrize("field,value", [
        ("n", -1.0), ("n", 0.0), ("rho_s", 0.0), ("eps", 0.0),
        ("tau_p", 0.0), ("tau_H", -5.0), ("C_ref", 1.5), ("C_max", 0.0),
        ("phi_q", 0.0), ("k_smc", -1.0), ("eta_pm", 0.0), ("eta_pm", 1.5),
        ("D_pipe", 0.0), ("alpha_sig", 0.0), ("w", 1.0),
    ])
    def test_bad_value_rejected(self, field, value):
        params = parameters(**{field: value})
        with pytest.raises(ParameterError):
            params.validate()

    def test_zero_switching_gain_is_allowed(self):
        parameters(k_smc=0.0).validate()

    def test_nonfinite_rejected_by_name(self):
        with pytest.raises(ParameterError, match="tau_y"):
            parameters(tau_y=math.inf).validate()


class TestProcessState:
    def test_roundtrip_through_array(self):
        state = ProcessState(M_s=2500.0, M_fl=25000.0, q_p=0.003,
                             xi_eq=1.5, H0=100.0, q_p_cmd=0.003,
                             E_h=10.0, E_useful=1.0, E_elec=15.0)
        assert ProcessState.from_array(state.as_array()) == state

    def test_rejects_negative_mass(self):
        with pytest.raises(StateValidityError):
            ProcessState(M_s=-1.0, M_fl=0.0).validate(parameters())

    def test_rejects_flow_above_bound(self):
        with pytest.raises(StateValidityError):
            ProcessState(M_s=1.0, M_fl=1.0, q_p=0.005).validate(parameters())

    def test_rejects_head_above_bound(self):
        with pytest.raises(StateValidityError):
            ProcessState(M_s=1.0, M_fl=1.0, H0=121.0).validate(parameters())

    @pytest.mark.parametrize("q_p_cmd", [-1e-4, 0.005])
    def test_rejects_reference_outside_flow_bounds(self, q_p_cmd):
        with pytest.raises(StateValidityError, match="q_p_cmd"):
            ProcessState(M_s=1.0, M_fl=1.0,
                         q_p_cmd=q_p_cmd).validate(parameters())


class TestExogenousInputs:
    def test_defaults_validate(self):
        ExogenousInputs().validate(parameters())

    def test_rejects_channeling_above_one(self):
        with pytest.raises(StateValidityError):
            ExogenousInputs(k_ch=1.1).validate(parameters())

    def test_rejects_reference_above_flow_bound(self):
        with pytest.raises(StateValidityError):
            ExogenousInputs(q_p_ref=0.005).validate(parameters())
