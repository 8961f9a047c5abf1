"""Closed-loop integration engine: logging grid, events, protections."""

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from blowdown import engine
from blowdown.engine import (inputs_at, integrate, integrate_fixed_rk4,
                             assemble_rhs, evaluate_snapshot)
from blowdown.errors import ScenarioError
from blowdown.scenario_io import default_scenario, parse_scenario
from blowdown.state import ExogenousInputs, Parameters


@pytest.fixture(scope="module")
def short_run():
    scenario = replace(default_scenario(), t_end=2000.0)
    return scenario, integrate(scenario)


class TestInputsAt:
    def test_left_closed_hold(self):
        schedule = [(0.0, ExogenousInputs(k_ch=0.5)),
                    (100.0, ExogenousInputs(k_ch=0.8))]
        assert inputs_at(schedule, 0.0).k_ch == 0.5
        assert inputs_at(schedule, 99.999).k_ch == 0.5
        assert inputs_at(schedule, 100.0).k_ch == 0.8
        assert inputs_at(schedule, 1e9).k_ch == 0.8

    def test_before_first_breakpoint_raises(self):
        schedule = [(10.0, ExogenousInputs(k_ch=0.5))]
        with pytest.raises(ScenarioError, match="precedes"):
            inputs_at(schedule, 5.0)

    def test_lookup_reads_logarithmically_many_breakpoints(self):
        n = 10_000
        schedule = CountingSequence(
            [(float(i), ExogenousInputs(k_ch=i / n)) for i in range(n)])
        bound = 2 * math.ceil(math.log2(n)) + 2
        for t in (0.0, 0.5, 4321.0, 4321.5, n - 1.0, 1e9):
            schedule.reads = 0
            assert inputs_at(schedule, t).k_ch == min(math.floor(t), n - 1) / n
            assert schedule.reads <= bound


class CountingSequence(Sequence):
    """A read-only sequence that counts the elements read from it."""

    def __init__(self, items):
        self.items = items
        self.reads = 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]


class TestScenarioValidate:
    @pytest.mark.parametrize("field,value", [
        ("t_end", math.nan), ("t_end", math.inf), ("log_interval", math.nan),
        ("log_interval", math.inf), ("rtol", math.nan), ("atol", math.inf)])
    def test_non_finite_scalar_rejected(self, field, value):
        scenario = replace(default_scenario(), **{field: value})
        with pytest.raises(ScenarioError, match=f"{field} must be finite"):
            scenario.validate()

    def test_no_field_has_a_default(self):
        # Every default lives in the shipped default_scenario.yaml.
        for cls in (Parameters, engine.Scenario):
            for f in fields(cls):
                assert f.default is MISSING, f.name
                assert f.default_factory is MISSING, f.name


class TestRhsConsistency:
    def test_mass_derivatives_match_snapshot_flows(self, short_run):
        scenario, _ = short_run
        y = scenario.initial_state.as_array()
        u = scenario.schedule[0][1]
        dy = assemble_rhs(0.0, y, scenario.parameters, u)
        snap = evaluate_snapshot(y, scenario.parameters, u)
        assert dy[0] == pytest.approx(-snap["f_s"], rel=1e-12)
        rho_fl = scenario.parameters.rho_fl
        expected = rho_fl * u.f_in - rho_fl * u.f_fl - snap["f_liq"]
        assert dy[1] == pytest.approx(expected, rel=1e-12)

    def test_energy_derivatives_are_powers(self, short_run):
        scenario, _ = short_run
        y = scenario.initial_state.as_array()
        u = scenario.schedule[0][1]
        dy = assemble_rhs(0.0, y, scenario.parameters, u)
        snap = evaluate_snapshot(y, scenario.parameters, u)
        assert dy[6] == pytest.approx(snap["P_h"], rel=1e-12)
        assert dy[7] == pytest.approx(snap["P_useful"], rel=1e-12)
        assert dy[8] == pytest.approx(snap["P_elec"], rel=1e-12)

    def test_on_manifold_start(self, short_run):
        _, traj = short_run
        assert abs(traj.column("s_q")[0]) < 1e-12
        assert abs(traj.column("e_q")[0]) < 1e-12


class TestKernelLookup:
    """Both integrators call the kernel through the `engine` attributes.

    Tracing and profiling wrap `engine.assemble_rhs` and
    `engine.evaluate_snapshot`; a reference bound elsewhere would leave
    their counts at zero.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()

        def counting(name):
            original = getattr(engine, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(engine, name, wrapper)

        counting("assemble_rhs")
        counting("evaluate_snapshot")
        return counts

    def test_adaptive(self, short_run, counts):
        scenario, _ = short_run
        traj = integrate(scenario)
        assert counts["evaluate_snapshot"] == len(traj)
        assert counts["assemble_rhs"] > 0

    def test_fixed_step(self, short_run, counts):
        scenario, _ = short_run
        traj = integrate_fixed_rk4(scenario, dt=1.0)
        assert counts["evaluate_snapshot"] == len(traj)
        assert counts["assemble_rhs"] == 4 * 2000


class TestLoggingGrid:
    def test_regular_sampling(self, short_run):
        _, traj = short_run
        t = traj.times
        assert t[0] == 0.0 and t[-1] == 2000.0
        np.testing.assert_allclose(np.diff(t), 50.0)

    def test_event_rows_present(self):
        # A breakpoint off the regular grid must still be logged exactly.
        scenario = parse_scenario({
            "t_end": 500.0,
            "schedule": [{"t": 0.0}, {"t": 125.0, "k_ch": 0.9}]})
        traj = integrate(scenario)
        t = traj.times
        assert 125.0 in t
        idx = int(np.flatnonzero(t == 125.0)[0])
        assert traj.column("k_ch")[idx] == 0.9
        assert traj.column("k_ch")[idx - 1] == 0.5

    def test_default_run_contains_event_rows(self):
        traj = integrate(replace(default_scenario(), t_end=2.1e4))
        assert 2.0e4 in traj.times

    def test_logging_only_observes(self):
        # The log grid changes which instants are read off the solver, never
        # its steps: rows at shared times are bit-identical except dV/dt
        # (against the previous row) and the protection mask, which holds
        # the protections fired since the previous row.
        scenario = default_scenario()
        base = integrate(scenario)
        keep = [i for i, name in enumerate(engine.TRAJECTORY_COLUMNS)
                if name not in ("dVdt", "protection_mask")]
        for log_interval in (20.0, scenario.t_end):
            other = integrate(replace(scenario, log_interval=log_interval))
            _, i, j = np.intersect1d(base.times, other.times,
                                     return_indices=True)
            assert len(i) == {20.0: 1001, scenario.t_end: 5}[log_interval]
            assert np.array_equal(base.data[i][:, keep],
                                  other.data[j][:, keep])
        # The t_end grid is a subset of the base grid: each of its masks is
        # the union of the base masks since its previous row.
        fired = np.bitwise_or.reduceat(
            base.column("protection_mask").astype(int), np.r_[0, i[:-1] + 1])
        assert np.array_equal(fired, other.column("protection_mask"))

    def test_zero_horizon_single_record(self):
        scenario = parse_scenario({"t_end": 0.0})
        traj = integrate(scenario)
        assert len(traj) == 1
        assert traj.times[0] == 0.0


class TestTrajectoryColumns:
    def test_column_resolution_order(self, short_run):
        _, traj = short_run
        assert traj.column("M_s").shape == traj.times.shape
        assert traj.column("sigma_C").max() <= 1.0
        assert traj.column("k_ch").min() == 0.5

    def test_unknown_column_raises(self, short_run):
        _, traj = short_run
        with pytest.raises(KeyError):
            traj.column("does_not_exist")

    def test_first_record_has_zero_dVdt(self, short_run):
        _, traj = short_run
        assert traj.column("dVdt")[0] == 0.0


class TestBounds:
    def test_states_respect_hard_bounds(self, short_run):
        scenario, traj = short_run
        p = scenario.parameters
        assert np.all(traj.column("q_p") >= 0.0)
        assert np.all(traj.column("q_p") <= p.q_p_max)
        assert np.all(traj.column("H0") >= 0.0)
        assert np.all(traj.column("H0") <= p.H0_max)
        assert np.all(traj.column("M_s") >= 0.0)
        assert np.all(traj.column("M_fl") >= 0.0)

    def test_near_empty_vessel_stays_finite(self):
        scenario = parse_scenario({
            "initial_state": {"M_s": 1.0, "M_fl": 5.0},
            "t_end": 5000.0})
        traj = integrate(scenario)
        for name in ("M_s", "M_fl", "q_p", "H0", "C", "s_q"):
            assert np.all(np.isfinite(traj.column(name)))

    def test_transport_flows_bounded_by_inventory(self, short_run):
        scenario, traj = short_run
        limit = engine.TRANSPORT_DEPLETION_TIME
        assert np.all(traj.column("f_s")
                      <= traj.column("M_s") / limit + 1e-12)
        assert np.all(traj.column("f_liq")
                      <= traj.column("M_fl") / limit + 1e-12)


class TestSolverChoices:
    @pytest.mark.parametrize("method", ["BDF", "RK45"])
    def test_alternative_methods_agree_with_default(self, method, short_run):
        scenario, reference = short_run
        traj = integrate(replace(scenario, method=method))
        for name in ("q_p", "C"):
            a, b = reference.column(name), traj.column(name)
            denom = np.maximum(np.abs(a), 1e-12)
            assert np.max(np.abs(a - b) / denom) < 1e-3

    def test_unknown_method_rejected(self):
        scenario = replace(default_scenario(), method="EULER")
        with pytest.raises(ScenarioError):
            scenario.validate()

    def test_fixed_step_reference_tracks_adaptive(self, short_run):
        scenario, reference = short_run
        traj = integrate_fixed_rk4(scenario, dt=1.0)
        np.testing.assert_allclose(traj.times, reference.times)
        np.testing.assert_allclose(traj.column("q_p"),
                                   reference.column("q_p"), rtol=1e-4)
