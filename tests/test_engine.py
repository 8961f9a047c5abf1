"""Closed-loop integration engine: logging grid, events, protections."""

import hashlib
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import MISSING, fields, replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import blowdown
from blowdown import engine
from blowdown.cli import EXIT_NUMERICAL, EXIT_USAGE, main
from blowdown.engine import (SNAPSHOT_COLUMNS, inputs_at, integrate,
                             integrate_fixed_rk4, assemble_rhs,
                             evaluate_snapshot)
from blowdown.errors import IntegrationError, ParameterError, ScenarioError
from blowdown.scenario_io import (default_scenario, parse_scenario,
                                 trajectory_csv)
from blowdown.smc import lyapunov_rate
from blowdown.state import ExogenousInputs, Parameters, ProcessState


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

    @pytest.mark.parametrize("t_end,log_interval,rows", [
        (1e12, 1e-3, "1,000,000,000,000,004"), (1e308, 5e-324, "inf"),
        (999_996.0, 1.0, "1,000,001"), (1.0, 1e-300, "1e+300")])
    def test_log_rows_bounded_before_the_grid_is_built(
            self, monkeypatch, t_end, log_interval, rows):
        monkeypatch.setattr(engine, "_log_grid", _grid_must_not_be_built)
        scenario = replace(default_scenario(), t_end=t_end,
                           log_interval=log_interval)
        with pytest.raises(ScenarioError, match=re.escape(
                f"gives {rows} log rows, above 1,000,000")):
            scenario.validate()

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_breakpoint_rejected(self, t):
        # Refused in a scenario built in code, as in a document: a NaN
        # entry would otherwise hold its inputs from t = 0.
        scenario = default_scenario()
        u0 = scenario.schedule[0][1]
        scenario = replace(scenario, t_end=3000.0, schedule=[
            (0.0, u0), (t, replace(u0, k_ch=1.0))])
        with pytest.raises(ScenarioError,
                           match=f"breakpoint times must be finite, got {t}"):
            integrate(scenario)

    def test_rtol_below_100_epsilons_refused(self):
        # scipy's LSODA would raise it to 100 epsilons with a warning and
        # run; DOPRI5 would honour it as written. Both methods refuse it.
        with pytest.raises(ScenarioError, match=re.escape(
                "scenario: rtol must be at least 2.220446049250313e-14, "
                "got 1e-15")):
            parse_scenario({"tolerances": {"rtol": 1.0e-15}})
        least = parse_scenario({"tolerances": {
            "rtol": 100 * sys.float_info.epsilon}})
        assert least.rtol == 2.220446049250313e-14

    def test_log_rows_at_the_bound_accepted(self):
        # 999,995 intervals + the row at t = 0 + 4 breakpoints
        replace(default_scenario(), t_end=999_995.0,
                log_interval=1.0).validate()

    def test_no_field_has_a_default(self):
        # Every default lives in the shipped default_scenario.yaml.
        for cls in (Parameters, engine.Scenario):
            for f in fields(cls):
                assert f.default is MISSING, f.name
                assert f.default_factory is MISSING, f.name


def _grid_must_not_be_built(scenario):
    raise AssertionError("the log grid was built")


class TestRhsConsistency:
    def test_mass_derivatives_match_snapshot_flows(self, short_run):
        scenario, _ = short_run
        y = scenario.initial_state.as_array()
        u = scenario.schedule[0][1]
        dy = assemble_rhs(0.0, y, scenario.parameters, u)
        snap = dict(zip(SNAPSHOT_COLUMNS,
                        evaluate_snapshot(y, scenario.parameters, u)))
        assert dy[0] == pytest.approx(-snap["f_s"], rel=1e-12)
        rho_fl = scenario.parameters.rho_fl
        expected = rho_fl * u.f_in - rho_fl * u.f_fl - snap["f_liq"]
        assert dy[1] == pytest.approx(expected, rel=1e-12)

    def test_energy_derivatives_are_powers(self, short_run):
        scenario, _ = short_run
        y = scenario.initial_state.as_array()
        u = scenario.schedule[0][1]
        dy = assemble_rhs(0.0, y, scenario.parameters, u)
        snap = dict(zip(SNAPSHOT_COLUMNS,
                        evaluate_snapshot(y, scenario.parameters, u)))
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
    their counts at zero. A run of fewer than `_BLOCK_MIN_ROWS` rows calls
    `evaluate_snapshot` once a row; a longer one fills its rows by block.
    """

    scenario = replace(default_scenario(), t_end=1150.0)

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

    def test_adaptive(self, counts):
        traj = integrate(self.scenario)
        assert len(traj) == engine._BLOCK_MIN_ROWS - 1
        assert counts["evaluate_snapshot"] == len(traj)
        assert counts["assemble_rhs"] > 0

    def test_fixed_step(self, counts):
        traj = integrate_fixed_rk4(self.scenario, dt=1.0)
        assert counts["evaluate_snapshot"] == len(traj)
        assert counts["assemble_rhs"] == 4 * 1150


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

    #: One breakpoint off the log grid and one at t_end: a row before a
    #: segment end holds the segment's inputs, a row at it the next entry's.
    OFF_GRID = {"schedule": [{"t": 0}, {"t": 1234.5, "k_ch": 0.8},
                             {"t": 5000, "f_in": 2.0e-4}],
                "t_end": 5000, "log_interval": 100}

    @pytest.mark.parametrize("integrator, document", [
        (integrate, {"log_interval": 20.0}),
        (integrate, {"method": "DOPRI5"}),
        (integrate_fixed_rk4, {"t_end": 5000.0}),
        (integrate, OFF_GRID),
        (integrate, {**OFF_GRID, "method": "DOPRI5"}),
        (integrate_fixed_rk4, OFF_GRID)],
        ids=["LSODA", "DOPRI5", "RK4", "off-grid-LSODA", "off-grid-DOPRI5",
             "off-grid-RK4"])
    def test_every_row_rebuilds_from_its_logged_state(self, integrator,
                                                      document):
        # Each row's reconstructions are `evaluate_snapshot` of the row's
        # own protected state and held inputs, column by column, so a
        # reconstruction written under another column's name fails here.
        scenario = parse_scenario(document)
        traj = integrator(scenario)
        p, schedule = scenario.parameters, scenario.schedule
        assert len(traj) > 1
        if "schedule" in document:  # 0, 100, ..., 5000 and 1234.5
            assert len(traj) == 52
            assert traj.column("f_in")[-1] == 2.0e-4
        names = [f.name for f in fields(ExogenousInputs)]
        prev = None
        for values in traj.data.tolist():
            row = dict(zip(engine.TRAJECTORY_COLUMNS, values))
            states = [row[name] for name in engine._STATE_NAMES]
            inputs = ExogenousInputs(**{name: row[name] for name in names})
            assert engine._protect(states, p)[1] == 0
            assert inputs == inputs_at(schedule, row["t"])
            snap = dict(zip(SNAPSHOT_COLUMNS,
                            evaluate_snapshot(states, p, inputs)))
            assert {name: row[name] for name in SNAPSHOT_COLUMNS} == snap
            assert row["dVdt"] == (0.0 if prev is None else lyapunov_rate(
                row["s_q"], prev["s_q"], row["t"] - prev["t"]))
            prev = row


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


#: LSODA clamps the head on the step that ends at the 14,505.747 s
#: breakpoint, and on no step after it.
BREAKPOINT_CLAMP = {
    "initial_state": {"M_s": 4375.443, "M_fl": 8926.212},
    "schedule": [
        {"t": 0.0, "f_fl": 0.0, "f_in": 7.692400807150187e-05,
         "gamma_K": 0.0784840991932206, "k_ch": 0.44227541974548534,
         "q_p_ref": 0.0033057890010668996},
        {"t": 3409.094, "k_ch": 0.903854690559217},
        {"t": 5245.781, "gamma_K": 0.2593799982173345},
        {"t": 14505.747, "gamma_K": 0.702372433040936}],
    "t_end": 20000.0}


class TestProtectionMask:
    """A row carries the protections fired since the previous row, once."""

    @pytest.mark.parametrize("method,log_interval,masked", [
        ("LSODA", 2.0e4, [(14505.747, engine.PROT_H0_BOUND)]),
        ("LSODA", 100.0, [(14500.0, engine.PROT_H0_BOUND),
                          (14505.747, engine.PROT_H0_BOUND)]),
        ("DOPRI5", 2.0e4, []), ("DOPRI5", 100.0, [])])
    def test_clamp_at_a_breakpoint_is_reported_once(self, method,
                                                    log_interval, masked):
        traj = integrate(parse_scenario({**BREAKPOINT_CLAMP, "method": method,
                                         "log_interval": log_interval}))
        rows = zip(traj.times.tolist(),
                   traj.column("protection_mask").astype(int).tolist())
        assert [(t, m) for t, m in rows if m] == masked

    @pytest.mark.parametrize("method", ["DOPRI5", "LSODA"])
    def test_extraction_from_a_dry_vessel(self, monkeypatch, method):
        # Extraction is bounded by the liquor left, like the entrained
        # flow: a dry vessel refills until the inflow (0.11 kg/s) balances
        # both outflows at their bound M_fl / 300 s, with no mass clamp
        # and no restart. Unbounded, each step drove M_fl below 0 and the
        # run crawled into the step budget.
        monkeypatch.setattr(engine, "MAX_STEPS", 2000)
        traj = integrate(parse_scenario({
            "initial_state": {"M_s": 0.0, "M_fl": 0.0},
            "schedule": [{"t": 0.0, "f_fl": 4.0e-4}], "t_end": 5000.0,
            "method": method}))
        assert traj.times[-1] == 5000.0
        assert not traj.column("protection_mask").any()
        limit = engine.TRANSPORT_DEPLETION_TIME
        assert traj.column("M_fl")[-1] == pytest.approx(
            1100.0 * 1.0e-4 * limit / 2, rel=1e-6)


class TestSolverChoices:
    @pytest.mark.parametrize("method", ["DOPRI5"])
    def test_alternative_methods_agree_with_default(self, method, short_run):
        scenario, reference = short_run
        traj = integrate(replace(scenario, method=method))
        for name in ("q_p", "C"):
            a, b = reference.column(name), traj.column(name)
            denom = np.maximum(np.abs(a), 1e-12)
            assert np.max(np.abs(a - b) / denom) < 1e-3

    @pytest.mark.parametrize("method", ["LSODA", "DOPRI5"])
    @pytest.mark.parametrize("ulps", [1, 3])
    def test_segment_a_few_ulp_long(self, method, ulps):
        # t_end just past a breakpoint: LSODA cannot step the last segment.
        t_end = 1000.0 + ulps * math.ulp(1000.0)
        traj = integrate(parse_scenario({
            "schedule": [{"t": 0.0}, {"t": 1000.0, "k_ch": 0.8}],
            "t_end": t_end, "method": method}))
        assert traj.times[-2:].tolist() == [1000.0, t_end]
        assert traj.column("k_ch")[-1] == 0.8

    @pytest.mark.parametrize("method", ["LSODA", "DOPRI5"])
    def test_step_budget_for_every_adaptive_method(self, monkeypatch, method):
        monkeypatch.setattr(engine, "MAX_STEPS", 10)
        scenario = parse_scenario({"t_end": 2000.0, "method": method})
        with pytest.raises(IntegrationError, match=f"^{method} needs more "
                           "than 10 steps to reach t = 2000 s") as failed:
            integrate(scenario)
        assert ("method: LSODA" in str(failed.value)) == (method == "DOPRI5")

    @pytest.mark.parametrize("method", ["LSODA", "DOPRI5"])
    def test_step_budget_is_per_breakpoint_segment(self, monkeypatch, method):
        # 199 segments of 97 s: at most 32 steps each, 866 to 2,809 in all.
        monkeypatch.setattr(engine, "MAX_STEPS", 50)
        traj = integrate(parse_scenario({
            "schedule": [{"t": 97.0 * i, "k_ch": 0.5 + 0.3 * (i % 2)}
                         for i in range(199)],
            "t_end": 2.0e4, "log_interval": 1.0e3, "method": method}))
        assert traj.times[-1] == 2.0e4

    @pytest.mark.parametrize("t_end", [1.0e-200, 1.0e-250, 1.0e-310])
    def test_lsoda_refuses_a_step_that_does_not_advance(self, t_end):
        # On such a horizon scipy's LSODA steps by 0 s and reports success:
        # it took 100,000 such steps, in about 1 s, to fail on the budget.
        from scipy.integrate import LSODA  # noqa: F401 (imported untimed)
        scenario = parse_scenario({"t_end": t_end})
        start = time.perf_counter()
        with pytest.raises(IntegrationError, match=r"^an LSODA step did not "
                           r"advance t; use method: DOPRI5 \(at t = 0 s\)$"):
            integrate(scenario)
        assert time.perf_counter() - start < 0.1
        traj = integrate(replace(scenario, method="DOPRI5"))
        assert traj.times.tolist() == [0.0, t_end]

    def test_fixed_step_grid_is_within_budget(self):
        # 200,000 steps of 0.5 s, 80,000 of them between two breakpoints.
        traj = integrate_fixed_rk4(default_scenario(), dt=0.5)
        assert traj.times[-1] == 1.0e5

    def test_fixed_step_restart_keeps_the_grid(self, monkeypatch):
        # Clamps restart RK4 inside each segment; its steps still end on
        # the grid ta + i (tb - ta) / n of the segment's breakpoints.
        edges, dt = [0.0, 1234.567, 2345.6789, 2.0e4], 333.3
        calls, ends, drive = [], [], engine._drive

        def spy(scenario, segment, method, dt):
            def recorded(ta, tb, y, u):
                calls.append(ta)
                for step in segment(ta, tb, y, u):
                    ends.append(step[0])
                    yield step
            return drive(scenario, recorded, method, dt)
        monkeypatch.setattr(engine, "_drive", spy)
        integrate_fixed_rk4(parse_scenario({
            "initial_state": {"M_s": 1.0, "M_fl": 5.0}, "t_end": edges[-1],
            "schedule": [{"t": t} for t in edges[:-1]]}), dt)
        grid = []
        for ta, tb in zip(edges, edges[1:]):
            n = math.ceil((tb - ta) / dt)
            grid += [ta + i * ((tb - ta) / n) for i in range(1, n)] + [tb]
        assert len(calls) > len(edges) - 1  # restarted after a clamp
        assert ends == grid

    def test_unknown_method_rejected(self, tmp_path):
        for method in ("EULER", "RK45", "BDF"):
            scenario = replace(default_scenario(), method=method)
            with pytest.raises(ScenarioError, match=f"method {method!r}; "
                               "use one of DOPRI5, LSODA$"):
                scenario.validate()
        doc = tmp_path / "bdf.yaml"
        doc.write_text("method: BDF\n")
        assert main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "run")]) == EXIT_USAGE

    def test_stiff_run_matches_the_fixed_step_oracle(self):
        # tau_p = 1 ms makes the flow state stiff: LSODA against RK4 at a
        # step well inside its stability limit, neither clamping. Rows
        # every second read 19 of the 21 from LSODA's interpolant.
        scenario = parse_scenario({"parameters": {"tau_p": 1.0e-3},
                                   "t_end": 20.0, "log_interval": 1.0})
        lsoda = integrate(scenario)
        rk4 = integrate_fixed_rk4(scenario, dt=1e-3)
        for traj in (lsoda, rk4):
            assert not traj.column("protection_mask").any()
        for name in ("q_p", "C", "H0", "M_s"):
            np.testing.assert_allclose(lsoda.column(name), rk4.column(name),
                                       rtol=scenario.rtol, atol=0.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
    def test_fixed_step_refuses_a_bad_dt(self, dt):
        with pytest.raises(ParameterError, match="dt must be positive"):
            integrate_fixed_rk4(replace(default_scenario(), t_end=100.0), dt)

    @pytest.mark.parametrize("t_end,dt", [(5.0e4, 6.1), (3.0e4, 0.7)])
    def test_fixed_step_logs_every_grid_time(self, t_end, dt):
        # 8,197 steps of 6.1 s, or 28,572 of 0.7 s in the first segment:
        # their summed times drift further from the grid than an absolute
        # 1e-9 s, which used to drop the row at t_end.
        scenario = parse_scenario({"t_end": t_end, "log_interval": 1000.0})
        traj = integrate_fixed_rk4(scenario, dt=dt)
        assert traj.times.tolist() == engine._log_grid(scenario)

    def test_fixed_step_reports_a_clamp_once(self):
        # The first 280 s step overshoots q_p below 0 and logs the rows at
        # 100 and 200 s: only the first of them carries the clamp.
        scenario = parse_scenario({
            "initial_state": {"M_s": 1.0, "M_fl": 5.0}, "t_end": 3.0e4,
            "log_interval": 100.0})
        traj = integrate_fixed_rk4(scenario, dt=280.0)
        mask = traj.column("protection_mask")
        assert traj.times[mask != 0].tolist() == [100.0]
        assert mask[1] == engine.PROT_QP_BOUND

    def test_fixed_step_reference_tracks_adaptive(self, short_run):
        scenario, reference = short_run
        traj = integrate_fixed_rk4(scenario, dt=1.0)
        np.testing.assert_allclose(traj.times, reference.times)
        np.testing.assert_allclose(traj.column("q_p"),
                                   reference.column("q_p"), rtol=1e-4)


class TestDopri5:
    """The owned Dormand-Prince 5(4) stepper, `method: DOPRI5`."""

    @pytest.mark.parametrize("start,behaviour", [
        ({}, "tracks"), ({"M_s": 300.0, "M_fl": 3000.0}, "drains"),
        ({"M_s": 4000.0, "M_fl": 6000.0}, "guards")])
    def test_matches_tight_lsoda(self, start, behaviour):
        doc = {"initial_state": start, "t_end": 2.0e4}
        traj = integrate(parse_scenario({**doc, "method": "DOPRI5"}))
        reference = integrate(parse_scenario(
            {**doc, "method": "LSODA",
             "tolerances": {"rtol": 1e-11, "atol": 1e-14}}))
        q, q_ref = traj.column("q_p"), reference.column("q_p")
        assert abs(q[-1] - q_ref[-1]) <= 1e-4 * max(abs(q_ref[-1]), 1e-3)
        assert abs(traj.column("C")[-1] - reference.column("C")[-1]) <= 1e-5
        if behaviour == "tracks":  # every 50 s row: the continuous extension
            assert np.all(np.abs(q - q_ref)
                          <= 1e-4 * np.maximum(np.abs(q_ref), 1e-3))
        elif behaviour == "drains":
            total = traj.column("M_s") + traj.column("M_fl")
            assert total.min() < 100.0
        else:  # C(0) = 0.4 > C_max
            assert traj.column("sigma_C").min() < 0.5

    def test_generated_attempt_matches_a_loop_over_the_tableau(self):
        # Dormand & Prince (1980), written out here as exact fractions.
        a = [[], [F(1, 5)], [F(3, 40), F(9, 40)],
             [F(44, 45), F(-56, 15), F(32, 9)],
             [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
             [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176),
              F(-5103, 18656)],
             [F(35, 384), 0, F(500, 1113), F(125, 192), F(-2187, 6784),
              F(11, 84)]]
        c = [0, F(1, 5), F(3, 10), F(4, 5), F(8, 9), 1, 1]
        b4 = [F(5179, 57600), 0, F(7571, 16695), F(393, 640),
              F(-92097, 339200), F(187, 2100), F(1, 40)]
        scenario = default_scenario()
        p, u = scenario.parameters, scenario.schedule[0][1]
        y = scenario.initial_state.as_array()
        t, h, rtol, atol = 10.0, 37.0, 1e-6, 1e-9
        k = [assemble_rhs(t, y, p, u)]
        for i in range(1, 7):
            z = [v + h * sum(float(w) * kj[n] for w, kj in zip(a[i], k))
                 for n, v in enumerate(y)]
            k.append(assemble_rhs(t + float(c[i]) * h, z, p, u))
        y4 = [v + h * sum(float(w) * kj[n] for w, kj in zip(b4, k))
              for n, v in enumerate(y)]
        err = math.sqrt(sum(((zn - y4n) / (atol + rtol * max(abs(v), abs(zn))))
                            ** 2 for v, zn, y4n in zip(y, z, y4)) / len(y))
        y_new, err_new, ks = engine._dopri5_attempt()(
            assemble_rhs, p, u, t, h, y, k[0], atol, rtol)
        np.testing.assert_allclose(y_new, z, rtol=1e-14)
        np.testing.assert_allclose(ks, k, rtol=1e-14)
        assert err_new == pytest.approx(err, rel=1e-6)
        assert 0.01 < err < 100.0  # a step that the controller weighs

    def test_step_cap_points_to_stiff_methods(self, monkeypatch, tmp_path):
        monkeypatch.setattr(engine, "MAX_STEPS", 2000)
        stiff = {"parameters": {"tau_p": 1.0e-3}}
        with pytest.raises(IntegrationError, match="DOPRI5 needs more than "
                           "2000 steps.*method: LSODA \\(at t"):
            integrate(parse_scenario({**stiff, "method": "DOPRI5"}))
        doc = tmp_path / "stiff.yaml"
        doc.write_text("parameters:\n  tau_p: 1.0e-3\nmethod: DOPRI5\n")
        assert main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "run")]) == EXIT_NUMERICAL
        traj = integrate(parse_scenario({**stiff, "method": "LSODA"}))
        assert traj.times[-1] == 1.0e5

    def test_clamp_on_a_segment_end(self):
        # C(0) = 0.4 > C_max: the guard drives q_p below 0 in every step,
        # the last one of the run included.
        traj = integrate(parse_scenario({
            "initial_state": {"M_s": 4000.0, "M_fl": 6000.0},
            "t_end": 1000.0, "method": "DOPRI5"}))
        mask = traj.column("protection_mask").astype(int)
        assert mask[-1] & engine.PROT_QP_BOUND
        assert np.all(traj.column("q_p") >= 0.0)


class TestReferenceBytes:
    """The CSV bytes of reference runs, pinned by SHA-256.

    Measured with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on x86-64: the
    bytes depend on the platform's floating-point libraries and on scipy's
    LSODA, so another platform may print other digits.
    """

    @pytest.mark.parametrize("document, digest", [
        ({},
         "82efb43cf9581a2d9f20e618ec48a518fba0bf186509ce1ba88c11811ac86c31"),
        ({"log_interval": 20},
         "9cb3b0b7f679ae8e275bfad980f7cefba95cd734aa40ffffcdae7bf97ca28f8e"),
        ({"initial_state": {"M_s": 1, "M_fl": 5}},
         "2fcf2ce7bd6998b13067f996d94c6538a80954f50ec89d175f5e5a019ccdf869"),
        ({"initial_state": {"M_s": 9000, "M_fl": 12000}},
         "c3beec3302d765434f882c48c11b6581a45448fd9edcaedbaac6bba247013a81"),
        ({"t_end": 0},
         "28abc11ae2ec6b1eee1af2c456fa204a634347f3a02211020e982b89666fa5e6"),
        ({"method": "DOPRI5"},
         "e0f6611f1883bacc2ee791488212ea4048734f73edca86630c77ed121824c314"),
    ], ids=["default", "log_interval_20", "near_empty", "loaded", "t_end_0",
            "DOPRI5"])
    def test_integrate(self, document, digest):
        csv = trajectory_csv(integrate(parse_scenario(document)))
        assert hashlib.sha256(csv.encode()).hexdigest() == digest

    def test_fixed_rk4(self):
        csv = trajectory_csv(integrate_fixed_rk4(
            parse_scenario({"t_end": 5000}), dt=1.0))
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "464722a6c61840882ee81610c11c3554aa81d87b87ae98410c7fe1e6b3776ede")


class TestRk4Relations:
    """Exact relations between fixed-step RK4 runs of the default scenario
    cut to 2e4 s: each changes the run in a way that, on the same step
    grid and with the same inputs held, must leave every row's floats the
    same."""

    T_CUT, T_END = 1.0e4, 2.0e4

    @pytest.fixture(scope="class")
    def cut(self):
        scenario = replace(default_scenario(), t_end=self.T_END)
        return scenario, integrate_fixed_rk4(scenario, dt=1.0)

    def test_breakpoint_repeating_held_inputs(self, cut):
        scenario, reference = cut
        first, *rest = scenario.schedule
        schedule = [first, (self.T_CUT, inputs_at(scenario.schedule,
                                                  self.T_CUT)), *rest]
        traj = integrate_fixed_rk4(replace(scenario, schedule=schedule),
                                   dt=1.0)
        assert traj.data.tobytes() == reference.data.tobytes()
        assert trajectory_csv(traj) == trajectory_csv(reference)

    def test_resume_from_a_logged_row(self, cut):
        scenario, reference = cut
        at = int(np.flatnonzero(reference.times == self.T_CUT)[0])
        row = reference.data[at]
        start = ProcessState(*(
            float(row[engine._COLUMN_INDEX[name]])
            for name in engine._STATE_NAMES))
        schedule = [(0.0, inputs_at(scenario.schedule, self.T_CUT))] + [
            (t - self.T_CUT, u) for t, u in scenario.schedule
            if t > self.T_CUT]
        resumed = integrate_fixed_rk4(replace(
            scenario, initial_state=start, schedule=schedule,
            t_end=self.T_END - self.T_CUT), dt=1.0)
        later = reference.data[at:]
        assert resumed.data.shape == later.shape == (201, len(
            engine.TRAJECTORY_COLUMNS))
        assert np.array_equal(resumed.times, later[:, 0] - self.T_CUT)
        dvdt = engine._COLUMN_INDEX["dVdt"]  # the first row has none before
        for i, name in enumerate(engine.TRAJECTORY_COLUMNS):
            if name == "t":
                continue
            rows = slice(1, None) if i == dvdt else slice(None)
            assert (resumed.data[rows, i].tobytes()
                    == later[rows, i].tobytes()), name


def imported_modules(script: str):
    """The modules a fresh interpreter imports to run `script`."""
    src = str(Path(blowdown.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", script],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


class TestScipyImport:
    """Only the LSODA method imports scipy; DOPRI5 never does."""

    @staticmethod
    def imports_of_a_run(method_key: str):
        return imported_modules(
            "import blowdown, blowdown.cli\n"
            "from blowdown import integrate, parse_scenario\n"
            "traj = integrate(parse_scenario({'t_end': 2000.0"
            f"{method_key}}}))\n"
            "assert traj.times[-1] == 2000.0\n")

    def test_dopri5_never_imports_scipy(self):
        modules = self.imports_of_a_run(", 'method': 'DOPRI5'")
        assert "blowdown.cli" in modules
        assert not {m for m in modules if m.split(".")[0] == "scipy"}

    def test_lsoda_imports_scipy(self):
        assert "scipy.integrate" in self.imports_of_a_run(
            ", 'method': 'LSODA'")


def test_cli_imports_only_what_simulate_needs():
    # `check` imports the acceptance suite and `sweep` the process pool
    # (which loads logging) when they run, not every `simulate`.
    modules = imported_modules("import blowdown.cli\n")
    assert "blowdown.cli" in modules
    assert {"blowdown.acceptance", "concurrent.futures"} & modules == set()
