"""Scenario documents, CSV serialization, determinism."""

from dataclasses import fields, replace
from importlib.resources import files

import numpy as np
import pytest

from blowdown.engine import PROT_MS_FLOOR, evaluate_snapshot, integrate
from blowdown.errors import (InvariantViolation, ScenarioSyntaxError,
                             UnknownKeyError)
from blowdown.scenario_io import (MANIFOLD_COLUMNS, TRAJECTORY_COLUMNS,
                                  default_scenario, format_value,
                                  load_scenario, parse_scenario,
                                  read_trajectory, trajectory_csv,
                                  write_manifold, write_trajectory)
from blowdown.state import ExogenousInputs, ProcessState


class TestParsing:
    def test_empty_document_gives_defaults(self):
        scenario = parse_scenario({})
        p = scenario.parameters
        assert p.rho_s == 1050.0 and p.rho_fl == 1100.0
        assert p.k_smc == 3.0 and p.phi_q == 5e-4
        assert scenario.t_end == 1e5 and scenario.log_interval == 50.0
        assert scenario.initial_state.M_s == 2500.0
        assert scenario.initial_state.M_fl == 25000.0

    def test_empty_yaml_string_gives_defaults(self):
        assert parse_scenario("") == parse_scenario({})

    def test_shipped_file_equals_empty_document(self):
        text = files("blowdown").joinpath("default_scenario.yaml").read_text()
        assert parse_scenario(text) == parse_scenario({})

    def test_parameter_override(self):
        scenario = parse_scenario({"parameters": {"k_smc": 3}})
        assert scenario.parameters.k_smc == 3.0

    def test_negative_flow_index_names_field(self):
        with pytest.raises(InvariantViolation, match="n"):
            parse_scenario({"parameters": {"n": -1}})

    def test_unknown_top_level_key(self):
        with pytest.raises(UnknownKeyError, match="horizon"):
            parse_scenario({"horizon": 100.0})

    def test_unknown_parameter_key_is_path_qualified(self):
        with pytest.raises(UnknownKeyError, match="parameters.k_smcc"):
            parse_scenario({"parameters": {"k_smcc": 3}})
        # L_eff entered no equation and was removed from the schema.
        with pytest.raises(UnknownKeyError, match="parameters.L_eff"):
            parse_scenario({"parameters": {"L_eff": 20.0}})

    def test_malformed_yaml(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("parameters: [unclosed")

    def test_non_mapping_document(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("- just\n- a\n- list\n")

    def test_non_numeric_value(self):
        with pytest.raises(InvariantViolation, match="parameters.n"):
            parse_scenario({"parameters": {"n": "fast"}})

    def test_load_scenario_round_trip(self, tmp_path):
        doc = tmp_path / "scn.yaml"
        doc.write_text("t_end: 1234.0\nparameters:\n  k_smc: 2.5\n")
        scenario = load_scenario(doc)
        assert scenario.t_end == 1234.0
        assert scenario.parameters.k_smc == 2.5


class TestSchedule:
    def test_default_disturbance_script(self):
        schedule = parse_scenario({}).schedule
        times = [t for t, _ in schedule]
        assert times == [0.0, 2.0e4, 5.0e4, 6.0e4]
        assert schedule[0][1].k_ch == 0.5
        assert schedule[1][1].k_ch == 0.8
        assert schedule[2][1].gamma_K == 0.5
        assert schedule[3][1].f_in == 1.5e-4

    def test_inheritance_between_breakpoints(self):
        schedule = parse_scenario({}).schedule
        # The t = 5e4 entry only restates gamma_K; k_ch must carry over.
        assert schedule[2][1].k_ch == 0.8
        assert schedule[3][1].gamma_K == 0.5

    def test_schedule_entry_invariants(self):
        with pytest.raises(InvariantViolation, match=r"schedule\[1\]"):
            parse_scenario({"schedule": [{"t": 0.0}, {"t": 10.0, "k_ch": 2.0}]})

    def test_missing_breakpoint_time(self):
        with pytest.raises(InvariantViolation, match=r"schedule\[0\]"):
            parse_scenario({"schedule": [{"k_ch": 0.5}]})

    def test_decreasing_breakpoints_rejected(self):
        with pytest.raises(InvariantViolation):
            parse_scenario({"schedule": [{"t": 0.0}, {"t": 50.0},
                                         {"t": 10.0}]})


class TestInitialStateResolution:
    def test_on_manifold_defaults(self):
        scenario = parse_scenario({})
        state = scenario.initial_state
        assert state.q_p == state.q_p_cmd
        assert state.q_p == pytest.approx(0.003, rel=1e-6)
        assert state.xi_eq == 0.0

    def test_explicit_override_wins(self):
        scenario = parse_scenario({"initial_state": {"q_p": 0.001}})
        assert scenario.initial_state.q_p == 0.001

    def test_out_of_range_initial_state_rejected(self):
        with pytest.raises(InvariantViolation):
            parse_scenario({"initial_state": {"q_p": 0.01}})

    @pytest.mark.parametrize("masses", [
        {}, {"M_s": 0.0, "M_fl": 0.0}, {"M_s": 1e-7, "M_fl": 0.0}])
    def test_head_starts_at_engine_equivalent_head(self, masses):
        # The engine's density clamp applies to the starting head too, so a
        # nearly empty vessel starts at the head the controller commands.
        scenario = parse_scenario({"initial_state": masses})
        p, state = scenario.parameters, scenario.initial_state
        snap = evaluate_snapshot(state.as_array(), p, scenario.schedule[0][1])
        assert state.H0 == min(snap["H_eq"], p.H0_max)

    def test_default_head(self):
        H0 = parse_scenario({}).initial_state.H0
        assert H0 == pytest.approx(95.7037, abs=1e-4)


class TestFormatValue:
    def test_nine_significant_digits(self):
        assert format_value(0.0909090909090909) == "0.0909090909"
        assert format_value(1095.2586206896551) == "1095.25862"

    def test_zero_and_integers(self):
        assert format_value(0.0) == "0"
        assert format_value(7) == "7"
        assert format_value(True) == "1"

    def test_no_scientific_notation(self):
        assert "e" not in format_value(1.23456789e-7).lower()
        assert "e" not in format_value(1.23456789e7).lower()


@pytest.fixture(scope="module")
def short_traj():
    return integrate(replace(default_scenario(), t_end=500.0))


class TestTrajectoryCsv:
    def test_header_and_row_count(self, short_traj):
        lines = trajectory_csv(short_traj).splitlines()
        assert lines[0].split(",") == TRAJECTORY_COLUMNS
        assert len(lines) == 1 + len(short_traj)

    def test_final_newline(self, short_traj):
        assert trajectory_csv(short_traj).endswith("\n")

    def test_zero_horizon_single_row(self):
        traj = integrate(parse_scenario({"t_end": 0.0}))
        lines = trajectory_csv(traj).splitlines()
        assert len(lines) == 2

    def test_round_trip_bit_equal(self, short_traj, tmp_path):
        target = tmp_path / "traj.csv"
        write_trajectory(short_traj, target)
        cols = read_trajectory(target)
        assert list(cols) == TRAJECTORY_COLUMNS
        # Re-serializing the parsed values reproduces the same text.
        rows = zip(*(cols[name] for name in TRAJECTORY_COLUMNS))
        again = "".join(",".join(map(format_value, row)) + "\n"
                        for row in rows)
        assert ",".join(TRAJECTORY_COLUMNS) + "\n" + again == \
            trajectory_csv(short_traj)

    def test_row_schema_partitions_columns(self, short_traj):
        scenario = default_scenario()
        snap = evaluate_snapshot(scenario.initial_state.as_array(),
                                 scenario.parameters, scenario.schedule[0][1])
        states = {f.name for f in fields(ProcessState)}
        inputs = {f.name for f in fields(ExogenousInputs)}
        groups = [set(snap), states, inputs, {"t", "dVdt", "protection_mask"}]
        assert len(states) == 9 and len(inputs) == 5
        assert sum(map(len, groups)) == len(set().union(*groups))
        assert set().union(*groups) == set(TRAJECTORY_COLUMNS)
        assert short_traj.data.shape == (len(short_traj),
                                         len(TRAJECTORY_COLUMNS))

    def test_protection_mask_prints_as_integer(self):
        traj = integrate(default_scenario())
        mask = traj.column("protection_mask").astype(int)
        fired = np.flatnonzero(mask & PROT_MS_FLOOR)
        assert len(fired) == 10 and traj.times[fired[0]] == 26800.0
        rows = trajectory_csv(traj).splitlines()[1:]
        assert [rows[i].rsplit(",", 1)[1] for i in fired] == ["1"] * 10

    def test_determinism_across_runs(self):
        scenario = replace(default_scenario(), t_end=500.0)
        first = trajectory_csv(integrate(scenario))
        second = trajectory_csv(integrate(scenario))
        assert first == second


class TestManifoldCsv:
    def test_columns_and_origin(self, tmp_path):
        from blowdown import smc
        grids = smc.manifold_grid((0.0, 1e-3), (0.0, 10.0), 1e-4, steps=5)
        target = tmp_path / "manifold.csv"
        write_manifold(*grids, target)
        lines = target.read_text().splitlines()
        assert lines[0].split(",") == MANIFOLD_COLUMNS
        assert lines[1] == "0,0,0"
        assert len(lines) == 1 + 25
