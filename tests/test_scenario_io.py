"""Scenario documents, CSV serialization, determinism."""

import copy
from dataclasses import fields, replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowdown import scenario_io
from blowdown.engine import (PROT_MS_FLOOR, SNAPSHOT_COLUMNS,
                             evaluate_snapshot, integrate,
                             integrate_fixed_rk4)
from blowdown.errors import (InvariantViolation, ScenarioSyntaxError,
                             UnknownKeyError)
from blowdown.scenario_io import (MANIFOLD_COLUMNS, TRAJECTORY_COLUMNS,
                                  _csv_text, default_scenario, format_value,
                                  load_scenario, parse_scenario,
                                  read_trajectory, trajectory_csv,
                                  write_manifold, write_trajectory)
from blowdown.state import ExogenousInputs, Parameters, ProcessState


def per_cell_csv(columns, rows) -> str:
    """The reference writer: a header, then every cell via `format_value`."""
    return "".join([",".join(columns) + "\n"] +
                   [",".join(map(format_value, row)) + "\n" for row in rows])


def assert_same_csv(text: str, expected: str) -> None:
    """`text == expected`, failing on the first line that differs: pytest
    explains a mismatch of two whole CSV texts with difflib, for minutes."""
    lines, expected_lines = text.splitlines(True), expected.splitlines(True)
    for i, (line, expected_line) in enumerate(zip(lines, expected_lines)):
        assert line == expected_line, f"line {i} differs"
    assert len(lines) == len(expected_lines)


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

    @pytest.mark.parametrize("text,path", [
        ("tolerances: {rtol: 1e-6}", "tolerances.rtol"),
        ("t_end: 1.0e5", "t_end")])
    def test_exponent_number_read_as_text(self, text, path):
        # YAML 1.1 reads these as strings: refused, with the spelling it
        # reads as a number.
        with pytest.raises(InvariantViolation, match=f"^{path}: expected a "
                           r"number, got '.*'; .*mantissa with a '\.' and "
                           r"the exponent with a sign, as in 1\.0e-6"):
            parse_scenario(text)

    @pytest.mark.parametrize("key", [
        "t_end: {big}", "parameters: {{k_smc: {big}}}",
        "initial_state: {{M_s: {big}}}", "schedule: [{{t: 0, f_in: -{big}}}]",
        "tolerances: {{rtol: {big}}}"],
        ids=["t_end", "parameters", "initial_state", "schedule", "tolerances"])
    def test_integer_too_large_for_a_float(self, key):
        # YAML reads it as an int that float() cannot convert.
        with pytest.raises(InvariantViolation, match="must be finite"):
            parse_scenario(key.format(big="1" + "0" * 400))

    def test_load_scenario_round_trip(self, tmp_path):
        doc = tmp_path / "scn.yaml"
        doc.write_text("t_end: 1234.0\nparameters:\n  k_smc: 2.5\n")
        scenario = load_scenario(doc)
        assert scenario.t_end == 1234.0
        assert scenario.parameters.k_smc == 2.5


class TestShippedDefaults:
    """`default_scenario.yaml` is the one home of every default value."""

    def test_shipped_document_names_every_default(self):
        shipped = scenario_io._shipped()
        assert list(shipped["parameters"]) == [f.name for f in
                                               fields(Parameters)]
        first = shipped["schedule"][0]
        assert set(first) == {"t"} | {f.name for f in
                                      fields(ExogenousInputs)}

    def test_defaults_are_read_from_the_shipped_document(self, monkeypatch):
        edited = copy.deepcopy(scenario_io._shipped())
        edited["parameters"]["k_smc"] = 4.5
        edited["initial_state"]["M_s"] = 1234.0
        edited["schedule"][0]["k_ch"] = 0.25
        edited["t_end"] = 777.0
        edited["tolerances"]["rtol"] = 1e-5
        monkeypatch.setattr(scenario_io, "_shipped", lambda: edited)
        scenario = parse_scenario({})
        assert scenario.parameters.k_smc == 4.5
        assert scenario.initial_state.M_s == 1234.0
        assert scenario.schedule[0][1].k_ch == 0.25
        assert scenario.t_end == 777.0 and scenario.rtol == 1e-5

    def test_overrides_leave_the_defaults_unchanged(self):
        before = parse_scenario({})
        shipped = copy.deepcopy(scenario_io._shipped())
        scenario = parse_scenario({
            "parameters": {"k_smc": 2.0},
            "initial_state": {"M_s": 100.0, "q_p": 0.001},
            "schedule": [{"t": 0.0, "k_ch": 0.9}, {"t": 10.0, "f_in": 0.0}],
            "tolerances": {"atol": 1e-8}})
        # The first entry takes the inputs it leaves unset from the
        # shipped first entry; the shipped later entries are dropped.
        default_first = before.schedule[0][1]
        assert scenario.schedule == [
            (0.0, replace(default_first, k_ch=0.9)),
            (10.0, replace(default_first, k_ch=0.9, f_in=0.0))]
        assert scenario.parameters == replace(before.parameters, k_smc=2.0)
        assert scenario.initial_state.M_fl == before.initial_state.M_fl
        assert (scenario.rtol, scenario.atol) == (before.rtol, 1e-8)
        assert scenario_io._shipped() == shipped
        assert parse_scenario({}) == before

    def test_file_read_at_most_once(self, monkeypatch):
        reads = []
        read_text = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            if path.name == "default_scenario.yaml":
                reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        scenario_io._shipped.cache_clear()
        for _ in range(3):
            parse_scenario({})
        parse_scenario("t_end: 10.0\n")
        assert len(reads) == 1


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

    @pytest.mark.parametrize("state", [
        {"M_s": -1.0}, {"M_fl": -1.0}, {"q_p_cmd": 0.01, "q_p": 0.003},
        {"q_p_cmd": -1e-4, "q_p": 0.003}])
    def test_invalid_initial_state_names_path(self, state):
        with pytest.raises(InvariantViolation) as err:
            parse_scenario({"initial_state": state})
        assert err.value.path == "initial_state"

    @pytest.mark.parametrize("masses", [
        {}, {"M_s": 0.0, "M_fl": 0.0}, {"M_s": 1e-7, "M_fl": 0.0}])
    def test_head_starts_at_engine_equivalent_head(self, masses):
        # The engine's density clamp applies to the starting head too, so a
        # nearly empty vessel starts at the head the controller commands.
        scenario = parse_scenario({"initial_state": masses})
        p, state = scenario.parameters, scenario.initial_state
        snap = dict(zip(SNAPSHOT_COLUMNS, evaluate_snapshot(
            state.as_array(), p, scenario.schedule[0][1])))
        assert state.H0 == min(snap["H_eq"], p.H0_max)

    def test_default_head(self):
        H0 = parse_scenario({}).initial_state.H0
        assert H0 == pytest.approx(95.7037, abs=1e-4)


#: Values a constant column may hold: cells the writer defers to
#: `format_value` (|v| >= 1e9, +-inf, ties at the ninth digit such as
#: 12345678.05), 2.5, the subnormal 5e-324 and any float. NaN is never
#: equal to itself, so it never makes a column constant.
CONSTANTS = st.sampled_from([1e9, 1.5e12, np.inf, -np.inf, 2.5, 5e-324,
                             12345678.05, 0.1234567805, np.nan, 1.0,
                             31.0]) | st.floats()


#: Cells of 7 to 28 places, |v| from 1e-20 to 1e-6 of either sign: the
#: writer prints those past 16 places through Python ints.
SMALL = st.builds(lambda m, e, s: s * m * 10.0 ** e,
                  st.floats(1.0, 10.0, exclude_max=True),
                  st.integers(-20, -7), st.sampled_from([-1.0, 1.0]))


@st.composite
def tables_with_constant_columns(draw):
    """A table of 2-600 rows, so that blocks split, whose every column is
    constant, mixed +-0.0, constant but for one cell, or varying."""
    rows = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["constant", "zeros", "but one",
                                     "varying"]))
        if kind == "varying":
            column = rng.standard_normal(rows) * 10.0 ** rng.integers(
                -12, 12, rows)
        elif kind == "zeros":
            column = np.where(rng.integers(0, 2, rows) == 1, -0.0, 0.0)
        else:
            column = np.full(rows, draw(CONSTANTS))
            if kind == "but one":
                column[draw(st.integers(0, rows - 1))] = draw(CONSTANTS)
        columns.append(column)
    return np.column_stack(columns)


def assert_writer_matches_format_value(table):
    columns = [f"c{i}" for i in range(table.shape[1])]
    assert_same_csv("".join(_csv_text(columns, table)),
                    per_cell_csv(columns, table.tolist()))


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

    @settings(deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=64))
    def test_block_formatter_matches_format_value(self, row):
        columns = [f"c{i}" for i in range(len(row))]
        assert_same_csv("".join(_csv_text(columns, [row])),
                        per_cell_csv(columns, [row]))

    def test_block_formatter_edge_cases(self):
        powers = 10.0 ** np.arange(-300, 9)
        cells = np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            [12345678.25, 0.5, 2.5, 999999999.5, 99999999.95, 5e-324, 0.0,
             -0.0, 2.0 ** 53, 1e9, 1.5e12, 1e300, np.inf, np.nan, 1e-310,
             np.nextafter(1e9, 0.0),  # log10 rounds up to 9
            # mantissas ending in 8, 7, 1 and 0 zeros
            1e8, 120000000.0, 1.5, 123456789.0,
            # 16 places, the last printed through int64, and 17, the first
            # through a Python int
            1.23456789e-8, 1.23456789e-9, 1e-16, 1e-17, 1.2e-15, 1.2e-16,
            # a carry at the ninth digit below 1, and places clipped to 0
            0.99999999997, 9.999999999e-9, 999999999.7, 1200.0],
            # ninth digit followed by 5 in decimal, not exactly in binary
            [12345678.05, 12345678.95, 123456.7895, 0.1234567805],
            np.arange(32.0)])  # every protection_mask value
        cells = np.concatenate([cells, -cells])
        table = cells.reshape(-1, 2)  # rows span several blocks
        columns = ["a", "b"]
        assert_same_csv("".join(_csv_text(columns, table)),
                        per_cell_csv(columns, table.tolist()))
        assert format_value(-0.0) == "0"

    @settings(deadline=None)
    @given(tables_with_constant_columns())
    def test_constant_columns_match_format_value(self, table):
        assert_writer_matches_format_value(table)

    def test_every_block_all_constant(self):
        # Each 256-row block holds one value per column, a new one per block.
        values = np.array([[2.5, 1e12, -np.inf, 5e-324, 0.0909090909, 7.0],
                           [-0.0, 3.0, 1e-7, np.inf, 1e9, 0.5],
                           [12345678.05, 0.0, 2.0 ** 53, -1.0, 1e-310, 31.0]])
        assert_writer_matches_format_value(
            np.repeat(values, 256, axis=0)[:600])

    @settings(deadline=None)
    @given(st.lists(SMALL, min_size=2, max_size=300))
    def test_small_cells_match_format_value(self, cells):
        # A column, so that no block folds it unless every cell is equal.
        assert_writer_matches_format_value(np.array(cells)[:, None])

    def test_block_without_places(self):
        # Integers of up to 10 digits, 1e9 and more (deferred) and values
        # whose places all trim away: no "." to write into the block.
        column = np.arange(600.0)
        table = np.column_stack([
            column, -7.0 * column, 1200.0 + column, 1e8 * (column % 9),
            np.where(column % 2 == 0, 999999999.7, 1.5e12)])
        assert_writer_matches_format_value(table)

    def test_deferred_and_wide_cells_in_one_block(self):
        column = 1.0 + np.arange(600.0)
        table = np.column_stack([
            1.23456789e-20 * column, -3e-17 * column, 1e12 * column,
            np.where(column % 3 == 0, np.inf, np.nan),
            12345678.05 + 0.1 * (column % 2), 5e-324 * column])
        assert_writer_matches_format_value(table)

    def test_no_constant_column(self):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((600, 6)) * 10.0 ** rng.integers(
            -12, 12, (600, 6))
        table[[255, 511, 599], 0] = table[[0, 256, 512], 0]  # last == first
        table[:, 1] = np.nan
        table[::3, 2] = 1e12  # a deferred value in every third row
        for start in (0, 256, 512):
            block = table[start:start + 256]
            assert not (block == block[0]).all(axis=0).any()
        assert_writer_matches_format_value(table)


@pytest.fixture(scope="module")
def short_traj():
    return integrate(replace(default_scenario(), t_end=500.0))


@pytest.fixture(scope="module")
def default_traj():
    return integrate(default_scenario())


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
        assert_same_csv(per_cell_csv(TRAJECTORY_COLUMNS, rows),
                        trajectory_csv(short_traj))

    def test_header_only_reads_every_column_empty(self, tmp_path):
        target = tmp_path / "traj.csv"
        target.write_text(",".join(TRAJECTORY_COLUMNS) + "\n")
        cols = read_trajectory(target)
        assert list(cols) == TRAJECTORY_COLUMNS
        assert all(v.shape == (0,) and v.dtype == float
                   for v in cols.values())

    def test_written_one_block_at_a_time(self, default_traj, tmp_path):
        blocks = list(_csv_text(TRAJECTORY_COLUMNS, default_traj.data))
        assert len(blocks) == 1 + -(-len(default_traj) // 256) > 2
        target = tmp_path / "traj.csv"
        write_trajectory(default_traj, target)
        assert target.read_text() == "".join(blocks) == trajectory_csv(
            default_traj)

    def test_row_schema_partitions_columns(self, short_traj):
        scenario = default_scenario()
        snap = evaluate_snapshot(scenario.initial_state.as_array(),
                                 scenario.parameters, scenario.schedule[0][1])
        states = {f.name for f in fields(ProcessState)}
        inputs = {f.name for f in fields(ExogenousInputs)}
        groups = [set(SNAPSHOT_COLUMNS), states, inputs,
                  {"t", "dVdt", "protection_mask"}]
        assert len(states) == 9 and len(inputs) == 5
        assert len(snap) == len(SNAPSHOT_COLUMNS) == 21
        assert sum(map(len, groups)) == len(set().union(*groups))
        assert set().union(*groups) == set(TRAJECTORY_COLUMNS)
        assert short_traj.data.shape == (len(short_traj),
                                         len(TRAJECTORY_COLUMNS))

    def test_matches_per_cell_reference(self, default_traj):
        rk4 = integrate_fixed_rk4(parse_scenario({"t_end": 2000.0}), dt=1.0)
        for traj in (default_traj, rk4):
            assert_same_csv(trajectory_csv(traj), per_cell_csv(
                TRAJECTORY_COLUMNS, traj.data.tolist()))

    def test_protection_mask_prints_as_integer(self, default_traj):
        traj = default_traj
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
        assert_same_csv(target.read_text(), per_cell_csv(
            MANIFOLD_COLUMNS, zip(*map(np.ravel, grids))))
