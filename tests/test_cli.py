"""Command-line surface: subcommands, outputs, exit codes."""

import pytest

from blowdown import engine, smc
from blowdown.cli import (EXIT_OK, EXIT_USAGE, main)
from blowdown.errors import ScenarioSyntaxError
from blowdown.scenario_io import (TRAJECTORY_COLUMNS, parse_scenario,
                                  read_trajectory)


class TestSimulate:
    def test_default_scenario_short_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--out", str(out), "--t-end", "1000"])
        assert code == EXIT_OK
        target = out / "trajectory.csv"
        assert target.exists()
        cols = read_trajectory(target)
        assert list(cols) == TRAJECTORY_COLUMNS
        assert cols["t"][-1] == 1000.0

    def test_scenario_file(self, tmp_path):
        doc = tmp_path / "scn.yaml"
        doc.write_text("t_end: 200.0\n")
        code = main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_OK
        cols = read_trajectory(tmp_path / "run" / "trajectory.csv")
        assert cols["t"][-1] == 200.0

    def test_log_every_override(self, tmp_path):
        code = main(["simulate", "--out", str(tmp_path / "run"),
                     "--t-end", "1000", "--log-every", "250"])
        assert code == EXIT_OK
        cols = read_trajectory(tmp_path / "run" / "trajectory.csv")
        assert list(cols["t"]) == [0.0, 250.0, 500.0, 750.0, 1000.0]

    def test_flags_set_document_keys(self, tmp_path, capsys):
        # Laid over the file's keys, as `sweep --param` is; an empty
        # section takes a flag as an absent one does.
        doc = tmp_path / "scn.yaml"
        doc.write_text("t_end: 5.0e+4\ntolerances:\n")
        code = main(["simulate", "--scenario", str(doc), "--t-end", "200",
                     "--rtol", "1e-7", "--out", str(tmp_path / "run")])
        assert code == EXIT_OK
        cols = read_trajectory(tmp_path / "run" / "trajectory.csv")
        assert cols["t"][-1] == 200.0

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "absent.yaml"),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE

    def test_invalid_scenario_document(self, tmp_path):
        doc = tmp_path / "bad.yaml"
        doc.write_text("parameters:\n  n: -1\n")
        code = main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["sweep", "--param", "parameters.k_smc", "--values", "1,3"]])
    def test_malformed_scenario_file(self, tmp_path, capsys, command):
        doc = tmp_path / "bad.yaml"
        doc.write_text("parameters: [unclosed\n")
        code = main(command + ["--scenario", str(doc),
                               "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        assert "malformed scenario document" in capsys.readouterr().err

    def test_negative_initial_mass(self, tmp_path, capsys):
        doc = tmp_path / "bad.yaml"
        doc.write_text("initial_state:\n  M_s: -1.0\n")
        code = main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        assert "initial_state" in capsys.readouterr().err

    def test_overflowing_initial_masses(self, tmp_path, capsys):
        # The start head is resolved from the masses while parsing; a
        # non-finite reconstruction there is a scenario error, not a
        # numerical failure of the integration.
        doc = tmp_path / "bad.yaml"
        doc.write_text("initial_state: {M_s: 1.0e+308, M_fl: 1.0e+308}\n")
        code = main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        assert "initial_state" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--t-end", "nan"), ("--t-end", "inf"), ("--log-every", "nan"),
        ("--rtol", "nan"), ("--atol", "inf")])
    def test_non_finite_override(self, tmp_path, capsys, flag, value):
        code = main(["simulate", "--out", str(tmp_path / "run"), flag, value])
        assert code == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err

    def test_too_many_log_rows(self, tmp_path, capsys, monkeypatch):
        def no_grid(scenario):
            raise AssertionError("the log grid was built")
        monkeypatch.setattr(engine, "_log_grid", no_grid)
        doc = tmp_path / "huge.yaml"
        doc.write_text("t_end: 1.0e+12\nlog_interval: 1.0e-3\n")
        for source in (["--scenario", str(doc)],
                       ["--t-end", "1e12", "--log-every", "1e-3"]):
            code = main(["simulate", "--out", str(tmp_path / "run")] + source)
            assert code == EXIT_USAGE
            assert "above 1,000,000" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--nope"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["explode"])
        assert err.value.code == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == EXIT_USAGE


class TestRefusedInput:
    """Every refused input exits 1 with a one-line message, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["manifold", "--out", "{dir}/m.csv", "--steps", "1"],
        ["manifold", "--out", "{dir}/m.csv", "--e-range", "1", "0"],
        ["simulate", "--out", "{file}"],
        ["simulate", "--scenario", "{dir}", "--out", "{dir}/run"],
        ["sweep", "--param", "parameters.k_smc", "--values", "1",
         "--out", "{file}"]],
        ids=["manifold-steps", "manifold-e-range", "simulate-out-file",
             "simulate-scenario-dir", "sweep-out-file"])
    def test_exit_1(self, tmp_path, capsys, argv):
        file = tmp_path / "file"
        file.write_text("")
        code = main([arg.format(dir=tmp_path, file=file) for arg in argv])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("blowdown: error: ")
        assert err.count("\n") == 1


class TestManifold:
    def test_default_grid(self, tmp_path, capsys):
        target = tmp_path / "manifold.csv"
        code = main(["manifold", "--out", str(target)])
        assert code == EXIT_OK
        lines = target.read_text().splitlines()
        assert lines[0] == "e_q,xi_eq,s_q"
        assert lines[1] == "0,0,0"
        assert len(lines) == 1 + 41 * 41

    def test_steps_bounded_before_the_grid_is_built(self, tmp_path, capsys,
                                                    monkeypatch):
        # 1001² rows: more than a scenario may log.
        def must_not_run(*args):
            raise AssertionError("the grid was built")
        monkeypatch.setattr(smc, "manifold_grid", must_not_run)
        target = tmp_path / "manifold.csv"
        code = main(["manifold", "--out", str(target), "--steps", "1001"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "blowdown: error: --steps 1001 gives 1,002,001 rows, above "
            "1,000,000\n")
        assert not target.exists()

    def test_custom_grid(self, tmp_path, capsys):
        target = tmp_path / "manifold.csv"
        code = main(["manifold", "--out", str(target),
                     "--e-range", "-0.001", "0.001",
                     "--xi-range", "-10", "10", "--steps", "11"])
        assert code == EXIT_OK
        assert len(target.read_text().splitlines()) == 1 + 121


class TestSweep:
    def test_parameter_sweep(self, tmp_path, capsys):
        doc = tmp_path / "scn.yaml"
        doc.write_text("t_end: 200.0\n")
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(doc),
                     "--param", "parameters.k_smc", "--values", "1,3",
                     "--out", str(out)])
        assert code == EXIT_OK
        for value in ("1", "3"):
            assert (out / f"parameters.k_smc={value}"
                    / "trajectory.csv").exists()

    def test_directories_named_by_token(self, tmp_path, capsys):
        # Equal to 6 significant digits, once written to one directory.
        doc = tmp_path / "scn.yaml"
        doc.write_text("t_end: 100.0\n")
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(doc),
                     "--param", "parameters.k_smc",
                     "--values", " 1.0000001, 1.0000002 ", "--out", str(out)])
        assert code == EXIT_OK
        names = ["parameters.k_smc=1.0000001", "parameters.k_smc=1.0000002"]
        assert sorted(p.name for p in out.iterdir()) == names
        assert sorted(capsys.readouterr().out.splitlines()) == [
            f"wrote {out / name / 'trajectory.csv'}" for name in names]

    def test_equal_values_refused(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--param", "parameters.k_smc",
                     "--values", "3,1,3.0", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "blowdown: scenario error: --values '3,1,3.0' names a value "
            "twice\n")
        assert not out.exists()

    def test_unknown_parameter_path(self, tmp_path, capsys):
        code = main(["sweep", "--param", "parameters.bogus", "--values", "1",
                     "--out", str(tmp_path / "sweep")])
        assert code == EXIT_USAGE

    def test_empty_values_list(self, tmp_path, capsys):
        code = main(["sweep", "--param", "parameters.k_smc", "--values", ",",
                     "--out", str(tmp_path / "sweep")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text", ["- 1\n", "3\n", '"x"\n'],
                             ids=["list", "int", "str"])
    def test_scenario_not_a_mapping(self, tmp_path, capsys, text):
        # The same refusal as `simulate` and `check`, from parse_scenario.
        with pytest.raises(ScenarioSyntaxError) as refused:
            parse_scenario(text)
        doc = tmp_path / "scn.yaml"
        doc.write_text(text)
        code = main(["sweep", "--scenario", str(doc),
                     "--param", "parameters.k_smc", "--values", "1",
                     "--out", str(tmp_path / "sweep")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"blowdown: scenario error: {refused.value}\n")
        assert not (tmp_path / "sweep").exists()
