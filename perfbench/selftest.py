"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the ensemble generator's seeding and mix of members, the output
validator's rejection of broken trajectories, and the self-time arithmetic
of the tracer.
"""

import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import blowdown  # noqa: E402
import tracing  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402
from blowdown.scenario_io import trajectory_csv  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_documents(self):
        self.assertEqual(workloads.make_ensemble(7),
                         workloads.make_ensemble(7))

    def test_different_seeds_different_documents(self):
        self.assertNotEqual(workloads.make_ensemble(7),
                            workloads.make_ensemble(8))

    def test_every_seed_draws_each_kind_of_member(self):
        with tempfile.TemporaryDirectory() as tmp:
            ensemble = workloads.build(
                "ensemble", Path(tmp), workloads.ensemble_file(11, Path(tmp)))
            shares = ensemble.member_shares()
        for kind in validate.KINDS:
            self.assertGreater(shares[kind], 0.1, kind)

    def test_documents_parse(self):
        for document in workloads.make_ensemble(3, size=10):
            scenario = blowdown.parse_scenario(document)
            self.assertEqual(len(scenario.schedule), 4)
            self.assertEqual(scenario.log_interval, scenario.t_end)


class ValidatorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        text = workloads.SCENARIO_FILE.read_text()
        document = workloads.yaml.safe_load(text)
        cls.scenario = replace(blowdown.parse_scenario(document),
                               t_end=2.5e4, log_interval=500.0)
        cls.text = trajectory_csv(blowdown.integrate(cls.scenario))
        cls.lines = cls.text.splitlines(keepends=True)

    def edited(self, row: int, column: str, value: str) -> str:
        lines = list(self.lines)
        fields = lines[row].rstrip("\n").split(",")
        fields[validate.COLUMNS.index(column)] = value
        lines[row] = ",".join(fields) + "\n"
        return "".join(lines)

    def test_accepts_real_output(self):
        self.assertEqual(validate.check_csv(self.text, self.scenario), [])

    def test_rejects_dropped_row(self):
        text = "".join(self.lines[:10] + self.lines[11:])
        self.assertTrue(validate.check_csv(text, self.scenario))

    def test_rejects_nan(self):
        text = self.edited(5, "C", "nan")
        self.assertTrue(validate.check_csv(text, self.scenario))

    def test_rejects_out_of_bound_q_p(self):
        q_p_max = self.scenario.parameters.q_p_max
        text = self.edited(5, "q_p", repr(1.5 * q_p_max))
        problems = validate.check_csv(text, self.scenario)
        self.assertTrue(any("q_p" in p for p in problems), problems)

    def test_rejects_wrong_header(self):
        text = self.text.replace("sigma_C", "sigma", 1)
        self.assertTrue(validate.check_csv(text, self.scenario))

    def test_log_grid_includes_breakpoints_and_end(self):
        grid = validate.log_grid(125.0, 50.0, [0.0, 70.0, 200.0])
        np.testing.assert_array_equal(grid, [0.0, 50.0, 70.0, 100.0, 125.0])


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; a has child
        # c [2, 3]; d [20, 21] is a second root.
        start = [0.0, 1.0, 5.0, 2.0, 20.0]
        end = [10.0, 4.0, 9.0, 3.0, 21.0]
        parent = [-1, 0, 0, 1, -1]
        np.testing.assert_allclose(
            tracing.self_times(start, end, parent), [3.0, 2.0, 4.0, 1.0, 1.0])

    def test_tracer_summary_and_restore(self):
        tracer = tracing.Tracer()
        original = blowdown.engine.assemble_rhs
        short = replace(blowdown.default_scenario(), t_end=500.0)
        with tracing.instrument(tracer):
            blowdown.integrate(short)
        self.assertIs(blowdown.engine.assemble_rhs, original)
        summary = tracer.summary()
        total = summary["engine.integrate"]
        children = sum(summary[name]["s"] for name in (
            "engine.assemble_rhs", "engine.evaluate_snapshot",
            "engine.inputs_at"))
        self.assertEqual(total["calls"], 1)
        self.assertAlmostEqual(total["self_s"], total["s"] - children)
        self.assertGreater(tracer.counts["solver.steps"], 0)


if __name__ == "__main__":
    unittest.main()
