"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = [["cohomology", "--catalog", "a2-curve", "--max-degree", "6",
          "--mode", "both"],
         ["homology", "--poly", "z1^2+z2^3+z3^4", "--max-degree", "3",
          "--mode", "both"],
         ["cohomology", "--poly", "z1^4+z2^4+z1^2*z2^2", "--mode",
          "structural"]]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(workloads.build(workload, 5),
                             workloads.build(workload, 5))

    def test_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            a, b = workloads.build(workload, 5), workloads.build(workload, 6)
            self.assertNotEqual(a, b)
            self.assertEqual(len(a), len(b))
        self.assertNotEqual(workloads.structural_polynomials(5, 40),
                            workloads.structural_polynomials(6, 40))

    def test_fixed_workloads_keep_their_inputs(self):
        catalog = workloads.build("catalog", 3)
        self.assertEqual(len(catalog), 74)
        self.assertEqual(sorted(catalog), sorted(workloads.build("catalog", 4)))
        self.assertEqual(len(workloads.build("stress", 3)), 8)

    def test_structural_inputs_are_weighted_homogeneous(self):
        run.import_package()
        from hochschild.grading import detect_weights
        from hochschild.parsing import parse_polynomial
        for text in workloads.structural_polynomials(9, 60):
            f = parse_polynomial(text)
            self.assertIn(f.n, (2, 3))
            self.assertTrue(f.is_weighted_homogeneous(
                detect_weights(f).weights), text)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_package()
        cls.argv = SMALL[0]
        code, cls.stdout, stderr, _ = run.run_report(cls.cli, cls.argv)
        assert code == 0, stderr

    def check(self, stdout, golden=None):
        return checks.check_report(self.argv, 0, stdout, "", golden)

    def tampered(self, change):
        report = json.loads(self.stdout)
        change(report)
        return json.dumps(report, indent=2)

    def test_real_report_passes(self):
        self.assertIsNone(self.check(self.stdout))
        golden = [0, checks.digest(self.stdout)]
        self.assertIsNone(self.check(self.stdout, golden))

    def test_altered_graded_dims_fail(self):
        def top(report):
            report["cohomology"][-1]["graded_dims"][0][1] += 1

        def bottom(report):
            report["cohomology"][0]["graded_dims"][0][1] += 1
        self.assertIn("total dimension", self.check(self.tampered(top)))
        # p = 0 has no closed-form total; the golden digest catches it
        stdout = self.tampered(bottom)
        self.assertIsNone(self.check(stdout))
        golden = [0, checks.digest(self.stdout)]
        self.assertIn("golden", self.check(stdout, golden))

    def test_altered_verdicts_fail(self):
        def disagree(report):
            report["crosscheck"] = "disagree"

        def milnor(report):
            report["milnor"] += 1

        def kernel(report):
            report["kernel_verified"] = False
        for change in (disagree, milnor, kernel):
            self.assertIsNotNone(self.check(self.tampered(change)))

    def test_exit_codes(self):
        structural = ["cohomology", "--poly", "z1^2", "--mode", "structural"]
        both = structural[:-1] + ["both"]
        named = "error: non-isolated singularity: Milnor algebra is infinite"
        self.assertIsNone(checks.check_report(structural, 1, "", named))
        self.assertIsNotNone(checks.check_report(structural, 1, "", "error"))
        self.assertIsNotNone(checks.check_report(both, 1, "", named))
        self.assertIsNotNone(checks.check_report(structural, None, "", ""))

    def test_benchmark_counts_a_failed_report(self):
        argv = SMALL[0]
        wrong = {" ".join(argv): [0, checks.digest("")]}
        result = run.run_pass(self.cli, [argv], wrong)
        self.assertEqual(len(result["failures"]), 1)


class HostClockTest(unittest.TestCase):
    def test_times_scale_with_the_calibration(self):
        cli = run.import_package()
        for speed in (1.0, 2.0):
            with mock.patch.object(run, "calibrate", return_value=speed
                                   * run.CALIBRATION_SECONDS):
                result = run.run_pass(cli, SMALL[:1], {})
            self.assertEqual(result["factors"], [1 / speed])
            self.assertAlmostEqual(result["wall"],
                                   result["raw_wall"] / speed, places=12)


class TraceTest(unittest.TestCase):
    def test_traced_run_restores_the_package(self):
        cli = run.import_package()
        import hochschild.engine as engine
        import hochschild.ideals as ideals
        import hochschild.linalg as linalg
        originals = (engine.buchberger, ideals.buchberger, engine.rank_dense,
                     engine.Analysis.__init__, cli.main)
        passes, _, problems, notes = run.traced(cli, SMALL, {})
        self.assertEqual((problems, notes), ([], []))
        self.assertEqual(tracing.patched_names(), [])
        self.assertEqual((engine.buchberger, ideals.buchberger,
                          engine.rank_dense, engine.Analysis.__init__,
                          cli.main), originals)
        self.assertIs(engine.rank_dense, linalg.rank_dense)
        self.assertTrue(all(not p["failures"] for p in passes))

    def test_spans_nest_and_add_up(self):
        cli = run.import_package()
        _, metrics, _, _ = run.traced(cli, SMALL, {})
        value = {k: v["value"] for k, v in metrics.items()}
        layers = sum(value[layer + ".self_s"] for layer in tracing.LAYERS)
        self.assertAlmostEqual(layers + value["trace.unattributed_s"],
                               value["trace.wall_s"], places=9)
        self.assertGreaterEqual(value["trace.unattributed_s"], 0)
        # by-name imports are seen: engine's own and ideals' inner calls
        self.assertGreater(value["linalg.rank.calls"], 0)
        self.assertGreater(value["ideals.colon_ideal.calls"], 0)
        self.assertGreater(value["ideals.buchberger.calls"],
                           value["ideals.colon_ideal.calls"])
        self.assertGreater(value["koszul.build.calls"], 0)
        self.assertEqual(value["engine.oracle.rank_per_slice"],
                         value["linalg.rank.calls"]
                         / value["engine.oracle.calls"])


class ContractTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cli = run.import_package()
        _, e2e, _, _ = run.end_to_end(cli, SMALL, {}, 0.0, 0.1)
        _, layers, _, _ = run.traced(cli, SMALL, {})
        for printed, listed in ((e2e, spec["end_to_end"]),
                                (layers, spec["per_layer"])):
            self.assertEqual({k: v["unit"] for k, v in printed.items()},
                             {m["name"]: m["unit"] for m in listed})


if __name__ == "__main__":
    unittest.main()
