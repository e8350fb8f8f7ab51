"""run.py turns a raw result into the result line, on synthetic raw results.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import importlib.util
import json
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_run():
    spec = importlib.util.spec_from_file_location("run", os.path.join(HERE, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def raw_result(check_ok=True, wire_bytes=400):
    """One untraced run of two 1 s rounds, 4 of 4 updates aggregated per
    round, 100 wire bytes per upload."""
    records = [{"round": r, "test_acc": 0.25 * (r + 1), "upload_bytes_mean": 100,
                "contributors": 4} for r in range(2)]
    accounts = [{"attempted": 4, "aggregated": 4, "wire_bytes": wire_bytes,
                 "clients": [0, 1, 2, 3]} for _ in range(2)]
    run = {"traced": False, "log": {"records": records}, "wall_ns": 2_000_000_000,
           "round_marks_ns": [0, 1_000_000_000, 2_000_000_000], "samples": 1000,
           "accounts": accounts, "spans": [], "sim_events": 0}
    windows = [[0.1, 0.2, 0.3], [0.2, 0.3, 0.4, 0.5]]
    return {"rounds": 2, "width": 2, "setup_s": windows, "build_s": windows,
            "peak_rss_bytes": 10 * 2**20, "runs": [run],
            "checks": [{"name": "program_check", "ok": check_ok, "detail": ""}]}


class Evaluate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.run_py = load_run()

    def evaluate(self, raw):
        _, result, _ = self.run_py.evaluate(raw, 0, self.bench)
        return result

    def test_metrics_are_the_end_to_end_ones_with_their_units(self):
        result = self.evaluate(raw_result())
        self.assertEqual([(n, m["unit"]) for n, m in result["metrics"].items()],
                         [(m["name"], m["unit"]) for m in self.bench["end_to_end"]])

    def test_passing_run(self):
        result = self.evaluate(raw_result())
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (8, 0))
        value = {n: m["value"] for n, m in result["metrics"].items()}
        self.assertAlmostEqual(value["setup_s"], 0.275)
        self.assertEqual(value["samples_per_s"], 500.0)
        self.assertEqual(value["round_ms_p50"], 1000.0)
        self.assertEqual(value["peak_rss_mib"], 10.0)
        self.assertEqual(value["upload_bytes_mean"], 100.0)
        # Mean of the two rounds' 25% and 50%.
        self.assertEqual(value["final_acc_pct"], 37.5)
        self.assertEqual(value["delivered_frac"], 1.0)

    def test_final_accuracy_is_the_mean_of_the_last_five_rounds(self):
        raw = raw_result()
        raw["runs"][0]["log"]["records"] = [
            {"round": r, "test_acc": r / 10, "upload_bytes_mean": 100, "contributors": 4}
            for r in range(7)]
        self.assertAlmostEqual(self.run_py.final_acc_pct(raw["runs"][0]), 40.0)

    def test_failed_program_check_fails_every_update(self):
        result = self.evaluate(raw_result(check_ok=False))
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (8, 8))
        self.assertEqual(result["metrics"]["delivered_frac"]["value"], 0.0)

    def test_non_finite_accuracy_is_reported_as_a_failed_run(self):
        raw = raw_result(check_ok=False)
        raw["runs"][0]["log"]["records"][-1]["test_acc"] = None
        result = self.evaluate(raw)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["final_acc_pct"]["value"], 0.0)
        self.assertEqual(result["metrics"]["delivered_frac"]["value"], 0.0)

    def test_wire_bytes_that_disagree_with_the_log_fail(self):
        result = self.evaluate(raw_result(wire_bytes=480))
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["delivered_frac"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
