"""BENCHMARK.json and workloads.json must agree on the workloads and the
layer map, and the bounds must keep to the benchmark's rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        with open(os.path.join(HERE, "workloads.json")) as f:
            cls.record = json.load(f)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         [w["name"] for w in self.record["workloads"]])

    def test_every_layer_metric_maps_to_end_to_end_metrics(self):
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        layer = {m["name"] for m in self.bench["per_layer"]}
        mapping = self.record["layer_to_end_to_end"]
        self.assertEqual(set(mapping), layer)
        for name, row in mapping.items():
            self.assertTrue(set(row["moves"]) <= e2e | layer, name)

    def test_bounds_are_at_most_a_quarter_and_setup_has_the_largest(self):
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in self.bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
