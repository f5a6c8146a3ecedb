"""Unit tests for run.py's repeat summary and result line."""

import os
import statistics
import unittest

import run


class Spread(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        vals = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5, 11.5, 12.5, 9.5]
        q1, med, q3 = run.quartiles(vals)
        self.assertEqual([q1, med, q3], statistics.quantiles(vals, n=4))
        self.assertAlmostEqual(med, statistics.median(vals))

    def test_spread_is_iqr_over_median(self):
        vals = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, med, q3 = run.quartiles(vals)
        self.assertAlmostEqual(run.spread(vals), (q3 - q1) / med)

    def test_single_value_has_no_spread(self):
        self.assertEqual(run.spread([4.2]), 0.0)

    def test_zero_median_is_unbounded(self):
        self.assertEqual(run.spread([0.0, 0.0, 0.0]), float("inf"))


class Unresolved(unittest.TestCase):
    METRICS = [{"name": "goodput_txn_s", "unit": "txn/s", "bound": 0.24},
               {"name": "setup_s", "unit": "s", "bound": 0.24}]

    def cell(self, q1, med, q3):
        return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}

    def pairs(self, summary):
        return [(u["workload"], u["metric"])
                for u in run.unresolved_pairs(summary, self.METRICS)]

    def test_over_a_third_of_the_bound(self):
        self.assertEqual(self.pairs({"w": {"goodput_txn_s": self.cell(96, 100, 104)}}), [])
        self.assertEqual(self.pairs({"w": {"goodput_txn_s": self.cell(95, 100, 104)}}),
                         [("w", "goodput_txn_s")])

    def test_setup_s_is_listed_with_its_floor(self):
        summary = {"w": {"setup_s": self.cell(0.0004, 0.0005, 0.00054)}}
        self.assertEqual(self.pairs(summary), [("w", "setup_s")])
        u = run.unresolved_pairs(summary, self.METRICS)[0]
        self.assertEqual(u["floor"], 0.05)
        self.assertAlmostEqual(u["iqr"], 0.00014)


class Watchdog(unittest.TestCase):
    def test_deadline_follows_the_childs_warmup(self):
        self.assertEqual(run.watchdog_s(3.0, 20), 106.0)

    def test_read_log(self):
        path = "test_read_log.log"
        with open(path, "w") as f:
            f.write("phase setup 0.00\nwarmup_s 3\nphase run 3.10\nother\n")
        try:
            self.assertEqual(run.read_log(path), (3.0, "run"))
        finally:
            os.remove(path)


class ResultLine(unittest.TestCase):
    METRICS = [{"name": "p50_ms", "unit": "ms"}, {"name": "setup_s", "unit": "s"}]

    def report(self, metrics, correct=True):
        return {"correct": correct, "attempted": 10, "failed": 0,
                "metrics": metrics}

    def test_keeps_listed_metrics_only(self):
        line = run.result_line(self.report({
            "p50_ms": {"value": 1.5, "unit": "ms"},
            "setup_s": {"value": 0.2, "unit": "s"},
            "extra": {"value": 3.0, "unit": "count"}}), self.METRICS)
        self.assertTrue(line["correct"])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {"p50_ms", "setup_s"})

    def test_missing_or_misunitted_metric_is_incorrect(self):
        missing = run.result_line(self.report({
            "p50_ms": {"value": 1.5, "unit": "ms"}}), self.METRICS)
        self.assertFalse(missing["correct"])
        wrong_unit = run.result_line(self.report({
            "p50_ms": {"value": 1.5, "unit": "s"},
            "setup_s": {"value": 0.2, "unit": "s"}}), self.METRICS)
        self.assertFalse(wrong_unit["correct"])

    def test_failed_gate_is_incorrect(self):
        line = run.result_line(self.report({
            "p50_ms": {"value": 1.5, "unit": "ms"},
            "setup_s": {"value": 0.2, "unit": "s"}}, correct=False), self.METRICS)
        self.assertFalse(line["correct"])


if __name__ == "__main__":
    unittest.main()
