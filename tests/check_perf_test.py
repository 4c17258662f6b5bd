#!/usr/bin/env python3
"""Unit test of the performance gate's verdict (scripts/check_perf.py).

usage: python3 tests/check_perf_test.py

Feeds compare() and merge() synthetic result lines against a synthetic
baseline, using BENCHMARK.json's own end-to-end metric specs, so the
gate's logic is checked without building or running the benchmark.
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
import check_perf  # noqa: E402  (after the path and bytecode setup)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    END_TO_END = json.load(f)["end_to_end"]
BOUND = {m["name"]: m["bound"] for m in END_TO_END}
BASE = {m["name"]: 2.0 for m in END_TO_END}


def result(**values):
    """A passing result line at the baseline, with values overridden."""
    metrics = {m["name"]: {"value": BASE[m["name"]], "unit": m["unit"]}
               for m in END_TO_END}
    for name, value in values.items():
        metrics[name]["value"] = value
    return {"correct": True, "attempted": 40, "failed": 0,
            "metrics": metrics}


def passes(res):
    return all(ok for ok, _ in check_perf.compare(END_TO_END, BASE, res))


class CompareTest(unittest.TestCase):
    def test_spec_has_both_directions(self):
        better = {m["name"]: m["better"] for m in END_TO_END}
        self.assertEqual(better["wall_s"], "lower")
        self.assertEqual(better["sim_mcycles_per_s"], "higher")

    def test_within_bound_passes(self):
        checks = check_perf.compare(END_TO_END, BASE, result(
            wall_s=2.0 * (1 + BOUND["wall_s"] / 2),
            sim_mcycles_per_s=2.0 * (1 - BOUND["sim_mcycles_per_s"] / 2)))
        self.assertEqual(len(checks), len(END_TO_END))
        self.assertTrue(all(ok for ok, _ in checks))

    def test_better_than_baseline_passes(self):
        self.assertTrue(passes(result(wall_s=0.5, sim_mcycles_per_s=8.0)))

    def test_lower_metric_worse_than_bound_fails(self):
        self.assertFalse(passes(result(
            wall_s=2.0 * (1 + BOUND["wall_s"] * 1.2))))

    def test_higher_metric_worse_than_bound_fails(self):
        self.assertFalse(passes(result(
            sim_mcycles_per_s=2.0 * (1 - BOUND["sim_mcycles_per_s"] * 1.2))))

    def test_incorrect_result_fails(self):
        res = result()
        res["correct"] = False
        self.assertFalse(passes(res))

    def test_failed_operations_fail(self):
        res = result()
        res["failed"] = 1
        self.assertFalse(passes(res))

    def test_missing_metric_fails(self):
        res = result()
        del res["metrics"]["op_tail_s"]
        self.assertFalse(passes(res))

    def test_missing_baseline_fails(self):
        base = dict(BASE)
        del base["peak_rss_mb"]
        self.assertFalse(all(ok for ok, _ in check_perf.compare(
            END_TO_END, base, result())))


class MergeTest(unittest.TestCase):
    def test_takes_each_metric_median(self):
        merged = check_perf.merge([result(wall_s=9.0), result(wall_s=1.0),
                                   result(wall_s=2.2)])
        self.assertEqual(merged["metrics"]["wall_s"]["value"], 2.2)
        self.assertTrue(passes(merged))

    def test_one_failing_run_fails_the_workload(self):
        bad = result()
        bad["failed"] = 2
        self.assertFalse(passes(check_perf.merge([result(), bad, result()])))
        self.assertFalse(passes(check_perf.merge([result(), None, result()])))

    def test_metric_missing_from_every_run_fails(self):
        runs = [result() for _ in range(3)]
        for r in runs:
            del r["metrics"]["setup_s"]
        self.assertFalse(passes(check_perf.merge(runs)))


if __name__ == "__main__":
    unittest.main()
