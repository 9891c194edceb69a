#!/usr/bin/env python3
"""Self-test of dflow_bench.py's compare rule and speed correction.

Run: python3 dflowbench/dflow_bench_test.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dflow_bench  # noqa: E402

LOWER = {"name": "latency_p50_us", "unit": "us", "better": "lower",
         "bound": 0.05}
HIGHER = {"name": "throughput_rps", "unit": "req/s", "better": "higher",
          "bound": 0.05}
EXACT = {"name": "sim_work_per_req", "unit": "units", "better": "lower",
         "bound": 1e-9}

# Ten runs with a 2% spread around 100.
STEADY = [99.0, 100.5, 98.8, 101.0, 100.0, 99.5, 100.2, 98.9, 101.1, 100.4]


def scaled(values, factor):
    return [v * factor for v in values]


def record(latency, raw=None, failed=0, correct=True, work=126.5):
    """One run's --out record; its raw latency defaults to the corrected."""
    metrics = {"latency_p50_us": latency, "throughput_rps": 1000.0,
               "sim_work_per_req": work}
    raw_metrics = dict(metrics, latency_p50_us=latency if raw is None else raw)
    return {"result": {"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v} for k, v in
                                   metrics.items()}},
            "raw": raw_metrics}


def runs(latencies, raw=None, failed=0, seeds=None, work=126.5):
    """{(seed, 0): record} for seeds 1.. (or `seeds`), one per latency."""
    raw = raw or [None] * len(latencies)
    seeds = seeds or range(1, len(latencies) + 1)
    return {(s, 0): record(v, r, failed, work=work)
            for s, v, r in zip(seeds, latencies, raw)}


def verdicts(rows):
    return {(w, m): v for w, m, v, _ in rows}


class JudgeTest(unittest.TestCase):
    def test_win_needs_nine_in_ten_and_more_than_the_iqr(self):
        verdict, row = dflow_bench.judge(STEADY, scaled(STEADY, 0.9),
                                         "lower", 0.05)
        self.assertEqual(verdict, "win")
        self.assertEqual(row["wins"], 10)

    def test_win_in_the_higher_direction(self):
        verdict, _ = dflow_bench.judge(STEADY, scaled(STEADY, 1.1),
                                       "higher", 0.05)
        self.assertEqual(verdict, "win")

    def test_tie_is_same(self):
        verdict, _ = dflow_bench.judge(STEADY, list(reversed(STEADY)),
                                       "lower", 0.05)
        self.assertEqual(verdict, "same")

    def test_small_consistent_gain_within_the_iqr_is_same(self):
        verdict, _ = dflow_bench.judge(STEADY, scaled(STEADY, 0.995),
                                       "lower", 0.05)
        self.assertEqual(verdict, "same")

    def test_fewer_than_ten_pairs_cannot_win(self):
        verdict, _ = dflow_bench.judge(STEADY[:9], scaled(STEADY[:9], 0.8),
                                       "lower", 0.05)
        self.assertEqual(verdict, "same")

    def test_regression_beyond_the_bound(self):
        verdict, _ = dflow_bench.judge(STEADY, scaled(STEADY, 1.2),
                                       "lower", 0.05)
        self.assertEqual(verdict, "regression")
        verdict, _ = dflow_bench.judge(STEADY, scaled(STEADY, 0.8),
                                       "higher", 0.05)
        self.assertEqual(verdict, "regression")

    def test_worse_within_the_bound_is_same(self):
        verdict, _ = dflow_bench.judge(STEADY, scaled(STEADY, 1.03),
                                       "lower", 0.05)
        self.assertEqual(verdict, "same")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 90.0, 110.0, 85.0,
                 115.0]
        verdict, _ = dflow_bench.judge(noisy, scaled(noisy, 1.2), "lower",
                                       0.05)
        self.assertEqual(verdict, "unresolved")

    def test_wide_spread_still_wins_when_every_run_is_better(self):
        noisy = [80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 90.0, 110.0, 85.0,
                 115.0]
        verdict, _ = dflow_bench.judge(noisy, scaled(STEADY, 0.5), "lower",
                                       0.05)
        self.assertEqual(verdict, "win")

    def test_exact_metric_moves_on_any_change(self):
        same, _ = dflow_bench.judge([126.5] * 10, [126.5] * 10, "lower", 1e-9)
        worse, _ = dflow_bench.judge([126.5] * 10, [126.5001] * 10, "lower",
                                     1e-9)
        better, _ = dflow_bench.judge([126.5] * 10, [126.4999] * 10, "lower",
                                      1e-9)
        self.assertEqual((same, worse, better), ("same", "regression", "win"))


class CompareTest(unittest.TestCase):
    def test_every_metric_and_workload_is_judged(self):
        rows, ok = dflow_bench.compare(
            {"a": runs(STEADY), "b": runs(STEADY)},
            {"a": runs(scaled(STEADY, 0.9)), "b": runs(STEADY)},
            [LOWER, HIGHER, EXACT])
        self.assertTrue(ok)
        v = verdicts(rows)
        self.assertEqual(v[("a", "latency_p50_us")], "win")
        self.assertEqual(v[("a", "throughput_rps")], "same")
        self.assertEqual(v[("a", "sim_work_per_req")], "same")
        self.assertEqual(v[("b", "latency_p50_us")], "same")

    def test_regression_fails_the_comparison(self):
        rows, ok = dflow_bench.compare({"a": runs(STEADY)},
                                       {"a": runs(scaled(STEADY, 1.2))},
                                       [LOWER])
        self.assertFalse(ok)
        self.assertEqual(verdicts(rows)[("a", "latency_p50_us")],
                         "regression")

    def test_unresolved_does_not_fail_the_comparison(self):
        noisy = [80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 90.0, 110.0, 85.0,
                 115.0]
        rows, ok = dflow_bench.compare({"a": runs(noisy)},
                                       {"a": runs(scaled(noisy, 1.02))},
                                       [LOWER])
        self.assertTrue(ok)
        self.assertEqual(verdicts(rows)[("a", "latency_p50_us")],
                         "unresolved")

    def test_exact_metric_regression_fails_the_comparison(self):
        rows, ok = dflow_bench.compare({"a": runs(STEADY)},
                                       {"a": runs(STEADY, work=126.6)},
                                       [EXACT])
        self.assertFalse(ok)
        self.assertEqual(verdicts(rows)[("a", "sim_work_per_req")],
                         "regression")

    def test_missing_workload_fails_the_comparison(self):
        rows, ok = dflow_bench.compare({"a": runs(STEADY), "b": runs(STEADY)},
                                       {"a": runs(STEADY)}, [LOWER])
        self.assertFalse(ok)
        self.assertEqual(verdicts(rows)[("b", "-")], "missing")

    def test_runs_pair_by_seed(self):
        # The same values under other seeds leave no pair to judge.
        rows, ok = dflow_bench.compare(
            {"a": runs(STEADY)},
            {"a": runs(STEADY, seeds=range(11, 21))}, [LOWER])
        self.assertFalse(ok)
        self.assertEqual(verdicts(rows)[("a", "-")], "missing")
        # Pairs form by seed, not by position: every seed's change run is
        # 0.5 better than its parent run, whatever order the runs come in.
        change = {key: record(v - 0.5) for key, v in
                  reversed([((s, 0), v) for s, v in enumerate(STEADY, 1)])}
        rows, ok = dflow_bench.compare({"a": runs(STEADY)}, {"a": change},
                                       [LOWER])
        self.assertTrue(ok)
        detail = {m: d for _, m, _, d in rows}["latency_p50_us"]
        self.assertEqual(detail["wins"], 10)

    def test_more_failures_cancel_a_win_and_fail(self):
        rows, ok = dflow_bench.compare(
            {"a": runs(STEADY)}, {"a": runs(scaled(STEADY, 0.9), failed=1)},
            [LOWER])
        self.assertFalse(ok)
        v = verdicts(rows)
        self.assertEqual(v[("a", "failed")], "regression")
        self.assertEqual(v[("a", "latency_p50_us")], "same")

    def test_a_win_must_show_in_the_raw_values(self):
        # Corrected values win, but the raw ones did not move.
        rows, ok = dflow_bench.compare(
            {"a": runs(STEADY)},
            {"a": runs(scaled(STEADY, 0.9), raw=STEADY)}, [LOWER])
        self.assertTrue(ok)
        self.assertEqual(verdicts(rows)[("a", "latency_p50_us")], "same")

    def test_a_raw_regression_is_a_regression(self):
        # Corrected values hold still while the raw ones got 20% worse.
        rows, ok = dflow_bench.compare(
            {"a": runs(STEADY)}, {"a": runs(STEADY, raw=scaled(STEADY, 1.2))},
            [LOWER])
        self.assertFalse(ok)
        self.assertEqual(verdicts(rows)[("a", "latency_p50_us")],
                         "regression")


class ReferenceSpeedTest(unittest.TestCase):
    def test_slow_machine_times_shrink_and_closed_throughput_grows(self):
        scale = dflow_bench.at_reference_speed
        self.assertAlmostEqual(scale(300.0, "us", 1.5, False), 200.0)
        self.assertAlmostEqual(scale(3.0, "s", 1.5, True), 2.0)
        self.assertAlmostEqual(scale(1000.0, "req/s", 1.5, False), 1500.0)

    def test_open_loop_rate_counts_and_ratios_are_untouched(self):
        scale = dflow_bench.at_reference_speed
        self.assertEqual(scale(8000.0, "req/s", 1.5, True), 8000.0)
        self.assertEqual(scale(126.5, "units", 1.5, False), 126.5)
        self.assertEqual(scale(1.0, "ratio", 1.5, False), 1.0)
        self.assertEqual(scale(12.0, "MB", 1.5, False), 12.0)

    def test_each_slice_takes_the_probes_around_it(self):
        ref = dflow_bench.REF_PROBE_US
        # A slice between probes that took 1x and 3x the reference counts
        # half; probes run before the window and after each slice.
        samples = dflow_bench.slice_series([100.0, 300.0, 500.0],
                                           [ref, ref, 3 * ref, ref])
        self.assertEqual(samples, [(100.0, 1.0), (300.0, 2.0), (500.0, 2.0)])
        self.assertEqual(
            dflow_bench.median_at_reference_speed(samples, "us", False),
            150.0)

if __name__ == "__main__":
    unittest.main()
