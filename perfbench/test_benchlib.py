"""Tests of the benchmark's own arithmetic on synthetic inputs.

    python3 -m unittest perfbench/test_benchlib.py
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402
import summarize  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(bl.percentile(values, 50), 50)
        self.assertEqual(bl.percentile(values, 99), 99)
        self.assertEqual(bl.percentile(values, 100), 100)
        self.assertEqual(bl.percentile([7.0], 99), 7.0)

    def test_failures_count_as_infinite(self):
        values = [1.0] * 990 + [bl.INF] * 10
        self.assertEqual(bl.percentile(values, 99), 1.0)
        values = [1.0] * 980 + [bl.INF] * 20
        self.assertTrue(math.isinf(bl.percentile(values, 99)))
        self.assertTrue(math.isinf(bl.percentile([bl.INF, 2.0], 100)))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(bl.tail_quantile(1000), 99.0)
        self.assertEqual(bl.tail_quantile(999), 95.0)
        self.assertEqual(bl.tail_quantile(200), 95.0)
        self.assertEqual(bl.tail_quantile(100), 90.0)
        self.assertEqual(bl.tail_quantile(99), 50.0)
        self.assertEqual(bl.tail_quantile(20), 50.0)
        self.assertIsNone(bl.tail_quantile(19))
        self.assertEqual(bl.tail_quantile(100000, wanted=99.0), 99.0)

    def test_latency_summary(self):
        s = bl.latency_summary([float(i) for i in range(1, 1001)])
        self.assertEqual((s["count"], s["p50"], s["tail_q"], s["tail"]), (1000, 500.0, 99.0, 990.0))
        short = bl.latency_summary([1.0] * 150)
        self.assertEqual(short["tail_q"], 90.0)
        tiny = bl.latency_summary([1.0] * 5)
        self.assertIsNone(tiny["tail_q"])
        self.assertTrue(math.isinf(tiny["tail"]))


class ChunkedLatencyTest(unittest.TestCase):
    def test_median_of_slice_percentiles(self):
        # Three slices; the middle one holds a hiccup.
        a = [1.0] * 1000
        b = [1.0] * 900 + [50.0] * 100
        c = [2.0] * 1000
        s = bl.chunked_latency(a + b + c)
        self.assertEqual(s["slices"], 3)
        self.assertEqual(s["p50"], 1.0)
        self.assertEqual(s["p99"], 2.0)  # slice p99s are 1, 50, 2

    def test_remainder_joins_last_slice(self):
        s = bl.chunked_latency([1.0] * 1000 + [9.0] * 999)
        self.assertEqual(s["slices"], 1)
        self.assertEqual(s["p99"], 9.0)

    def test_failures_stay_infinite(self):
        s = bl.chunked_latency([1.0] * 980 + [bl.INF] * 20)
        self.assertTrue(math.isinf(s["p99"]))

    def test_needs_one_full_slice(self):
        with self.assertRaises(ValueError):
            bl.chunked_latency([1.0] * 999)


class SummaryTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = bl.quartiles(values)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(q2, bl.median(values))
        self.assertAlmostEqual(bl.spread(values), (q3 - q1) / q2)

    def test_single_value(self):
        self.assertEqual(bl.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(bl.spread([2.5]), 0.0)

    def test_constant_series_has_no_spread(self):
        self.assertEqual(bl.spread([4.0] * 10), 0.0)

    def test_summarize_groups_by_workload_and_metric(self):
        rows = [{"workload": "w", "trace": 0, "metrics": {"m": float(v)}} for v in range(1, 11)]
        rows.append({"workload": "w", "trace": 1, "metrics": {"layer": 3.0}})
        s = summarize.summaries(rows, trace=0)
        q1, q2, q3 = statistics.quantiles([float(v) for v in range(1, 11)], n=4)
        self.assertEqual(s["w"]["m"], {"n": 10, "median": q2, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / q2})
        self.assertNotIn("layer", s["w"])


class LadderTest(unittest.TestCase):
    def test_geometric_ladder(self):
        self.assertEqual(bl.geometric_ladder(100, 400, 2.0), [100.0, 200.0, 400.0])
        rates = bl.geometric_ladder(500, 40000, 1.25)
        self.assertTrue(all(b / a == 1.25 for a, b in zip(rates, rates[1:])))
        self.assertLessEqual(rates[-1], 40000)

    def test_highest_passing_step_before_first_failure(self):
        steps = [{"rate": 100, "p99_ms": 1.0, "growing": False},
                 {"rate": 200, "p99_ms": 4.0, "growing": False},
                 {"rate": 400, "p99_ms": 12.0, "growing": False},
                 {"rate": 800, "p99_ms": 2.0, "growing": False}]
        self.assertEqual(bl.ladder_max(steps, 10.0), 200)

    def test_growing_backlog_fails_a_step(self):
        steps = [{"rate": 100, "p99_ms": 1.0, "growing": False},
                 {"rate": 200, "p99_ms": 1.0, "growing": True}]
        self.assertEqual(bl.ladder_max(steps, 10.0), 100)

    def test_first_step_failing_gives_zero(self):
        self.assertEqual(bl.ladder_max([{"rate": 100, "p99_ms": 50.0, "growing": False}], 10.0), 0.0)


class BacklogTest(unittest.TestCase):
    def test_keeping_up_is_flat(self):
        # 1000 requests over 1 s, each answered 1 ms after it is due.
        reqs = [(i / 1000.0, i / 1000.0 + 0.001) for i in range(1000)]
        samples = bl.backlog_samples(reqs, 0.0, 1.0)
        self.assertLessEqual(max(samples), 2)
        self.assertFalse(bl.backlog_growing(samples, len(reqs)))

    def test_server_slower_than_offered_rate_grows(self):
        # Offered 1000/s, served 500/s: answer k completes at k / 500.
        reqs = [(i / 1000.0, (i + 1) / 500.0) for i in range(1000)]
        samples = bl.backlog_samples(reqs, 0.0, 1.0)
        self.assertGreater(samples[-1], samples[0])
        self.assertTrue(bl.backlog_growing(samples, len(reqs)))

    def test_unanswered_requests_stay_in_the_backlog(self):
        reqs = [(0.5, bl.INF), (0.1, 0.2)]
        self.assertEqual(bl.backlog_samples(reqs, 0.0, 1.0, points=4), [1, 0, 1, 1])

    def test_one_slow_burst_is_not_growth(self):
        samples = [0] * 8 + [40] * 2 + [0] * 10
        self.assertFalse(bl.backlog_growing(samples, 10000))


class LayerTableTest(unittest.TestCase):
    # Two decompositions of the same two steps; the steps' walls come from
    # outside (the CLI processes), here 11 s and 5.5 s.
    RUNS = [
        [{"name": "step.a", "parent": -1, "dur_s": 9.5},
         {"name": "x", "parent": 0, "dur_s": 6.0},
         {"name": "y", "parent": 1, "dur_s": 2.0},
         {"name": "x", "parent": 0, "dur_s": 3.0},
         {"name": "step.b", "parent": -1, "dur_s": 5.0},
         {"name": "z", "parent": 4, "dur_s": 5.0}],
        [{"name": "step.a", "parent": -1, "dur_s": 10.5},
         {"name": "x", "parent": 0, "dur_s": 8.0},
         {"name": "y", "parent": 1, "dur_s": 4.0},
         {"name": "x", "parent": 0, "dur_s": 1.0},
         {"name": "step.b", "parent": -1, "dur_s": 5.0},
         {"name": "z", "parent": 4, "dur_s": 5.0}],
    ]
    WALLS = {"step.a": 11.0, "step.b": 5.5}

    def table(self, runs=RUNS, walls=WALLS):
        rows, wall = bl.layer_table(runs, walls)
        return {(r["step"], r["layer"]): r for r in rows}, wall

    def test_self_time_excludes_children_and_averages_runs(self):
        rows, wall = self.table()
        self.assertEqual(wall, 16.5)
        self.assertEqual(rows[("step.a", "x")]["calls"], 2)
        self.assertEqual(rows[("step.a", "x")]["total_s"], 9.0)
        self.assertEqual(rows[("step.a", "x")]["self_s"], 6.0)
        self.assertEqual(rows[("step.a", "y")]["self_s"], 3.0)

    def test_unattributed_is_outside_wall_minus_direct_calls(self):
        # The decomposition's own step spans (9.5 and 10.5 s) do not count:
        # the remainder is measured against the CLI step's wall.
        rows, _ = self.table()
        self.assertEqual(rows[("step.a", "unattributed")]["self_s"], 2.0)
        self.assertEqual(rows[("step.b", "unattributed")]["self_s"], 0.5)
        self.assertEqual(rows[("step.a", "unattributed")]["total_s"], 11.0)

    def test_self_times_sum_to_wall(self):
        rows, wall = self.table()
        self.assertAlmostEqual(sum(r["self_s"] for r in rows.values()), wall)
        self.assertAlmostEqual(sum(r["share"] for r in rows.values()), 1.0)

    def test_remainder_below_zero_is_reported_as_measured(self):
        rows, _ = self.table(walls={"step.a": 8.0, "step.b": 5.5})
        self.assertEqual(rows[("step.a", "unattributed")]["self_s"], -1.0)


if __name__ == "__main__":
    unittest.main()
