#!/usr/bin/env python3
"""Tests of the benchmark's own logic, plus a short smoke run of every
workload that checks every metric BENCHMARK.json names is printed.

  python3 perfbench/test_perfbench.py            # everything (~2 min)
  python3 perfbench/test_perfbench.py Logic      # logic only
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fold  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
END_TO_END = sorted(m["name"] for m in BENCHMARK["end_to_end"])
PER_LAYER = sorted(m["name"] for m in BENCHMARK["per_layer"])


def span(name, start, end, tid=1):
    return {"name": name, "tid": tid, "start": start, "end": end}


def minimal_traced_raw():
    """A traced record of a run that did no work at all."""
    replay = dict.fromkeys(
        ["fuse_s", "instrument_s", "oracle_s", "equiv_s", "adjudicate_s",
         "qasm_s", "run_circuit_s", "run_circuit_amp_touches"], 0)
    return {
        "samples": [],
        "traced": {"counters": {}, "replay": replay, "ops": [],
                   "pool_threads": 4, "traced_pass_s": 1.0,
                   "untraced_pass_s": [1.0]},
    }


class Logic(unittest.TestCase):

    def test_tail_is_the_max_below_twenty_samples(self):
        self.assertEqual(fold.tail([3, 1, 2]), (3, 100.0))
        self.assertEqual(fold.tail(list(range(19))), (18, 100.0))

    def test_tail_leaves_ten_samples_beyond_it(self):
        for n in (20, 57, 100, 999):
            values = list(range(n))
            value, pct = fold.tail(values)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_tail_is_p99_from_a_thousand_samples(self):
        values = list(range(2000))
        value, pct = fold.tail(values)
        self.assertEqual(pct, 99.0)
        self.assertAlmostEqual(value, 0.99 * 1999)
        self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_gated_tail_is_p95_from_two_hundred_samples(self):
        values = list(range(400))
        self.assertAlmostEqual(fold.gated_tail(values), 0.95 * 399)
        self.assertGreaterEqual(
            sum(v > fold.gated_tail(values) for v in values), 10)
        self.assertEqual(fold.gated_tail(list(range(199))),
                         fold.tail(list(range(199)))[0])
        self.assertEqual(fold.gated_tail([4, 9, 1]), 9)

    def test_median(self):
        self.assertEqual(fold.median([5, 1, 3]), 3)
        self.assertEqual(fold.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(fold.median([]), 0.0)

    def test_geomean(self):
        self.assertAlmostEqual(fold.geomean([2, 8]), 4.0)
        self.assertAlmostEqual(fold.geomean([1, 10, 100]), 10.0)
        self.assertEqual(fold.geomean([]), 0.0)

    def test_ratio_with_a_zero_base_is_zero(self):
        self.assertEqual(fold.ratio(5, 0), 0.0)
        self.assertEqual(fold.ratio(0, 0), 0.0)
        self.assertEqual(fold.ratio(1, 4), 0.25)

    def test_union_length_merges_overlaps(self):
        self.assertEqual(fold.union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(fold.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(fold.union_length([]), 0)

    def test_self_time_subtracts_nested_children_once(self):
        spans = fold.nest([
            span("locate/Session::locate", 0, 10),
            span("locate.search", 1, 9),
            span("locate.probe", 2, 4),
            span("runtime.gather", 2.5, 3.5),
        ])
        self.assertEqual([s["parent"] for s in spans], [None, 0, 1, 2])
        selfs = fold.self_times(spans)
        self.assertAlmostEqual(selfs[0], 2)
        self.assertAlmostEqual(selfs[1], 6)
        self.assertAlmostEqual(selfs[2], 1)
        self.assertAlmostEqual(selfs[3], 1)

    def test_self_time_counts_overlapping_children_once(self):
        spans = fold.nest([
            span("session/Session::run", 0, 10),
            span("runtime.gather", 1, 3),
            span("runtime.gather", 2, 5),
        ])
        self.assertEqual(spans[1]["parent"], 0)
        self.assertEqual(spans[2]["parent"], 0)
        self.assertAlmostEqual(fold.self_times(spans)[0], 6)

    def test_self_time_clips_children_to_the_parent(self):
        spans = [dict(span("serve/Client::request", 0, 4), parent=None),
                 dict(span("serve.request", 3, 6, tid=2), parent=0)]
        self.assertAlmostEqual(fold.self_times(spans)[0], 3)

    def test_nesting_is_per_thread(self):
        spans = fold.nest([span("locate/BugLocator::locate", 0, 10, tid=1),
                           span("runtime.gather", 2, 3, tid=2)])
        self.assertIsNone(spans[1]["parent"])

    def test_layer_names(self):
        self.assertEqual(fold.layer_of("locate/Session::locate"), "locate")
        self.assertEqual(fold.layer_of("runtime.gather_histogram"),
                         "runtime")

    def test_per_layer_with_zero_bases(self):
        metrics = fold.per_layer(minimal_traced_raw(), {"traceEvents": []})
        self.assertEqual(sorted(metrics), PER_LAYER)
        for name, (value, _) in metrics.items():
            self.assertTrue(math.isfinite(value), name)
        self.assertEqual(metrics["runtime.prefix_cache.hit_ratio"][0], 0)
        self.assertEqual(metrics["runtime.parallel_efficiency"][0], 0)

    def test_end_to_end_names_match_the_benchmark(self):
        raw = {"samples": [{"config": "a", "ms": 2.0, "ok": True, "reps": 1,
                            "locate": True, "kind": "locate", "pass": 0}],
               "setup_s": [0.5], "window_s": 1.0, "rss_self_mb": 10.0,
               "clients": 1,
               "rss_daemon_mb": 0.0,
               "counted": {"locates": 1, "probes": 7, "shots": 64}}
        metrics = run.end_to_end(raw)
        self.assertEqual(sorted(metrics), END_TO_END)
        self.assertEqual(metrics["probes_per_locate"][0], 7)
        self.assertEqual(metrics["ops_per_s"][0], 500.0)


class Smoke(unittest.TestCase):
    """One minimal-length run of every workload, untraced and traced."""

    def run_benchmark(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "1", "--trace",
             str(trace)],
            cwd=os.path.dirname(HERE), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, universal_newlines=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        table = "\n".join(proc.stdout.splitlines()[:-1])
        for name, metric in result["metrics"].items():
            self.assertIn(name, table)
            self.assertTrue(math.isfinite(metric["value"]), name)
        return result["metrics"]

    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_benchmark(workload, 0)
                self.assertEqual(sorted(metrics), END_TO_END)
                for name in END_TO_END:
                    self.assertGreater(metrics[name]["value"], 0, name)
                self.assertEqual(sorted(self.run_benchmark(workload, 1)),
                                 PER_LAYER)


if __name__ == "__main__":
    unittest.main()
