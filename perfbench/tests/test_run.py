#!/usr/bin/env python3
"""Self-tests of the benchmark: CPU accounting and trace arithmetic on canned
inputs, plus the native reply-checker cases (tests/checker_selftest.cpp).

    python3 perfbench/tests/test_run.py

The checker cases build pb_selftest into $CARGO_TARGET_DIR (default
.bench_build) first.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

# A /proc/PID/stat line whose command name holds a space and a ')'.
STAT_BEFORE = ("4242 (vicinity d)) S 1 4242 4242 0 -1 4194560 3000 0 0 0 "
               "1200 300 0 0 20 0 5 0 100 1000000 2000 18446744073709551615")
STAT_AFTER = ("4242 (vicinity d)) S 1 4242 4242 0 -1 4194560 3100 0 0 0 "
              "1450 350 0 0 20 0 5 0 100 1000000 2100 18446744073709551615")
CPU_BEFORE = "cpu  1000 0 500 8000 10 0 20 100 0 0"
CPU_AFTER = "cpu  1300 0 600 8500 10 0 40 160 0 0"


class CpuAccounting(unittest.TestCase):
    def test_proc_cpu_ticks_reads_utime_plus_stime(self):
        self.assertEqual(run.proc_cpu_ticks(STAT_BEFORE), 1500)
        self.assertEqual(run.proc_cpu_ticks(STAT_AFTER), 1800)

    def test_cpu_us_per_req(self):
        # 300 ticks at 100 Hz = 3 s of CPU over 150,000 requests = 20 us.
        self.assertAlmostEqual(
            run.cpu_us_per_req(STAT_BEFORE, STAT_AFTER, 100, 150000), 20.0)

    def test_steal_pct(self):
        # deltas: user 300, system 100, idle 500, softirq 20, steal 60.
        self.assertAlmostEqual(run.steal_pct(CPU_BEFORE, CPU_AFTER),
                               100.0 * 60 / 980)

    def test_segment_median_skips_empty_segments(self):
        marks = [{"completed": 0, "daemon_stat": STAT_BEFORE},
                 {"completed": 0, "daemon_stat": STAT_BEFORE},
                 {"completed": 150000, "daemon_stat": STAT_AFTER}]
        self.assertAlmostEqual(run.segment_cpu_us_per_req(marks, 100), 20.0)
        with self.assertRaises(ValueError):
            run.segment_cpu_us_per_req(marks[:2], 100)

    def test_rejects_per_core_line(self):
        with self.assertRaises(ValueError):
            run.host_cpu_fields("cpu0 1 2 3 4")

    def test_load_metrics_window(self):
        def snap(t_ns, stat, cpu, client_us, sends, recvs, stats):
            return {"t_ns": t_ns, "daemon_stat": stat, "host_cpu": cpu,
                    "client_cpu_us": client_us, "send_calls": sends,
                    "recv_calls": recvs, "stats": stats}
        def mark(completed, utime):
            return {"completed": completed,
                    "daemon_stat": STAT_BEFORE.replace(" 1200 300 ", " %d 300 " % utime)}
        base = {"epoch": 0, "queries": 0, "requests": 0, "batches": 0,
                "shed": 0, "errors": 0, "timeouts": 0, "updates": 0,
                "cache_hits": 0, "cache_misses": 0, "cache_evictions": 0,
                "p50_us": 0, "p99_us": 0}
        end = dict(base, queries=150000, batches=1000, cache_hits=90,
                   cache_misses=10, p50_us=400.0, p99_us=900.0)
        start = snap(0, STAT_BEFORE, CPU_BEFORE, 0, 10, 20, base)
        end_snap = snap(2_000_000_000, STAT_AFTER, CPU_AFTER, 300000,
                        1510, 3020, end)
        load = {"completed": 150000,
                "lat_us": {"p50": 500.0, "p99": 1000.0, "p999": 1500.0},
                "marks": [mark(0, 1200), mark(50000, 1400), mark(100000, 1450),
                          mark(150000, 1500)],
                "update_rtt_us": {"p50": 0.0}, "vmhwm_kb": 2048,
                "check": {"checked": 7},
                "before": start, "after": end_snap}
        m = run.load_metrics(load, 100, [1, 2, 3])
        # Segments: 200 ticks / 50,000 requests = 40 us, then 50 ticks per
        # 50,000 = 10 us twice: the median is 10 us, the window mean 20 us.
        self.assertAlmostEqual(m["cpu_us_per_req"], 10.0)
        self.assertAlmostEqual(m["daemon.cpu_us_per_req_window"], 20.0)
        self.assertAlmostEqual(m["client.p50_us"], 500.0)
        self.assertAlmostEqual(m["client.p99_us"], 1000.0)
        self.assertAlmostEqual(m["host.daemon_cpu_util"], 3.0 / (2.0 * 3))
        self.assertAlmostEqual(m["client.cpu_us_per_req"], 2.0)
        self.assertAlmostEqual(m["client.send_calls_per_req"], 0.01)
        self.assertAlmostEqual(m["client.recv_calls_per_req"], 0.02)
        self.assertAlmostEqual(m["net.units_per_batch"], 150.0)
        self.assertAlmostEqual(m["net.overhead_us_p50"], 100.0)
        self.assertAlmostEqual(m["cache.hit_pct"], 90.0)
        self.assertAlmostEqual(m["rss_mib"], 2.0)


SPANS = """id parent name start_ns end_ns attr
1 0 chunk 0 100000 3
2 1 engine.run_batch 0 10000 3
3 1 oracle.distance 10000 30000 2
4 1 oracle.distance 20000 50000 3
5 1 algo.bidir_bfs 90000 120000 0
6 1 oracle.distance 50000 60000 0
7 0 engine.apply_update 200000 300000 40
"""


class TraceArithmetic(unittest.TestCase):
    def setUp(self):
        self.spans = run.parse_spans(SPANS)

    def test_self_time_counts_overlaps_once_and_clips_children(self):
        st = run.self_times(self.spans)
        # chunk: children cover [0, 60000) and [90000, 100000) -> self 30 us.
        self.assertEqual(st["chunk"], 30000)
        self.assertEqual(st["oracle.distance"], 20000 + 30000 + 10000)
        self.assertEqual(st["engine.apply_update"], 100000)

    def test_self_time_of_leaf_is_its_duration(self):
        spans = run.parse_spans("h\n1 0 a 5 25 0\n")
        self.assertEqual(run.self_times(spans), {"a": 20})

    def test_trace_metrics(self):
        info = {"hash_lookups": 30, "lanes": 2, "boundary_patches": 10,
                "full_rebuilds": 0, "cache_hits": 3, "cache_misses": 1,
                "cache_stale_misses": 1}
        m = run.trace_metrics(self.spans, info)
        self.assertAlmostEqual(m["oracle.hash_lookups_per_q"], 10.0)
        self.assertAlmostEqual(m["oracle.method.intersection.pct"], 100 / 3)
        self.assertAlmostEqual(m["oracle.method.fallback.us_mean"], 30.0)
        self.assertAlmostEqual(m["algo.fallback_pct"], 100 / 3)
        self.assertAlmostEqual(m["algo.fallback_time_share"], 0.5)
        # 60 us of single-query work over 2 lanes x 10 us of batch.
        self.assertAlmostEqual(m["engine.lane_efficiency"], 3.0)
        self.assertAlmostEqual(m["dynamic.affected_vicinities_mean"], 40.0)
        self.assertAlmostEqual(m["dynamic.boundary_patches_mean"], 10.0)
        self.assertAlmostEqual(m["cache.stale_miss_pct"], 25.0)
        self.assertAlmostEqual(m["trace.harness_self_pct"], 30.0)

    def test_percentile_lower_nearest_rank(self):
        self.assertEqual(run.percentile([5, 1, 3, 2, 4], 0.5), 3)
        self.assertEqual(run.percentile([1, 2], 0.99), 1)
        self.assertEqual(run.percentile([], 0.5), 0.0)


class ReplyChecker(unittest.TestCase):
    def test_native_checker_cases(self):
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                    or ".bench_build")
        paths = run.build(build_dir)
        out = subprocess.run([paths["selftest"]], stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)


if __name__ == "__main__":
    unittest.main()
