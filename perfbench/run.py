#!/usr/bin/env python3
"""Serving benchmark for vicinityd.

    python3 perfbench/run.py --workload {uniform,hot-cached,mixed-rw}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. The script builds libvicinity, vicinityd and
the benchmark's native tool (perfbench/pb) with CMake into
$CARGO_TARGET_DIR (default .bench_build), then:

1. Set-up, repeated SETUP_REPEATS times (once in a traced run): generate
   the graph, build the index with nproc-1 threads, save it as VCNIDX05,
   start vicinityd --index on cores 1..nproc-1 and wait for its first PING
   reply. setup_s is the median wall time of the whole chain.
2. From core 0, pb_tool load keeps the workload's fixed number of requests
   in flight on one connection for --seconds, checks every reply, checks a
   sample of replies against an independent BFS at the reply's epoch, and
   snapshots daemon CPU time, host CPU counters and STATS around the window.
3. With --trace 1 it also runs a traced generator window (per-request
   spans; its p50 minus the untraced p50 is the tracing overhead) and the
   traced in-process replay (pb_tool trace), and prints the per-layer
   metrics with the end-to-end metric and workload each should move.

The last stdout line is the result object (correct, attempted, failed,
metrics). Every earlier line is context: the machine block, the set-up
spans and the check summary. Exit status is non-zero when a reply fails
its check or a step fails.
"""

import argparse
import json
import os
import platform
import select
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 3
TRACED_WINDOW_S = 3.0
SPAN_CAP = 200000
STEP_TIMEOUT_S = 120

# Per-layer metric -> (unit, the end-to-end metric and workload it should
# move). Printed beside each value in a traced run.
LAYERS = {
    "gen.graph_s": ("s", "setup_s, all workloads"),
    "core.build_s": ("s", "setup_s, all workloads"),
    "core.save_s": ("s", "setup_s, all workloads"),
    "setup.open_s": ("s", "setup_s, all workloads"),
    "core.open_ms": ("ms", "setup_s, all workloads"),
    "core.vicinity_entries": ("count", "setup_s and index_mib, all workloads"),
    "core.landmarks": ("count", "setup_s and index_mib, all workloads"),
    "oracle.us_p50": ("us", "cpu_us_per_req, client.p50_us on uniform; none on hot-cached"),
    "oracle.us_p99": ("us", "cpu_us_per_req, client.p50_us on uniform; none on hot-cached"),
    "oracle.hash_lookups_per_q": ("count", "cpu_us_per_req on uniform"),
    "oracle.method.landmark.pct": ("%", "cpu_us_per_req on uniform"),
    "oracle.method.in_vicinity.pct": ("%", "cpu_us_per_req on uniform"),
    "oracle.method.intersection.pct": ("%", "cpu_us_per_req on uniform"),
    "oracle.method.fallback.pct": ("%", "cpu_us_per_req, client.p99_us on uniform"),
    "oracle.method.landmark.us_mean": ("us", "cpu_us_per_req on uniform"),
    "oracle.method.in_vicinity.us_mean": ("us", "cpu_us_per_req on uniform"),
    "oracle.method.intersection.us_mean": ("us", "cpu_us_per_req, client.p50_us on uniform"),
    "oracle.method.fallback.us_mean": ("us", "cpu_us_per_req, client.p99_us on uniform"),
    "algo.fallback_pct": ("%", "client.p99_us on uniform and mixed-rw"),
    "algo.fallback_us_p50": ("us", "client.p99_us on uniform and mixed-rw"),
    "algo.fallback_us_p99": ("us", "client.p99_us on uniform and mixed-rw"),
    "algo.fallback_time_share": ("ratio", "client.p99_us on uniform and mixed-rw"),
    "engine.batch_us_p50": ("us", "client.p50_us, client.p99_us on uniform; not cpu_us_per_req"),
    "engine.batch_us_p99": ("us", "client.p50_us, client.p99_us on uniform; not cpu_us_per_req"),
    "engine.lane_efficiency": ("ratio", "client.p50_us, client.p99_us on uniform; not cpu_us_per_req"),
    "cache.hit_pct": ("%", "cpu_us_per_req, client.p50_us on hot-cached; mixed-rw after updates"),
    "cache.stale_miss_pct": ("%", "cpu_us_per_req, client.p99_us on mixed-rw"),
    "cache.evictions": ("count", "cpu_us_per_req on hot-cached"),
    "dynamic.update_us_p50": ("us", "client.p99_us, cpu_us_per_req on mixed-rw"),
    "dynamic.update_us_p99": ("us", "client.p99_us, cpu_us_per_req on mixed-rw"),
    "dynamic.affected_vicinities_mean": ("count", "client.p99_us, cpu_us_per_req on mixed-rw"),
    "dynamic.boundary_patches_mean": ("count", "client.p99_us, cpu_us_per_req on mixed-rw"),
    "dynamic.full_rebuilds": ("count", "client.p99_us, cpu_us_per_req on mixed-rw"),
    "net.update_rtt_us_p50": ("us", "client.p99_us, cpu_us_per_req on mixed-rw"),
    "net.batches": ("count", "client.p50_us, cpu_us_per_req on hot-cached"),
    "net.units_per_batch": ("count", "client.p50_us, cpu_us_per_req on hot-cached"),
    "net.shed": ("count", "attempted/failed, all workloads"),
    "net.timeouts": ("count", "attempted/failed, all workloads"),
    "net.server_us_p50": ("us", "client.p50_us on hot-cached"),
    "net.server_us_p99": ("us", "client.p99_us on hot-cached"),
    "net.overhead_us_p50": ("us", "client.p50_us, cpu_us_per_req on hot-cached"),
    "daemon.cpu_us_per_req_window": ("us", "cpu_us_per_req (whole-window mean, not the segment median)"),
    "client.p50_us": ("us", "the round-trip median, all workloads; too noisy to gate here"),
    "client.p99_us": ("us", "the round-trip tail, all workloads; too noisy to gate here"),
    "client.p999_us": ("us", "the round-trip tail, all workloads; too noisy to gate here"),
    "client.cpu_us_per_req": ("us", "none: shows the generator is not the bottleneck"),
    "client.send_calls_per_req": ("count", "none: generator syscalls per request"),
    "client.recv_calls_per_req": ("count", "none: generator syscalls per request"),
    "host.steal_pct": ("%", "none: host noise, recorded beside every result"),
    "host.daemon_cpu_util": ("ratio", "none: share of the daemon's cores in use"),
    "trace.overhead_us_p50": ("us", "none: traced minus untraced client.p50_us"),
    "trace.harness_self_pct": ("%", "none: replay time outside library calls"),
    "check.sampled_replies": ("count", "none: replies checked against BFS"),
}

END_TO_END = {
    "setup_s": "s",
    "cpu_us_per_req": "us",
    "index_mib": "MiB",
    "rss_mib": "MiB",
}

BUCKETS = ["landmark", "in_vicinity", "intersection", "fallback"]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---- pure helpers (covered by tests/test_run.py) ---------------------------

def percentile(values, q):
    """Lower nearest-rank percentile, the same rule pb_tool uses."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[int(q * (len(v) - 1))]


def proc_cpu_ticks(stat_line):
    """utime + stime (clock ticks) from a /proc/PID/stat line."""
    # The command name may hold spaces or parentheses; fields resume after
    # the last ')'. utime and stime are fields 14 and 15 of the whole line.
    rest = stat_line[stat_line.rindex(")") + 2:].split()
    return int(rest[11]) + int(rest[12])


def host_cpu_fields(cpu_line):
    """The aggregate 'cpu' line of /proc/stat as a list of tick counts."""
    parts = cpu_line.split()
    if not parts or parts[0] != "cpu":
        raise ValueError("not an aggregate cpu line: %r" % cpu_line)
    return [int(x) for x in parts[1:]]


def steal_pct(before_line, after_line):
    """Share of all host CPU time that was stolen between two snapshots."""
    b, a = host_cpu_fields(before_line), host_cpu_fields(after_line)
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user/nice.
    delta = [x - y for x, y in zip(a[:8], b[:8])]
    total = sum(delta)
    return 100.0 * delta[7] / total if total > 0 else 0.0


def cpu_us_per_req(before_line, after_line, clk_tck, completed):
    """Daemon user+sys CPU microseconds per completed request."""
    ticks = proc_cpu_ticks(after_line) - proc_cpu_ticks(before_line)
    return ticks * 1e6 / clk_tck / max(completed, 1)


def parse_spans(text):
    """Span lines 'id parent name start_ns end_ns attr' -> list of dicts."""
    spans = []
    for line in text.splitlines()[1:]:
        if not line.strip():
            continue
        i, p, name, s, e, a = line.split()
        spans.append({"id": int(i), "parent": int(p), "name": name,
                      "start": int(s), "end": int(e), "attr": int(a)})
    return spans


def self_times(spans):
    """Per span name: total self time in ns. A span's self time is its
    duration minus the part of it that its children's intervals cover
    (overlapping children are counted once)."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["name"]] = out.get(s["name"], 0) + (s["end"] - s["start"] - covered)
    return out


def trace_metrics(spans, info):
    """Per-layer metrics from the in-process replay's spans and counters."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    dur_us = lambda ss: [(s["end"] - s["start"]) / 1e3 for s in ss]
    oracle = by.get("oracle.distance", [])
    o_us = dur_us(oracle)
    n = max(len(oracle), 1)
    m = {
        "oracle.us_p50": percentile(o_us, 0.50),
        "oracle.us_p99": percentile(o_us, 0.99),
        "oracle.hash_lookups_per_q": info["hash_lookups"] / n,
    }
    for k, name in enumerate(BUCKETS):
        us = [d for d, s in zip(o_us, oracle) if s["attr"] == k]
        m["oracle.method.%s.pct" % name] = 100.0 * len(us) / n
        m["oracle.method.%s.us_mean" % name] = statistics.fmean(us) if us else 0.0
    fb_us = dur_us(by.get("algo.bidir_bfs", []))
    m["algo.fallback_pct"] = 100.0 * len(fb_us) / n
    m["algo.fallback_us_p50"] = percentile(fb_us, 0.50)
    m["algo.fallback_us_p99"] = percentile(fb_us, 0.99)
    fb_share = [d for d, s in zip(o_us, oracle) if s["attr"] == 3]
    m["algo.fallback_time_share"] = sum(fb_share) / sum(o_us) if o_us else 0.0
    b_us = dur_us(by.get("engine.run_batch", []))
    m["engine.batch_us_p50"] = percentile(b_us, 0.50)
    m["engine.batch_us_p99"] = percentile(b_us, 0.99)
    lanes = info["lanes"]
    m["engine.lane_efficiency"] = (sum(o_us) / (lanes * sum(b_us))
                                   if b_us and sum(b_us) > 0 else 0.0)
    ups = by.get("engine.apply_update", [])
    u_us = dur_us(ups)
    m["dynamic.update_us_p50"] = percentile(u_us, 0.50)
    m["dynamic.update_us_p99"] = percentile(u_us, 0.99)
    m["dynamic.affected_vicinities_mean"] = (
        statistics.fmean(s["attr"] for s in ups) if ups else 0.0)
    m["dynamic.boundary_patches_mean"] = info["boundary_patches"] / max(len(ups), 1)
    m["dynamic.full_rebuilds"] = info["full_rebuilds"]
    lookups = info["cache_hits"] + info["cache_misses"]
    m["cache.stale_miss_pct"] = 100.0 * info["cache_stale_misses"] / max(lookups, 1)
    chunk_total = sum(s["end"] - s["start"] for s in by.get("chunk", []))
    m["trace.harness_self_pct"] = (100.0 * self_times(spans).get("chunk", 0) /
                                   chunk_total if chunk_total else 0.0)
    return m


def segment_cpu_us_per_req(marks, clk_tck):
    """Median over the window's segments (pb_tool load's marks) of daemon
    CPU per completed request: a burst of host contention moves few
    segments."""
    per = [cpu_us_per_req(a["daemon_stat"], b["daemon_stat"], clk_tck,
                          b["completed"] - a["completed"])
           for a, b in zip(marks, marks[1:]) if b["completed"] > a["completed"]]
    if not per:
        raise ValueError("no request completed in any segment")
    return statistics.median(per)


def load_metrics(load, clk_tck, daemon_cores):
    """End-to-end and net/client/host metrics from one pb_tool load run."""
    b, a = load["before"], load["after"]
    window_s = (a["t_ns"] - b["t_ns"]) / 1e9
    done = max(load["completed"], 1)
    sb, sa = b["stats"], a["stats"]
    d = {k: sa[k] - sb[k] for k in sb if k not in ("p50_us", "p99_us")}
    daemon_s = (proc_cpu_ticks(a["daemon_stat"]) -
                proc_cpu_ticks(b["daemon_stat"])) / clk_tck
    lookups = d["cache_hits"] + d["cache_misses"]
    return {
        "cpu_us_per_req": segment_cpu_us_per_req(load["marks"], clk_tck),
        "daemon.cpu_us_per_req_window": cpu_us_per_req(
            b["daemon_stat"], a["daemon_stat"], clk_tck, load["completed"]),
        "client.p50_us": load["lat_us"]["p50"],
        "client.p99_us": load["lat_us"]["p99"],
        "client.p999_us": load["lat_us"]["p999"],
        "rss_mib": load["vmhwm_kb"] / 1024.0,
        "net.batches": d["batches"],
        "net.units_per_batch": d["queries"] / max(d["batches"], 1),
        "net.shed": d["shed"],
        "net.timeouts": d["timeouts"],
        "net.server_us_p50": sa["p50_us"],
        "net.server_us_p99": sa["p99_us"],
        "net.overhead_us_p50": load["lat_us"]["p50"] - sa["p50_us"],
        "net.update_rtt_us_p50": load["update_rtt_us"]["p50"],
        "cache.hit_pct": 100.0 * d["cache_hits"] / lookups if lookups else 0.0,
        "cache.evictions": d["cache_evictions"],
        "client.cpu_us_per_req": (a["client_cpu_us"] - b["client_cpu_us"]) / done,
        "client.send_calls_per_req": (a["send_calls"] - b["send_calls"]) / done,
        "client.recv_calls_per_req": (a["recv_calls"] - b["recv_calls"]) / done,
        "host.steal_pct": steal_pct(b["host_cpu"], a["host_cpu"]),
        "host.daemon_cpu_util": daemon_s / (window_s * len(daemon_cores)),
        "host.client_cpu_pct": 100.0 * (a["client_cpu_us"] - b["client_cpu_us"])
                               / 1e6 / window_s,
        "check.sampled_replies": load["check"]["checked"],
    }


# ---- processes -------------------------------------------------------------

def run_tool(cmd, cores, timeout=STEP_TIMEOUT_S):
    """Runs a pb_tool step pinned to `cores`; returns its JSON output."""
    out = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                         preexec_fn=lambda: os.sched_setaffinity(0, cores),
                         check=False, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(cmd[:2]), out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def stop(proc):
    if proc is None or proc.poll() is not None:
        return
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def start_daemon(binary, data, cores, cache_mb):
    proc = subprocess.Popen(
        [binary, "--graph=" + os.path.join(data, "graph.bin"),
         "--index=" + os.path.join(data, "index.vci"), "--port=0",
         "--threads=%d" % len(cores), "--cache-mb=%d" % cache_mb],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cores))
    try:
        ready, _, _ = select.select([proc.stdout], [], [], STEP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            raise RuntimeError("vicinityd did not start")
        port = int(line.rsplit(":", 1)[1])
        ping(port)
        return proc, port
    except BaseException:
        stop(proc)
        raise


def ping(port):
    """One PING round trip (protocol v2 framing, net/protocol.h)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(struct.pack("<IBBBBQ", 0, 2, 0, 0, 0, 1))
        reply = b""
        while len(reply) < 16:
            chunk = s.recv(16 - len(reply))
            if not chunk:
                raise RuntimeError("vicinityd closed during PING")
            reply += chunk
        if reply[6] != 0:
            raise RuntimeError("PING answered with status %d" % reply[6])


def setup_once(paths, data, cores, cache_mb):
    """One timed set-up; returns (seconds, spans, daemon, port)."""
    t0 = time.perf_counter()
    info = run_tool([paths["tool"], "setup", "--dir", data,
                     "--threads", str(len(cores))], cores)
    t1 = time.perf_counter()
    proc, port = start_daemon(paths["daemon"], data, cores, cache_mb)
    t2 = time.perf_counter()
    info["open_s"] = t2 - t1
    return t2 - t0, info, proc, port


# ---- build and machine -----------------------------------------------------

def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found beside perfbench/")
    jobs = str(max(os.cpu_count() or 1, 1))
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                 "pb_tool", "pb_selftest", "vicinityd"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return {"tool": os.path.join(build_dir, "pb_tool"),
            "selftest": os.path.join(build_dir, "pb_selftest"),
            "daemon": os.path.join(build_dir, "vicinity", "vicinityd")}


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def machine(build_dir, gen_core, daemon_cores):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL).stdout.split("\n")[0]
        except OSError:
            pass
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "kernel": platform.release(), "compiler": version,
            "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
            "generator_core": gen_core, "daemon_cores": daemon_cores}


# ---- main ------------------------------------------------------------------

def run(args):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    paths = build(build_dir)
    data = os.path.join(build_dir, "data")
    os.makedirs(data, exist_ok=True)

    workload = args.workload
    # vicinityd --cache-mb per workload, as in kSpecs (pb/workload.cpp).
    cache_mb = {"uniform": 0, "hot-cached": 16, "mixed-rw": 16}[workload]
    avail = sorted(os.sched_getaffinity(0))
    gen_core = avail[0]
    daemon_cores = avail[1:] or avail
    os.sched_setaffinity(0, {gen_core})
    clk_tck = os.sysconf("SC_CLK_TCK")

    repeats = 1 if args.trace else SETUP_REPEATS
    setups, daemon = [], None
    try:
        for i in range(repeats):
            secs, info, proc, port = setup_once(paths, data, daemon_cores, cache_mb)
            setups.append((secs, info))
            if i + 1 < repeats:
                stop(proc)
            else:
                daemon = proc
        def load_cmd(seconds, *extra):
            return [paths["tool"], "load", "--dir", data, "--port", str(port),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--daemon-pid", str(daemon.pid),
                    *extra]
        load = run_tool(load_cmd(args.seconds), {gen_core},
                        timeout=STEP_TIMEOUT_S + args.seconds)
        m = load_metrics(load, clk_tck, daemon_cores)
        traced = trace_info = spans = None
        if args.trace:
            span_file = os.path.join(data, "load_spans.txt")
            traced = run_tool(
                load_cmd(TRACED_WINDOW_S, "--spans", span_file,
                         "--span-cap", str(SPAN_CAP)),
                {gen_core}, timeout=STEP_TIMEOUT_S + TRACED_WINDOW_S)
            with open(span_file) as f:
                traced_spans = parse_spans(f.read())
            stop(daemon)
            daemon = None
            trace_file = os.path.join(data, "trace_spans.txt")
            trace_info = run_tool(
                [paths["tool"], "trace", "--dir", data, "--workload", workload,
                 "--seed", str(args.seed), "--lanes", str(len(daemon_cores)),
                 "--batch", str(max(1, round(m["net.units_per_batch"]))),
                 "--spans", trace_file], daemon_cores)
            with open(trace_file) as f:
                spans = parse_spans(f.read())
    finally:
        stop(daemon)

    setup_secs = [s for s, _ in setups]
    info = setups[-1][1]
    check = load["check"]
    failed = load["failed"]
    correct = (failed == 0 and check["failed"] == 0 and load["warm_failed"] == 0
               and info["format_version"] == 5)
    context = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "inflight": load["inflight"], "machine": machine(build_dir, gen_core, daemon_cores),
        "host": {"steal_pct": m["host.steal_pct"],
                 "generator_cpu_pct": m["host.client_cpu_pct"],
                 "daemon_cpu_util": m["host.daemon_cpu_util"]},
        "setup": {"runs_s": setup_secs,
                  "spans_s": [{"gen": i["gen_s"], "build": i["build_s"],
                               "save": i["save_s"], "open": i["open_s"]}
                              for _, i in setups],
                  "graph": {"nodes": info["nodes"], "edges": info["edges"]}},
        "requests": {"attempted": load["completed"], "failed": failed,
                     "busy": load["busy"], "timeouts": load["timeouts"],
                     "errors": load["errors"], "inexact": load["inexact"],
                     "bad_epoch": load["bad_epoch"],
                     "fail_pct": 100.0 * failed / max(load["completed"], 1),
                     "latency_samples": load["lat_us"]["n"],
                     "p50_us": load["lat_us"]["p50"],
                     "p99_us": load["lat_us"]["p99"],
                     "p999_us": load["lat_us"]["p999"],
                     "updates_sent": load["updates_sent"]},
        "check": check,
    }
    print(json.dumps(context))

    if args.trace:
        t = trace_metrics(spans, trace_info)
        correct = correct and traced["failed"] == 0 and trace_info["mismatches"] == 0
        request_us = [(s["end"] - s["start"]) / 1e3
                      for s in traced_spans if s["name"] == "request"]
        layer = dict(m)
        layer.update(t)
        layer.update({
            "gen.graph_s": info["gen_s"], "core.build_s": info["build_s"],
            "core.save_s": info["save_s"], "setup.open_s": info["open_s"],
            "core.open_ms": info["open_ms"],
            "core.vicinity_entries": info["vicinity_entries"],
            "core.landmarks": info["landmarks"],
            "trace.overhead_us_p50": (percentile(request_us, 0.50) -
                                      m["client.p50_us"]),
        })
        metrics = {k: {"value": layer[k], "unit": u} for k, (u, _) in LAYERS.items()}
        for k, (u, moves) in LAYERS.items():
            print("layer %-36s %14.4f %-5s -> %s" % (k, layer[k], u, moves))
    else:
        e2e = {"setup_s": statistics.median(setup_secs),
               "cpu_us_per_req": m["cpu_us_per_req"],
               "index_mib": info["index_bytes"] / float(1 << 20),
               "rss_mib": m["rss_mib"]}
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"correct": bool(correct), "attempted": max(load["completed"], 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["uniform", "hot-cached", "mixed-rw"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
