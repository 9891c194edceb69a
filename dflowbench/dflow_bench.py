#!/usr/bin/env python3
"""dflow's benchmark: four serving workloads, measured end to end and per layer.

Run from the root of a dflow checkout:

  python3 dflowbench/dflow_bench.py run [--workload=NAME] [--seed=S]
      [--seconds=N] [--trace=0|1 | --traced] [--out=DIR]
      [--expect-fingerprint=HEX]
  python3 dflowbench/dflow_bench.py compare PARENT_DIR CHANGE_DIR

`run` builds the benchmark package (dflowbench/CMakeLists.txt) into
.bench_build/ on first use, then for each workload starts the real
dflow_serve (and dflow_router) binaries on kernel-chosen ports, times their
set-up, warms them up with a fixed stream of requests, measures --seconds
slices of about a second, each one dflow_load run, checks the answers, and
stops every server with SIGTERM (each must drain and exit 0). Timings are
also reported at a reference machine speed (see REF_PROBE_US). It prints
every metric with its unit and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. Without --trace the metrics
are the end-to-end ones; with --trace=1 they are the per-layer ones
(BENCHMARK.json lists both). It exits nonzero when a check fails.

`compare` reads the result files two sets of `run --out` runs wrote and
judges every end-to-end metric on every workload (see compare()).
"""

import argparse
import json
import os
import queue
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "dflowbench"
# The repository's own targets build in the subdirectory CMakeLists.txt
# adds them under.
DFLOW_BIN = BUILD_DIR / "dflow"
RUN_DIR = BUILD_DIR / "run"
SPEC_FILE = ROOT / "BENCHMARK.json"

# Set-up is spawned this many times per run and reported as the median.
SETUPS = 15
# Requests [0, PREFIX) of a stream are what the correctness fingerprint and
# the paper's metrics are taken over (bench_ladder's kPrefix).
PREFIX = 8192
# dflow_load's --dist-seed names a request stream. The warm-up sends the
# fixed stream WARMUP_SEED in every run, and the paper's metrics are taken
# over its prefix, so they are exact. Run seed S owns the streams
# S * STREAMS + k: k = 0 is the prefix whose answers are checked, k >= 1 the
# window's slices, so no slice repeats another's requests and the warm-up
# answers none of them in advance.
WARMUP_SEED = 0xfeedfacecafebeef
STREAMS = 1000
# Timings at a reference speed. This benchmark runs on shared virtual
# machines whose speed drifts by tens of percent over seconds to minutes as
# other tenants' load comes and goes; no averaging inside a run removes
# that. So bench_probe (probe.cc: a thread ping-pong over a socket pair) is
# timed while every dflow process is idle: before and after every slice of
# the window, and before every set-up. A time measured while the probe read
# `p` us is reported as time * REF_PROBE_US / p, as if the probe had read
# REF_PROBE_US: a typical reading, wall or CPU, on the 4-vCPU virtual
# machine the bounds were set on, while no other tenant held its CPUs.
REF_PROBE_US = 16.0
# Which of the probe's readings a timing is taken at. Throughput counts
# answers per wall second, and the p99 tail is the requests that met a
# stall, so both include the time other tenants held the CPU, as the
# probe's wall time does. The median request, CPU time and set-up see only
# how fast the CPU runs while the benchmark has it, as the probe's CPU time
# does, which leaves that time out.
WALL_TIMED = {"throughput_rps", "latency_p99_us"}
TIME_UNITS = {"s", "us", "ns"}
# Micro case -> (binary, per-layer metric, divisor of real_time in ns).
# BM_InstanceExecution/3 is PSE100; a simulator case runs 10000 events.
MICRO_CASES = {
    "BM_PrequalifierPass": ("bench_micro_benchmarks", "core.prequal_pass_ns",
                            1),
    "BM_InstanceExecution/3": ("bench_micro_benchmarks", "core.instance_ns",
                               1),
    "BM_SimulatorEventThroughput": ("bench_micro_benchmarks", "sim.event_ns",
                                    10000),
    "BM_WireEncodeSubmit": ("bench_micro", "net.wire.encode_submit_ns", 1),
    "BM_WireDecodeSubmitResult": ("bench_micro", "net.wire.decode_result_ns",
                                  1),
    "BM_ResultCacheProbeHit": ("bench_micro", "runtime.cache.probe_ns", 1),
}
LISTENING = re.compile(r"listening on 127\.0\.0\.1:(\d+)")
# The counters dflow_serve and dflow_router print when they drain.
DRAIN_REPORT = {
    "dflow_serve": {
        "cache": (r"^cache\s+(\d+) hits, (\d+) misses",
                  ("cache_hits", "cache_misses")),
        "ingress": (r"^ingress\s.*\b(\d+) decode errors, (\d+) protocol errors",
                    ("decode_errors", "protocol_errors")),
    },
    "dflow_router": {
        "routed": (r"^routed\s+(\d+) submits", ("submits",)),
        "front": (r"^front\s.*\b(\d+) decode errors, (\d+) protocol errors",
                  ("decode_errors", "protocol_errors")),
        "fleet": (r"^fleet\s+replicas=\d+ failovers=(\d+) divergence: "
                  r"(\d+) checks, (\d+) mismatches",
                  ("failovers", "divergence_checks", "divergence_mismatches")),
    },
}


class Workload:
    """One traffic mix: the servers it runs against and the load it sends."""

    def __init__(self, serve, load, slice_flags, dist, distinct, warmup,
                 routed=False):
        # dflow_serve settings, also replayed in-process by bench_ladder.
        self.serve = serve
        # dflow_load's loop discipline, and what one slice of it is.
        self.load = load
        self.slice_flags = slice_flags
        self.dist = dist
        self.distinct = distinct
        # Warm-up requests: about two seconds of this workload's load, and
        # at least the PREFIX the paper metrics are taken over.
        self.warmup = warmup
        self.routed = routed
        self.open_loop = "--mode=open" in load

    def serve_flags(self):
        s = self.serve
        return [f"--shards={s['shards']}", f"--strategy={s['strategy']}",
                f"--backend={s['backend']}", f"--cache={s['cache']}",
                "--event-threads=1"]

    def ladder_flags(self):
        s = self.serve
        flags = [f"--shards={s['shards']}", f"--strategy={s['strategy']}",
                 f"--cache={s['cache']}"]
        if s["strategy"] == "AUTO":
            flags.append(f"--advisor-calibration={Fleet.calibration(0)}")
        return flags + (["--bounded"] if s["backend"] == "bounded" else [])

    def stream_flags(self, stream):
        return [f"--dist={self.dist}", f"--distinct={self.distinct}",
                f"--dist-seed={stream}"]


def stream(seed, k):
    """The dflow_load stream of slice k of run seed `seed` (k = 0: the
    checked prefix)."""
    return seed * STREAMS + k


# Why each workload exists is recorded in BENCHMARK.json and README.md.
ENGINE = {"shards": 2, "strategy": "PSE100", "backend": "infinite",
          "cache": 256}
BACKEND = {"shards": 1, "strategy": "AUTO", "backend": "bounded",
           "cache": 4096}
ONE_SECOND = ["--duration=1"]
WORKLOADS = {
    "engine_unique": Workload(ENGINE, ["--mode=closed", "--connections=2"],
                              ONE_SECOND, "uniform", 1 << 30, warmup=20_000),
    "hot_singleton": Workload(ENGINE, ["--mode=closed", "--connections=2"],
                              ONE_SECOND, "zipf:0.99", 256, warmup=80_000),
    # dflow_load's swarm mode runs to a request count, not a deadline: a
    # slice is about a second of it.
    "hot_batch": Workload(ENGINE, ["--mode=swarm", "--connections=2",
                                   "--swarm-threads=2", "--batch=32"],
                          ["--requests=131072"], "zipf:0.99", 256,
                          warmup=300_000),
    # The routed fleet's closed-loop capacity at 4 connections was 11.4k
    # req/s while the machine ran 1.6x slower than usual, where 8000 req/s
    # queued up to 9 ms at p99. 4000 req/s stays under 35% of it, so the
    # open loop builds no backlog at any speed seen.
    "routed_mixed": Workload(BACKEND, ["--mode=open", "--connections=1",
                                       "--rate=4000"],
                             ONE_SECOND, "hotset:64:80", 1_000_000,
                             warmup=10_000, routed=True),
}
ROUTER_FLAGS = ["--replicas=2", "--divergence-sample=16", "--event-threads=1"]


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark package."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"{ROOT} holds no dflow sources")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=900)


class Server:
    """One child process; a thread drains its output."""

    live = []  # every Server not yet stopped, for the emergency teardown

    def __init__(self, name, argv):
        self.name = name
        self.proc = subprocess.Popen([str(a) for a in argv],
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        Server.live.append(self)
        self.output = []
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.port = None

    def _read(self):
        for line in self.proc.stdout:
            self.output.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def wait_ready(self, timeout=60):
        deadline = time.monotonic() + timeout
        while self.port is None:
            try:
                line = self.lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError(f"{self.name} not listening after {timeout}s")
            if line is None:
                raise BenchError(f"{self.name} exited before listening:\n"
                                 + "".join(self.output))
            match = LISTENING.search(line)
            if match:
                self.port = int(match.group(1))

    def stop(self, timeout=30):
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.reader.join()
        Server.live.remove(self)
        return code

    def drain_report(self):
        """The counters the server printed when it drained, or None."""
        text = "".join(self.output)
        report = {}
        for pattern, keys in DRAIN_REPORT[self.name.split("#")[0]].values():
            match = re.search(pattern, text, re.M)
            if match is None:
                return None
            report.update(zip(keys, map(int, match.groups())))
        return report


class Fleet:
    """The servers of one workload: one dflow_serve, or a router over two."""

    def __init__(self, workload, traced=False):
        self.workload = workload
        self.trace_flags = ["--trace-sample=1"] if traced else []
        self.backends = []
        self.router = None
        self.reports = {}

    @staticmethod
    def calibration(i):
        """The cost model AUTO backend i writes, for bench_ladder to make the
        served choices."""
        return RUN_DIR / f"backend{i}.model"

    def start(self):
        """Spawns every server; returns seconds until all are ready."""
        count = 2 if self.workload.routed else 1
        extra = [[] for _ in range(count)]
        if self.workload.serve["strategy"] == "AUTO":
            RUN_DIR.mkdir(parents=True, exist_ok=True)
            for i in range(count):
                # dflow_serve loads the file when it exists; calibrate anew.
                self.calibration(i).unlink(missing_ok=True)
                extra[i] = [f"--advisor-calibration={self.calibration(i)}"]
        t0 = time.perf_counter()
        self.backends = [
            Server(f"dflow_serve#{i}",
                   [DFLOW_BIN / "dflow_serve", "--port=0",
                    *self.workload.serve_flags(), *self.trace_flags, *extra[i]])
            for i in range(count)]
        for server in self.backends:
            server.wait_ready()
        if self.workload.routed:
            ports = ",".join(str(s.port) for s in self.backends)
            self.router = Server("dflow_router",
                                 [DFLOW_BIN / "dflow_router", "--port=0",
                                  f"--backends={ports}", *ROUTER_FLAGS,
                                  *self.trace_flags])
            self.router.wait_ready()
        return time.perf_counter() - t0

    @property
    def servers(self):
        return ([self.router] if self.router else []) + self.backends

    @property
    def entry(self):
        return self.router or self.backends[0]

    def stop(self, checks):
        """Stops the router, then the backends; each must drain, exit 0 and
        report no decode or protocol errors, and the router no divergence
        mismatches and no failovers. The drain reports stay in `reports`."""
        for server in self.servers:
            code = server.stop()
            checks.expect(code == 0, f"{server.name} exited {code}:\n"
                          + "".join(server.output[-20:]))
            report = server.drain_report()
            self.reports[server.name] = report
            if report is None:
                checks.failures.append(f"{server.name} printed no drain report")
                continue
            checks.expect(report["decode_errors"] == 0 and
                          report["protocol_errors"] == 0,
                          f"{server.name}: {report['decode_errors']} decode / "
                          f"{report['protocol_errors']} protocol errors")
            if server is self.router:
                checks.expect(report["divergence_mismatches"] == 0,
                              f"{report['divergence_mismatches']} replica "
                              "divergence mismatches")
                checks.expect(report["failovers"] == 0,
                              f"{report['failovers']} failovers")


def run_json(argv, timeout, ok_codes=(0,)):
    done = subprocess.run([str(a) for a in argv], capture_output=True,
                          text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in ok_codes or not lines:
        raise BenchError(f"{Path(str(argv[0])).name} exited "
                         f"{done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def probe():
    """The speed probe, timed once: its wall and CPU us per round trip."""
    report = run_json([BUILD_DIR / "bench_probe"], timeout=30)
    return {"wall": report["probe_us"], "cpu": report["probe_cpu_us"]}


def dflow_load(port, workload, stream_seed, flags):
    """One dflow_load run of `workload`'s stream `stream_seed` against
    `port`; its JSON report. A run whose requests failed exits 1 and still
    reports; the callers count the failures."""
    return run_json([DFLOW_BIN / "dflow_load", f"--port={port}", *flags,
                     *workload.stream_flags(stream_seed), "--json"],
                    timeout=120, ok_codes=(0, 1))


def replay(port, workload, seed):
    """Requests [0, PREFIX) of the run's checked stream, one at a time on
    one connection: dflow_load's workload_fingerprint is then the prefix
    fingerprint. A ladder row is the second of two replays, so every cache
    on the path holds what it can of the prefix, as in the in-process rows."""
    return dflow_load(port, workload, stream(seed, 0),
                      ["--mode=closed", "--connections=1",
                       f"--requests={PREFIX}"])


def ladder(workload, stream_seed, reference):
    argv = [BUILD_DIR / "bench_ladder", *workload.stream_flags(stream_seed),
            *workload.ladder_flags()]
    return run_json(argv + (["--reference"] if reference else []),
                    timeout=120)


def micro():
    metrics = {}
    for binary in sorted({b for b, _, _ in MICRO_CASES.values()}):
        path = (DFLOW_BIN if binary == "bench_micro_benchmarks"
                else BUILD_DIR) / binary
        if not path.exists():
            raise BenchError(f"{binary} was not built (Google Benchmark "
                             "missing); the traced run needs it")
        cases = [c for c, (b, _, _) in MICRO_CASES.items() if b == binary]
        done = subprocess.run(
            [str(path), "--benchmark_format=json", "--benchmark_min_time=0.2",
             "--benchmark_filter=" + "|".join(f"^{c}$" for c in cases)],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"{binary} exited {done.returncode}")
        for case in json.loads(done.stdout)["benchmarks"]:
            if case.get("error_occurred"):
                raise BenchError(f"{case['name']}: {case.get('error_message')}")
            _, name, divisor = MICRO_CASES[case["name"]]
            if case["time_unit"] != "ns":
                raise BenchError(f"{case['name']}: unit {case['time_unit']}")
            metrics[name] = case["real_time"] / divisor
    return metrics


class Checks:
    """Accumulates the correctness failures of one run."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)

    def answered(self, report, what):
        """Every request of a quota-bound dflow_load run was answered."""
        self.expect(report["ok"] == report["requests"],
                    f"only {report['ok']}/{report['requests']} {what} "
                    "requests answered")

    def fingerprint(self, got, want, what):
        self.expect(got == want, f"prefix fingerprint {got} != {want} ({what})")


def process_cpu_s(pid):
    """CPU seconds (user + system) process `pid` has used."""
    with open(f"/proc/{pid}/stat") as f:
        # utime and stime are the 14th and 15th fields; the command name
        # before them is parenthesised and may hold spaces.
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def children_cpu_s():
    """CPU seconds of every finished child of this process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM for process {pid}")


def slice_series(values, probes):
    """(value, slowdown) of each slice: slice k is timed against the mean of
    probe readings k and k + 1, taken just before and just after it."""
    return [(v, (probes[k] + probes[k + 1]) / 2 / REF_PROBE_US)
            for k, v in enumerate(values)]


class Window:
    """A warm-up, then `slices` slices of `workload`'s load against `fleet`.

    Each slice is one dflow_load run of its own stream, bracketed by reads
    of every server's CPU time and of dflow_load's, and followed by a speed
    probe while the fleet is idle."""

    def __init__(self, workload, seed, slices, fleet, checks):
        entry = fleet.entry.port
        warm = dflow_load(entry, workload, WARMUP_SEED,
                          [*workload.load, f"--requests={workload.warmup}"])
        checks.answered(warm, "warm-up")
        pids = [server.proc.pid for server in fleet.servers]
        # Memory when the window opens: the warm-up is a fixed request count,
        # so everything a server grows per request has the same size on
        # every run, while at the window's end it would depend on the
        # machine's speed.
        self.rss_kb = sum(peak_rss_kb(pid) for pid in pids)
        self.probes = [probe()]
        self.slices = []
        for k in range(1, slices + 1):
            before = [process_cpu_s(pid) for pid in pids], children_cpu_s()
            report = dflow_load(entry, workload, stream(seed, k),
                                [*workload.load, *workload.slice_flags])
            after = [process_cpu_s(pid) for pid in pids], children_cpu_s()
            report["cpu_s"] = dict(zip(pids, (b - a for a, b in
                                              zip(before[0], after[0]))))
            report["client_cpu_s"] = after[1] - before[1]
            self.slices.append(report)
            self.probes.append(probe())

    def total(self, key):
        return sum(s[key] for s in self.slices)

    @property
    def sent(self):
        return self.total("requests")

    @property
    def ok(self):
        return self.total("ok")

    def cpu_s(self, servers=(), client=False):
        """CPU seconds of `servers` (and of dflow_load) in the window."""
        return (sum(s["cpu_s"][server.proc.pid] for s in self.slices
                    for server in servers)
                + (self.total("client_cpu_s") if client else 0.0))

    def per_slice(self):
        """Each end-to-end timing of each slice."""
        out = {"throughput_rps": [], "latency_p50_us": [],
               "latency_p99_us": [], "cpu_us_per_req": []}
        for s in self.slices:
            ok = max(1, s["ok"])
            out["throughput_rps"].append(s["ok"] / s["wall_s"])
            out["latency_p50_us"].append(s["wall_latency_p50_us"])
            out["latency_p99_us"].append(s["wall_latency_p99_us"])
            out["cpu_us_per_req"].append(
                1e6 * (sum(s["cpu_s"].values()) + s["client_cpu_s"]) / ok)
        return out

    def series(self, name):
        kind = "wall" if name in WALL_TIMED else "cpu"
        return slice_series(self.per_slice()[name],
                            [p[kind] for p in self.probes])

    def stage_means(self):
        """Mean microseconds of each span kind over the traced answers, and
        how many answers carried it."""
        totals = {}
        for s in self.slices:
            for kind, stage in s["stages"].items():
                count, us = totals.get(kind, (0, 0.0))
                totals[kind] = (count + stage["count"],
                                us + stage["count"] * stage["mean_us"])
        return {kind: (us / count, count)
                for kind, (count, us) in totals.items() if count}


def run_untraced(name, seed, seconds, expect_fingerprint):
    workload = WORKLOADS[name]
    checks = Checks()
    setups, setup_probes = [], []
    for i in range(SETUPS):
        setup_probes.append(probe())
        fleet = Fleet(workload)
        setups.append(fleet.start())
        if i + 1 < SETUPS:
            fleet.stop(checks)
    try:
        window = Window(workload, seed, seconds, fleet, checks)
        served = replay(fleet.entry.port, workload, seed)
        direct = (replay(fleet.backends[0].port, workload, seed)
                  if workload.routed else None)
    finally:
        fleet.stop(checks)
    reference = ladder(workload, stream(seed, 0), reference=True)["l1"]
    paper = ladder(workload, WARMUP_SEED, reference=True)["l1"]
    checks.answered(served, "prefix")
    checks.fingerprint(served["workload_fingerprint"],
                       expect_fingerprint or reference["fingerprint"],
                       "--expect-fingerprint" if expect_fingerprint
                       else "in-process FlowServer")
    if direct is not None:
        # Routed must equal direct: the same prefix straight to a backend.
        checks.answered(direct, "direct prefix")
        checks.fingerprint(served["workload_fingerprint"],
                           direct["workload_fingerprint"],
                           "direct-to-backend run")
    # Timings as (value, slowdown) samples: medians over the window's
    # slices, so a stall shorter than half the window cannot move them, and
    # over the set-ups.
    series = {metric: window.series(metric) for metric in window.per_slice()}
    series["setup_s"] = [(t, p["cpu"] / REF_PROBE_US)
                         for t, p in zip(setups, setup_probes)]
    raw = {metric: statistics.median(v for v, _ in samples)
           for metric, samples in series.items()}
    raw.update({
        "ok_frac": window.ok / max(1, window.sent),
        # The paper's metrics over the warm-up stream's prefix: the same
        # requests in every run, so the values are exact.
        "sim_work_per_req": paper["work_mean"],
        "sim_time_per_req": paper["time_mean"],
        "peak_rss_mb": window.rss_kb / 1024.0,
    })
    per_slice = f"median of {len(window.slices)} slices"
    notes = {"throughput_rps": per_slice,
             "latency_p50_us": per_slice,
             "latency_p99_us": f"{per_slice} of ~{window.ok // seconds} "
                               "answers",
             "cpu_us_per_req": per_slice,
             "setup_s": f"median of {SETUPS} set-ups"}
    return checks, window, raw, series, notes


def at_reference_speed(value, unit, slowdown, open_loop):
    """`value`, measured on a machine `slowdown` times slower than the
    reference, as the reference machine would have measured it. An open
    loop's throughput is its offered rate, which no speed moves."""
    if unit in TIME_UNITS:
        return value / slowdown
    if unit == "req/s" and not open_loop:
        return value * slowdown
    return value


def median_at_reference_speed(samples, unit, open_loop):
    return statistics.median(at_reference_speed(v, unit, s, open_loop)
                             for v, s in samples)


def run_traced(name, seed, seconds):
    """Half the window untraced, half traced, then the ladder rows and the
    micro cases below them."""
    workload = WORKLOADS[name]
    checks = Checks()
    fleet = Fleet(workload)
    fleet.start()
    try:
        plain = Window(workload, seed, seconds // 2, fleet, checks)
        replay(fleet.entry.port, workload, seed)
        top = replay(fleet.entry.port, workload, seed)
        if workload.routed:
            l4 = top
            l2 = replay(fleet.backends[0].port, workload, seed)
        else:
            l2, l4 = top, None
    finally:
        fleet.stop(checks)
    fleet_traced = Fleet(workload, traced=True)
    fleet_traced.start()
    try:
        traced = Window(workload, seed, seconds - seconds // 2, fleet_traced,
                        checks)
    finally:
        fleet_traced.stop(checks)
    rows = ladder(workload, stream(seed, 0), reference=False)
    micros = micro()

    want = l2["workload_fingerprint"]
    for report, what in ((l2, "L2"), (l4, "L4")):
        if report is not None:
            checks.answered(report, f"{what} prefix")
    if l4 is not None:
        checks.fingerprint(l4["workload_fingerprint"], want, "L4 replay")
    checks.fingerprint(rows["l1"]["fingerprint"], want, "L1 FlowServer")
    checks.fingerprint(rows["l0"]["fingerprint"], want, "L0 FlowHarness")

    stages = traced.stage_means()

    def stage(kind):
        return stages.get(kind, (0.0, 0))[0]

    # router.forward covers the answering backend's whole pipeline; what it
    # covers beyond the backend's own spans is the routing hop's own time.
    forward_us, forwarded = stages.get("router.forward", (0.0, 0))
    backend_us = sum(us * count for kind, (us, count) in stages.items()
                     if kind != "router.forward")
    forward_self = forward_us - backend_us / forwarded if forwarded else 0.0
    ok = max(1, plain.ok)
    backends = fleet.backends
    # The cache counters over the traced fleet's life: its warm-up and window.
    counts = [fleet_traced.reports.get(s.name) or {} for s in
              fleet_traced.backends]
    hits = sum(c.get("cache_hits", 0) for c in counts)
    misses = sum(c.get("cache_misses", 0) for c in counts)
    router = fleet.reports.get("dflow_router") or {}
    l0, l1 = rows["l0"]["exec_us"]["p50"], rows["l1"]["latency_us"]["p50"]
    l2_p50 = l2["wall_latency_p50_us"]
    # CPU per request, not throughput: an open loop's throughput is its
    # offered rate, traced or not. The halves ran at different times, so
    # each is taken at the reference speed.
    plain_cpu, traced_cpu = (
        median_at_reference_speed(w.series("cpu_us_per_req"), "us",
                                  workload.open_loop)
        for w in (plain, traced))
    metrics = {
        "core.exec_us_p50": l0,
        "core.exec_us_p99": rows["l0"]["exec_us"]["p99"],
        "sim.events_per_req": rows["l0"]["events_per_req"],
        "runtime.submit_to_result_us_p50": l1,
        "runtime.hop_us_p50": l1 - l0,
        "runtime.queue_wait_us_mean": stage("shard.queue_wait"),
        "runtime.harness_exec_us_mean": stage("harness.exec"),
        "runtime.cache.hit_rate": hits / max(1, hits + misses),
        "runtime.cache.lookup_us_mean": stage("cache.lookup"),
        "opt.choose_us_mean": stage("advisor.choose"),
        "net.wire.bytes_per_req":
            (plain.total("bytes_sent") + plain.total("bytes_received"))
            / max(1, plain.sent),
        "net.ingress.queue_us_mean": stage("ingress.queue"),
        "net.ingress.outbox_us_mean": stage("outbox.write"),
        "net.ingress.hop_us_p50": l2_p50 - l1,
        "net.ingress.cpu_us_per_req": 1e6 * plain.cpu_s(backends) / ok,
        "net.client.cpu_us_per_req": 1e6 * plain.cpu_s(client=True) / ok,
        "net.router.forward_self_us_mean": forward_self,
        "net.router.hop_us_p50":
            l4["wall_latency_p50_us"] - l2_p50 if l4 else 0.0,
        "net.router.cpu_us_per_req":
            1e6 * plain.cpu_s([fleet.router]) / ok if fleet.router else 0.0,
        "net.router.shadow_frac":
            router.get("divergence_checks", 0) / max(1, router["submits"])
            if router else 0.0,
        "net.router.failovers": router.get("failovers", 0),
        "obs.trace_overhead_pct": 100.0 * (traced_cpu - plain_cpu) / plain_cpu,
        **micros,
    }
    attempted = plain.sent + traced.sent
    failed = attempted - plain.ok - traced.ok
    return checks, attempted, failed, metrics


def load_spec():
    with open(SPEC_FILE) as spec:
        return json.load(spec)


def run_one(spec, name, args):
    print(f"== {name} (seed {args.seed}, {args.seconds} slices"
          f"{', traced' if args.trace else ''}) ==", flush=True)
    notes, series = {}, {}
    if args.trace:
        checks, attempted, failed, raw = run_traced(
            name, args.seed, args.seconds)
        defs = spec["per_layer"]
    else:
        checks, window, raw, series, notes = run_untraced(
            name, args.seed, args.seconds, args.expect_fingerprint)
        attempted, failed = window.sent, window.sent - window.ok
        defs = spec["end_to_end"]
    result = {"correct": not checks.failures, "attempted": attempted,
              "failed": failed, "metrics": {}}
    for d in defs:
        value = raw[d["name"]]
        if d["name"] in series:
            value = median_at_reference_speed(series[d["name"]], d["unit"],
                                              WORKLOADS[name].open_loop)
        result["metrics"][d["name"]] = {"value": value, "unit": d["unit"]}
        note = f"raw {raw[d['name']]!r}; " if value != raw[d["name"]] else ""
        print(f"{d['name']:<32} {value!r:>24} {d['unit']:<8} "
              f"{note}{notes.get(d['name'], '')}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{args.seed}-trace{int(args.trace)}"
        index = len(list(out.glob(stem + "-*.json")))
        with open(out / f"{stem}-{index:03d}.json", "w") as f:
            json.dump({"workload": name, "seed": args.seed, "index": index,
                       "trace": int(args.trace), "raw": raw,
                       "series": series, "result": result}, f)
    print(json.dumps(result), flush=True)
    return result["correct"] and failed == 0


def cmd_run(args):
    spec = load_spec()
    names = [args.workload] if args.workload else list(WORKLOADS)
    build()
    ok = True
    for name in names:
        ok = run_one(spec, name, args) and ok
    return 0 if ok else 1


# --- compare: the pairing rule over two sets of runs.

def judge(parent, change, better, bound):
    """Verdict for one metric on one workload.

    `parent` and `change` are the metric's values from runs made in
    alternating order, paired by position. A win needs at least 10 pairs,
    the change better in at least 9/10 of them (ties count for neither),
    and medians further apart than the parent's interquartile range.
    Otherwise the change must not be worse than the parent's median by more
    than `bound` (a share of it). Where the parent's spread exceeds the
    bound, the metric is unresolved unless every change run beats every
    parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [med_p] * 3
    iqr = q[2] - q[0]
    scale = abs(med_p)
    spread = iqr / scale if scale else (0.0 if iqr == 0 else float("inf"))
    gain = sign * (med_c - med_p)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    row = {"parent_median": med_p, "change_median": med_c, "parent_iqr": iqr,
           "pairs": len(pairs), "wins": wins}
    if spread > bound and not all_better:
        return "unresolved", row
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > iqr:
        return "win", row
    if -gain > bound * scale:
        return "regression", row
    return "same", row


def load_runs(directory):
    """{workload: {(seed, index): record}} of the untraced runs in
    `directory`."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            record = json.load(f)
        if record["trace"] == 0:
            key = (record["seed"], record["index"])
            runs.setdefault(record["workload"], {})[key] = record
    return runs


def compare(parent_runs, change_runs, metric_defs):
    """Judges every end-to-end metric on every workload of either side.

    Runs pair by (seed, run index), so a pair measured the same inputs.
    Each metric is judged on its values at the reference speed, and again
    on its raw values: a raw regression counts as one, and a win must also
    win 9/10 of the raw pairs, so the speed correction can neither hide a
    regression nor make a gain.

    Returns (rows, ok): rows are (workload, metric, verdict, detail) and ok
    is False on any regression, a workload without pairs, or a change that
    fails more operations than the parent.
    """
    rows, ok = [], True
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, {})
        change = change_runs.get(workload, {})
        keys = sorted(set(parent) & set(change))
        if not keys:
            rows.append((workload, "-", "missing",
                         {"parent_runs": len(parent),
                          "change_runs": len(change)}))
            ok = False
            continue
        parent = [parent[key] for key in keys]
        change = [change[key] for key in keys]
        failed_p = sum(r["result"]["failed"] for r in parent)
        failed_c = sum(r["result"]["failed"] for r in change)
        more_failures = failed_c > failed_p
        if more_failures or any(not r["result"]["correct"] for r in change):
            rows.append((workload, "failed", "regression",
                         {"parent": failed_p, "change": failed_c}))
            ok = False
        for d in metric_defs:
            def values(runs, raw):
                return [r["raw"][d["name"]] if raw else
                        r["result"]["metrics"][d["name"]]["value"]
                        for r in runs]

            verdict, detail = judge(values(parent, False),
                                    values(change, False), d["better"],
                                    d["bound"])
            raw_verdict, raw_detail = judge(values(parent, True),
                                            values(change, True), d["better"],
                                            d["bound"])
            detail["raw"] = raw_verdict
            if raw_verdict == "regression":
                verdict = "regression"
            elif verdict == "win" and (raw_detail["wins"] < 0.9 * len(keys)
                                       or more_failures):
                verdict = "same"
            ok = ok and verdict != "regression"
            rows.append((workload, d["name"], verdict, detail))
    return rows, ok


def cmd_compare(args):
    spec = load_spec()
    rows, ok = compare(load_runs(args.parent), load_runs(args.change),
                       spec["end_to_end"])
    for workload, metric, verdict, detail in rows:
        print(f"{workload:<14} {metric:<18} {verdict:<11} "
              + " ".join(f"{k}={v!r}" for k, v in detail.items()))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", choices=list(WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=20,
                     help="measured slices of about a second each; a traced "
                          "run measures half untraced and half traced")
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--traced", dest="trace", action="store_const", const=1)
    run.add_argument("--out", help="also write each result into this dir")
    run.add_argument("--expect-fingerprint",
                     help="check the prefix fingerprint against this hex "
                          "value instead of the reference run")
    cmp = sub.add_parser("compare", help="parent vs change, pairing rule")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "run" and not 2 <= args.seconds < STREAMS:
        parser.error(f"--seconds must be from 2 to {STREAMS - 1}")
    if args.command == "run" and args.seed < 0:
        parser.error("--seed must not be negative")
    if (args.command == "run" and
            stream(args.seed, 0) <= WARMUP_SEED < stream(args.seed + 1, 0)):
        parser.error("--seed would name the warm-up's stream")
    # SIGTERM unwinds like an error, so the servers are still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return cmd_run(args) if args.command == "run" else cmd_compare(args)
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as error:
        log(f"dflow_bench: {error}")
        return 2
    finally:
        for server in list(Server.live):
            server.stop(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
