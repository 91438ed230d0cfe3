#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload vm-locks --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The first run builds perfbench/ (and with
it the repository's libraries from src/) into .bench_build/perfbench and
runs the self-test; later runs rebuild only when a source changed.

Workloads (README.md says why each was chosen and which per-layer metric
should move which end-to-end metric):

  vm-locks     closed loop over colt, hedc, philo, tsp and multiset in the
               MiniJVM, 3 workers each, under a default-config
               GoldilocksDetector that checks every access.
  ingest       open loop of GoldClient sessions over shm to one ShmServer
               loop thread, 2 producer threads, fixed offered rates.
  vm-barriers  the same closed loop over lufact, moldyn, raytracer, sor and
               sor2. Not listed in BENCHMARK.json: its programs hit the
               deadline (the precise engine's spin-loop livelock), so it has
               failures by design. Run it by name to see them.

Each VM program run is a child process with a wall-clock deadline and a
memory cap; a run that hits either counts as failed, is charged the
deadline, and is never retried. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 prints the
end-to-end metrics that are gated, --trace 1 the per-layer ones and the
ungated wall-clock end-to-end ones (README.md). The "# conditions" and
"# host" lines before it record git rev, source digest, nproc, build type,
the default engine and service configs, the seed, and the share of CPU time
the host stole during the run.
"""

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"  # with assertions live, as the root CMakeLists does
MEASURE = os.path.join(BUILD, "perfbench_measure")
TRACES = os.path.join(BUILD, "traces")  # span files of the last traced run
SELFTEST = os.path.join(BUILD, "perfbench_selftest")

# --- workload definitions (fixed; later changes to them are benchmark PRs) --

# (program, scale): sized so that each takes a similar share of a pass,
# about 0.1-0.2 s under the detector on a 4-thread x86 host.
VM_PROGRAMS = {
    "vm-locks": [("colt", 2), ("hedc", 20), ("philo", 40), ("tsp", 40),
                 ("multiset", 1300)],
    "vm-barriers": [("lufact", 1), ("moldyn", 1), ("raytracer", 1),
                    ("sor", 1), ("sor2", 1)],
}
VM_DEADLINE_S = 5.0
VM_MEM_CAP_MB = 2048
VM_MIN_PASSES = 3

# Open loop: offered session rates (sessions/s) and the sessions each phase
# runs, chosen once from the capacity measured on a 4-thread host (about
# 1000 sessions/s) and then fixed: the nominal rate is a quarter of it, so a
# host that steals CPU does not push it into overload. The latency metrics
# come from the nominal rate. The saturating rate is far above capacity:
# every session is due at once, the producers run back to back, and the
# completion rate they reach is the sustained rate.
INGEST_NOMINAL_RATE = 250
INGEST_SESSIONS_PER_PHASE = 1000
INGEST_GROUPS = 4  # at --seconds 45; scaled linearly
INGEST_SATURATING_RATE = 100000
INGEST_SATURATING_SESSIONS = 1000
INGEST_DEADLINE_S = 150.0
INGEST_MEM_CAP_MB = 4096

WORKLOADS = ["vm-locks", "ingest", "vm-barriers"]

END_TO_END = {"cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "hook.share": "ratio", "vm.self_share": "ratio",
    "hook.access.calls": "count", "hook.access.ns_p50": "ns",
    "hook.access.ns_p99": "ns", "hook.lock.ns_p50": "ns",
    "hook.lock.ns_p99": "ns", "hook.fork_join.ns_p99": "ns",
    "hook.volatile.calls": "count", "hook.volatile.ns_p50": "ns",
    "hook.volatile.ns_p99": "ns", "hook.commit.ns_p50": "ns",
    "hook.commit.ns_p99": "ns",
    "engine.short_circuit_share": "ratio",
    "engine.pair_checks_per_access": "ratio",
    "engine.append_retries_per_append": "ratio",
    "engine.slot_fallbacks": "count", "engine.cells_appended": "count",
    "engine.walks_per_access": "ratio",
    "engine.cells_walked_per_walk": "ratio", "engine.gc_runs": "count",
    "engine.gc_freed_ratio": "ratio", "engine.list_len_end": "count",
    "engine.grace_waits": "count", "engine.tier_filtered_share": "ratio",
    "engine.escalations": "count", "vm.volatile_per_check": "ratio",
    "stm.commits": "count", "stm.retries_per_commit": "ratio",
    "client.publish.ns_p50": "ns", "client.publish.ns_p99": "ns",
    "client.close.ms_p50": "ms", "client.close.ms_p99": "ms",
    "client.backpressures": "count", "client.shed": "count",
    "shm.slots_per_frame": "ratio", "shm.doorbell_wakeups": "count",
    "service.ring_wait.us_p50": "us", "service.ring_wait.us_p99": "us",
    "service.wire.us_p99": "us", "service.apply.us_p50": "us",
    "service.apply.us_p99": "us", "gen.late_ms_p99": "ms",
    "vm.uninst_s": "s", "detector.slowdown": "x", "trace.overhead_x": "x",
    # End-to-end wall-clock metrics, reported but not gated: on a host
    # that steals CPU in bursts they track the steal, not the code
    # (README.md). verdict_ms_* and sustained_sessions_per_s read 0 on vm-*.
    "run_s": "s", "run_tail_x": "x", "verdict_ms_p50": "ms",
    "verdict_ms_p99": "ms", "sustained_sessions_per_s": "1/s",
}


class BenchError(Exception):
    pass


# --- statistics -------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(xs, q):
    """Exact order statistic of the samples themselves (no buckets)."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail(xs):
    """The highest of p99.9/p99/p95/p90/p80/p75/p50 that leaves at least ten
    samples beyond it, with that percentile's value."""
    for p in (99.9, 99, 95, 90, 80, 75, 50):
        if len(xs) * (1 - p / 100) >= 10:
            return p, nearest_rank(xs, p / 100)
    return 50, nearest_rank(xs, 0.5)


def ratio(num, den):
    return num / den if den else 0.0


# --- build and conditions ---------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    # bench/ holds BenchJson.h, which measure.cpp includes.
    for base in (os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"),
                 HERE):
        for dirpath, dirnames, files in os.walk(base):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".h", ".txt")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def run_quiet(argv, what):
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        raise BenchError("%s failed (exit %d)" % (what, r.returncode))
    return r.stdout


def build(digest):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no repository sources at %s/src: run from the root "
                         "of a checkout" % ROOT)
    stamp = os.path.join(BUILD, "source.digest")
    if os.path.isfile(MEASURE) and os.path.isfile(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                return
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], "cmake configure")
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], "build")
    run_quiet([SELFTEST], "perfbench self-test")
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git work tree)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# --- child processes --------------------------------------------------------

class Child:
    """Outcome of one perfbench_measure run under a deadline and memory cap."""

    def __init__(self):
        self.result = None      # parsed last stdout line, None on failure
        self.failure = ""       # why the run failed ("" when it did not)
        self.limit_hit = False  # deadline or memory cap
        self.maxrss_mb = 0.0
        self.cpu_s = 0.0        # user plus system time of all its threads


def rss_mb(pid):
    try:
        with open("/proc/%d/statm" % pid) as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return 0.0


def run_child(argv, deadline_s, mem_cap_mb, scratch):
    out_path = os.path.join(scratch, "child.out")
    c = Child()
    start = time.monotonic()
    with open(out_path, "w") as out:
        p = subprocess.Popen(argv, stdout=out)
    # The pidfd turns readable the moment the child exits, so the wall time
    # is exact; between checks of the limits it waits at most 10 ms.
    fd = os.pidfd_open(p.pid)
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    try:
        while not poller.poll(10):
            elapsed = time.monotonic() - start
            if elapsed > deadline_s or rss_mb(p.pid) > mem_cap_mb:
                c.limit_hit = True
                c.failure = ("deadline of %gs" % deadline_s
                             if elapsed > deadline_s
                             else "memory cap of %d MB" % mem_cap_mb)
                signal.pidfd_send_signal(fd, signal.SIGKILL)
                break
        _, status, usage = os.wait4(p.pid, 0)
    except BaseException:
        # Interrupted: leave no measuring process behind.
        signal.pidfd_send_signal(fd, signal.SIGKILL)
        os.wait4(p.pid, 0)
        raise
    finally:
        os.close(fd)
    p.returncode = os.waitstatus_to_exitcode(status)
    c.maxrss_mb = usage.ru_maxrss / 1024.0
    c.cpu_s = usage.ru_utime + usage.ru_stime
    if c.limit_hit:
        return c
    with open(out_path) as fh:
        lines = fh.read().splitlines()
    if p.returncode != 0 or not lines:
        c.failure = "perfbench_measure exited with %d" % p.returncode
        return c
    try:
        c.result = json.loads(lines[-1])
    except ValueError:
        c.failure = "perfbench_measure printed no result"
    return c


# --- VM workloads -----------------------------------------------------------

class VmRun:
    def __init__(self, program, mode, child, deadline_s):
        self.program = program
        self.mode = mode
        self.child = child
        r = child.result or {}
        self.ok = child.result is not None and r.get("ok", False)
        # Wrong output: the program ran to the end but its output was wrong.
        self.wrong = child.result is not None and not r.get("ok", False)
        self.failure = child.failure or r.get("failure", "")
        self.run_s = (r["run_ns"] / 1e9 if self.ok else deadline_s)
        self.setup_s = r.get("setup_s")
        self.result = r


def run_vm_workload(name, seed, seconds, trace, scratch):
    programs = VM_PROGRAMS[name]
    rng = random.Random(seed)
    # Untraced runs use the detector only; the traced run rotates passes
    # through detector, traced and uninstrumented modes.
    modes = ["detector"] if not trace else ["detector", "traced",
                                            "uninstrumented"]
    runs = []
    start = time.monotonic()
    passes = 0
    while True:
        for mode in modes:
            order = list(programs)
            rng.shuffle(order)
            for prog, scale in order:
                argv = [MEASURE, "vm", "--program", prog,
                        "--scale", str(scale), "--mode", mode]
                if mode == "traced":
                    argv += ["--spans", os.path.join(
                        TRACES, "hooks-%s-%s.json" % (name, prog))]
                child = run_child(argv, VM_DEADLINE_S, VM_MEM_CAP_MB, scratch)
                runs.append(VmRun(prog, mode, child, VM_DEADLINE_S))
        passes += 1
        if passes >= VM_MIN_PASSES and time.monotonic() - start >= seconds:
            break
    for r in runs:
        if not r.ok:
            sys.stderr.write("perfbench: %s %s (%s) failed: %s\n"
                             % (name, r.program, r.mode, r.failure))
    if trace:
        metrics = vm_layer_metrics(programs, runs)
    else:
        metrics = vm_end_to_end(programs, runs)
    return {
        "correct": not any(r.wrong for r in runs),
        "attempted": len(runs),
        "failed": sum(1 for r in runs if not r.ok),
        "metrics": metrics,
    }


def per_program(programs, runs, mode, key):
    """Sum over programs of the median of key(run) over that program's runs
    in the given mode."""
    total = 0.0
    for prog, _ in programs:
        vals = [key(r) for r in runs if r.program == prog and r.mode == mode]
        vals = [v for v in vals if v is not None]
        total += median(vals)
    return total


def vm_wall(programs, runs):
    """The ungated wall-clock metrics of the detector-mode runs: run_s and
    run_tail_x (verdict_ms_* and sustained_sessions_per_s are ingest's)."""
    runs = [r for r in runs if r.mode == "detector"]
    medians = {p: median([r.run_s for r in runs if r.program == p])
               for p, _ in programs}
    _, tail_x = tail([r.run_s / medians[r.program] for r in runs
                      if medians[r.program] > 0])
    return {"run_s": sum(medians.values()), "run_tail_x": tail_x}


def vm_end_to_end(programs, runs):
    return {
        "cpu_s": per_program(programs, runs, "detector",
                             lambda r: r.child.cpu_s),
        "peak_rss_mb": max(r.child.maxrss_mb for r in runs),
        "setup_s": per_program(programs, runs, "detector",
                               lambda r: r.setup_s),
    }


def sum_counters(stats_list):
    keys = set()
    for s in stats_list:
        keys.update(s)
    return {k: sum(s.get(k, 0) for s in stats_list) for k in keys}


def engine_metrics(e, per_pass):
    """Engine ratios from summed counters; counts are per pass (per_pass maps
    a stats key to its count for one pass over the workload's units)."""
    walks = e.get("filtered_walks", 0) + e.get("full_walks", 0)
    fast = (e.get("sc1_xact", 0) + e.get("sc2_same_thread", 0)
            + e.get("sc3_alock", 0))
    tier = e.get("tier_filtered", 0)
    return {
        "engine.short_circuit_share": ratio(fast, fast + walks),
        "engine.pair_checks_per_access": ratio(e.get("pair_checks", 0),
                                               e.get("accesses", 0)),
        "engine.append_retries_per_append": ratio(e.get("append_retries", 0),
                                                  e.get("sync_events", 0)),
        "engine.slot_fallbacks": per_pass("slot_fallbacks"),
        "engine.cells_appended": per_pass("sync_events"),
        "engine.walks_per_access": ratio(walks, e.get("accesses", 0)),
        "engine.cells_walked_per_walk": ratio(e.get("cells_walked", 0), walks),
        "engine.gc_runs": per_pass("gc_runs"),
        "engine.gc_freed_ratio": ratio(e.get("cells_freed", 0),
                                       e.get("cells_allocated", 0)),
        "engine.list_len_end": per_pass("list_len_end"),
        "engine.grace_waits": per_pass("grace_waits"),
        "engine.tier_filtered_share": ratio(tier,
                                            tier + e.get("pair_checks", 0)),
        "engine.escalations": per_pass("escalations"),
    }


def hook_metrics(hook_results, units):
    """Hook metrics from traced runs' "hooks" blocks: exact time, calls per
    unit (a pass over the programs, or one replayed input), and the median
    over runs of each run's exact span quantiles."""
    def calls(kind):
        return ratio(sum(h[kind]["calls"] for h in hook_results), units)

    def q(kind, which):
        return median([h[kind][which] for h in hook_results
                       if h[kind]["spans"]])

    hook_ns = sum(h[k]["ns"] for h in hook_results
                  for k in ("access", "lock", "volatile", "fork_join",
                            "commit", "other"))
    lifetime = sum(h["lifetime_ns"] for h in hook_results)
    share = ratio(hook_ns, lifetime)
    return {
        "hook.share": share,
        "vm.self_share": 1 - share if lifetime else 0.0,
        "hook.access.calls": calls("access"),
        "hook.access.ns_p50": q("access", "ns_p50"),
        "hook.access.ns_p99": q("access", "ns_p99"),
        "hook.lock.ns_p50": q("lock", "ns_p50"),
        "hook.lock.ns_p99": q("lock", "ns_p99"),
        "hook.fork_join.ns_p99": q("fork_join", "ns_p99"),
        "hook.volatile.calls": calls("volatile"),
        "hook.volatile.ns_p50": q("volatile", "ns_p50"),
        "hook.volatile.ns_p99": q("volatile", "ns_p99"),
        "hook.commit.ns_p50": q("commit", "ns_p50"),
        "hook.commit.ns_p99": q("commit", "ns_p99"),
    }


def vm_layer_metrics(programs, runs):
    m = {k: 0.0 for k in PER_LAYER}  # client/shm/service: not exercised
    instrumented = [r for r in runs if r.ok and r.mode != "uninstrumented"]
    traced = [r for r in runs if r.ok and r.mode == "traced"]
    e = sum_counters([r.result["engine"] for r in instrumented])

    def per_pass(key):
        def get(r):
            if key == "list_len_end":
                return r.result.get("list_len_end", 0)
            return r.result["engine"].get(key, 0)
        return per_program(programs, instrumented, "detector", get)

    m.update(engine_metrics(e, per_pass))
    m.update(hook_metrics([r.result["hooks"] for r in traced],
                          len(traced) / len(programs)))
    vm_totals = sum_counters([r.result["vm"] for r in instrumented])
    m["vm.volatile_per_check"] = ratio(vm_totals.get("volatile_accesses", 0),
                                       vm_totals.get("checked_accesses", 0))
    m["stm.commits"] = per_program(
        programs, instrumented, "detector",
        lambda r: r.result["vm"].get("txn_commits", 0))
    m["stm.retries_per_commit"] = ratio(
        vm_totals.get("txn_conflict_retries", 0),
        vm_totals.get("txn_commits", 0))
    m.update(vm_wall(programs, runs))
    det = m["run_s"]
    uninst = per_program(programs, runs, "uninstrumented", lambda r: r.run_s)
    traced_s = per_program(programs, runs, "traced", lambda r: r.run_s)
    m["vm.uninst_s"] = uninst
    m["detector.slowdown"] = ratio(det, uninst)
    m["trace.overhead_x"] = ratio(traced_s, det)
    return m


# --- ingest -----------------------------------------------------------------

def ingest_plan(seconds):
    """(rate, sessions) per phase, each phase on a fresh service: groups of
    two nominal phases and two saturating ones, so both kinds are spread
    over the run. The number of groups scales with --seconds."""
    groups = max(1, round(INGEST_GROUPS * seconds / 45))
    return ([(INGEST_NOMINAL_RATE, INGEST_SESSIONS_PER_PHASE)] * 2
            + [(INGEST_SATURATING_RATE, INGEST_SATURATING_SESSIONS)] * 2
            ) * groups


def phase_summary(ph):
    """Per-session latencies (ms) from due time, service times (s), and the
    generator's lateness (ms)."""
    due, start, done = ph["due_ns"], ph["start_ns"], ph["done_ns"]
    lat = [(d - u) / 1e6 for u, d in zip(due, done)]
    late = [(s - u) / 1e6 for u, s in zip(due, start)]
    service = [(d - s) / 1e9 for s, d in zip(start, done)]
    return lat, late, service


def pooled(phases, key):
    return [x for p in phases for x in key(p)]


def run_ingest(seed, seconds, trace, scratch):
    plan = ingest_plan(seconds)
    # The traced run traces every other nominal phase, so the untraced ones
    # between them give trace.overhead_x from the same run.
    nominal_index = [sum(1 for r, _ in plan[:i] if r == INGEST_NOMINAL_RATE)
                     for i in range(len(plan))]
    traced = [int(trace and rate == INGEST_NOMINAL_RATE and n % 2 == 0)
              for (rate, _), n in zip(plan, nominal_index)]
    argv = [MEASURE, "ingest", "--seed", str(seed),
            "--rates", ",".join(str(r) for r, _ in plan),
            "--sessions", ",".join(str(n) for _, n in plan),
            "--traced", ",".join(map(str, traced)), "--dir", scratch]
    child = run_child(argv, INGEST_DEADLINE_S, INGEST_MEM_CAP_MB, scratch)
    if child.result is None:
        raise BenchError("ingest run failed: %s" % child.failure)
    r = child.result
    phases = r["phases"]
    for p in phases:
        if p["failed"]:
            sys.stderr.write("perfbench: ingest at %d/s: %d failed, first: "
                             "%s\n" % (p["rate"], p["failed"],
                                       p["first_failure"]))
    nominal = [p for p in phases if p["rate"] == INGEST_NOMINAL_RATE]
    metrics = (ingest_layer_metrics(r, phases, nominal, scratch) if trace
               else ingest_end_to_end(r, nominal))
    return {
        # Shed actions and timed-out closes are failures; only verdicts
        # that differ from the oracle make the output incorrect.
        "correct": not any(p["wrong"] for p in phases),
        "attempted": sum(len(p["due_ns"]) for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": metrics,
    }


def kind_medians(nominal):
    """Median session service time (s) per trace kind."""
    service = pooled(nominal, lambda p: phase_summary(p)[2])
    kinds = pooled(nominal, lambda p: p["kind"])
    return {k: median([s for s, sk in zip(service, kinds) if sk == k])
            for k in set(kinds)}


def ingest_wall(phases, nominal):
    """The ungated wall-clock metrics over the given (untraced) nominal
    phases and the saturating phases."""
    kind_median = kind_medians(nominal)
    service = pooled(nominal, lambda p: phase_summary(p)[2])
    kinds = pooled(nominal, lambda p: p["kind"])
    latency = pooled(nominal, lambda p: phase_summary(p)[0])
    _, tail_x = tail([s / kind_median[k] for s, k in zip(service, kinds)])
    return {
        "run_s": sum(kind_median.values()),
        "run_tail_x": tail_x,
        "verdict_ms_p50": median(latency),
        "verdict_ms_p99": nearest_rank(latency, 0.99),
        # The completion rate of the saturating phases, median over them
        # (their failed sessions are counted in "failed").
        "sustained_sessions_per_s": median(
            [len(p["due_ns"]) / (p["elapsed_ns"] / 1e9) for p in phases
             if p["rate"] == INGEST_SATURATING_RATE]),
    }


def ingest_end_to_end(r, nominal):
    return {
        "cpu_s": median([p["cpu_ns"] / 1e9 for p in nominal]),
        "peak_rss_mb": median([p["peak_rss_bytes"] / 2**20 for p in nominal]),
        "setup_s": median(r["setup_s"]),
    }


def span_durations(path):
    """Durations (us) of the sampled pipeline spans, by stage name."""
    by_name = {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return by_name
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "X":
            by_name.setdefault(ev["name"], []).append(ev["dur"])
    return by_name


def ingest_layer_metrics(r, phases, all_nominal, scratch):
    m = {k: 0.0 for k in PER_LAYER}  # no VM and no STM runtime here
    traced = [p for p in all_nominal if p["traced"]]
    untraced = [p for p in all_nominal if not p["traced"]]
    m["trace.overhead_x"] = ratio(
        median(pooled(traced, lambda p: phase_summary(p)[0])),
        median(pooled(untraced, lambda p: phase_summary(p)[0])))
    m.update(ingest_wall(phases, untraced))
    late = pooled(traced, lambda p: phase_summary(p)[1])
    close_ms = pooled(traced, lambda p: [c / 1e6 for c in p["close_ns"]])
    spans = {}
    for p in traced:
        name = "spans-%d.json" % p["index"]
        path = os.path.join(TRACES, "ingest-" + name)
        if os.path.exists(os.path.join(scratch, name)):
            shutil.move(os.path.join(scratch, name), path)
        for stage, durs in span_durations(path).items():
            spans.setdefault(stage, []).extend(durs)
    e = sum_counters([s["engine"] for p in traced for s in p["shards"]])
    e["list_len_end"] = sum(p["list_len_end"] for p in traced)
    n = len(traced)
    m.update(engine_metrics(e, lambda k: e.get(k, 0) / n))
    m.update(hook_metrics([h["hooks"] for h in r["replay_hooks"]],
                          len(r["replay_hooks"])))
    m.update({
        "client.publish.ns_p50": median([p["publish_ns_p50"]
                                         for p in traced]),
        "client.publish.ns_p99": median([p["publish_ns_p99"]
                                         for p in traced]),
        "client.close.ms_p50": median(close_ms),
        "client.close.ms_p99": nearest_rank(close_ms, 0.99),
        "client.backpressures": sum(p["backpressures"] for p in traced) / n,
        "client.shed": sum(p["shed"] for p in traced) / n,
        "shm.slots_per_frame": ratio(
            sum(p["shm"]["slots_in"] for p in traced),
            sum(p["shm"]["frames_in"] for p in traced)),
        "shm.doorbell_wakeups": sum(p["shm"]["wakeups"] for p in traced) / n,
        "service.ring_wait.us_p50": median(spans.get("ring_wait", [])),
        "service.ring_wait.us_p99": nearest_rank(spans.get("ring_wait", []),
                                                 0.99),
        "service.wire.us_p99": nearest_rank(spans.get("wire", []), 0.99),
        "service.apply.us_p50": median(spans.get("apply", [])),
        "service.apply.us_p99": nearest_rank(spans.get("apply", []), 0.99),
        "gen.late_ms_p99": nearest_rank(late, 0.99),
    })
    return m


# --- main -------------------------------------------------------------------

def conditions(args, digest):
    cfg = json.loads(run_quiet([MEASURE, "config"], "config dump")
                     .splitlines()[-1])
    return {
        "git_rev": git_rev(), "source_digest": digest,
        "nproc": os.cpu_count(), "build_type": BUILD_TYPE + " (assertions "
        "live)", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **cfg,
        # The only setting the benchmark changes, on the service, not the
        # engine: the default 512 session slots are recycled only by
        # reincarnating every shard, so each ingest phase gets one per
        # session.
        "ingest_service_overrides": {
            "max_sessions": "sessions per phase + 16"},
    }


def cpu_jiffies():
    """(steal, total) jiffies over all CPUs from /proc/stat (zeros if
    unreadable): host contention a guest cannot see otherwise."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
        return fields[7], sum(fields[:8])
    except (OSError, ValueError, IndexError):
        return 0, 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    digest = source_digest() if os.path.isdir(os.path.join(ROOT, "src")) \
        else ""
    build(digest)
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(TRACES, exist_ok=True)
    steal0, total0 = cpu_jiffies()
    try:
        print("# conditions: " + json.dumps(conditions(args, digest),
                                            sort_keys=True))
        if args.workload == "ingest":
            res = run_ingest(args.seed, args.seconds, args.trace, scratch)
        else:
            res = run_vm_workload(args.workload, args.seed, args.seconds,
                                  args.trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    steal1, total1 = cpu_jiffies()
    print("# host: " + json.dumps({"steal_share": round(
        ratio(steal1 - steal0, total1 - total0), 4)}))
    units = PER_LAYER if args.trace else END_TO_END
    res["metrics"] = {k: {"value": float(res["metrics"][k]), "unit": units[k]}
                      for k in units}
    print(json.dumps(res))


if __name__ == "__main__":
    # A terminated run still kills and reaps its measuring process (run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        main()
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
