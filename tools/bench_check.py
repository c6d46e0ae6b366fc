#!/usr/bin/env python3
"""Benchmark regression gate: fail CI when the engine got slower.

Compares a current benchmark run against the committed baseline
(BENCH_engine.json at the repo root) and exits non-zero when any gated
benchmark regressed by more than the threshold (default 15%).

Gated benchmarks — the engine cost centers this repo optimizes:
    BM_SchedulerScheduleRun/*   event queue push/pop throughput
    BM_SchedulerCancel          lazy-cancellation path
    BM_DumbbellSimulation/*     end-to-end simulation throughput
    BM_ScaleFlowsParallel/*     parallel (multi-LP) harness throughput
    BM_ScaleFlowsEngine/*       conservative engine on the clustered mesh,
                                plus the parallel-efficiency gate
    BM_BatchDelivery/*          batched vs unbatched forwarding hot path
    BM_ScaleFlowsDumbbell/*     many-flow dumbbell, batched + unbatched rows
    BM_ScaleFlowsChurn/*        dynamic flow lifecycle churn sweep
    BM_TelemetryTap/*           link-tap reordering telemetry overhead

Churn rows carry their own machine-independent gates: bytes_per_slot must
stay inside the per-slot slab budget (128 = 2x the asserted 64-byte
budget, the factor covering vector capacity growth), completed_frac
>= 0.9 proves the workload reached steady state instead of accumulating
flows, and peak_rss_bytes stays under a hard ceiling. The million-flow
row (BM_ScaleFlows1M, produced by nightly — the PR bench job skips it via
bench_engine.py --skip-1m) is gated the same way on its memory columns
(peak_concurrent >= 2^20, bytes_per_slot, peak RSS) and never on wall
time.

Beyond wall time, the batched hot path is gated on its own metrics (both
sides of each ratio come from the same run, so no machine calibration is
involved): every batched row must report events_per_packet < 1, and the
4096-flow dumbbell must hold a >= 1.3x batched-over-unbatched speedup.

Multi-threaded rows (lps > 1) are skipped when the runner has fewer cores
than the row needs worker threads — on such a machine the threads
serialize and the measurement says nothing about a code regression.

CI runners are not the box the baseline was recorded on, so raw
nanoseconds are not comparable across machines. The gate calibrates with
the pure-compute benchmarks (Newton iteration, libm pow, RNG) that have no
allocator, cache, or data-structure component: the median current/baseline
ratio over those estimates the machine-speed factor, and gated benchmarks
are judged after dividing it out. On the same machine the factor is ~1 and
the gate degenerates to a plain 15% check.

Inputs may be BENCH_engine.json-style reports ({"benchmarks": {name:
{after_ns}}}) or raw google-benchmark JSON; the format is detected per
file.

Usage:
    python3 tools/bench_check.py --current CURRENT.json
                                 [--baseline BENCH_engine.json]
                                 [--threshold 0.15]
"""

import argparse
import json
import os
import pathlib
import re
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

GATED_PATTERNS = [
    r"^BM_SchedulerScheduleRun(/|$)",
    r"^BM_SchedulerCancel$",
    r"^BM_DumbbellSimulation(/|$)",
    r"^BM_ScaleFlowsParallel(/|$)",
    r"^BM_ScaleFlowsEngine(/|$)",
    r"^BM_BatchDelivery(/|$)",
    r"^BM_ScaleFlowsDumbbell(/|$)",
    r"^BM_ScaleFlowsChurn(/|$)",
    r"^BM_TelemetryTap(/|$)",
]

# Batched hot-path acceptance: every batched row must land below one
# scheduler event per delivered packet, and the 4096-flow dumbbell must
# beat its unbatched twin by at least this factor end to end.
BATCHED_ROW_RE = re.compile(r"^BM_(BatchDelivery/1$|ScaleFlowsDumbbell/.*batch:1$)")
BATCH_SPEEDUP_PAIR = ("BM_ScaleFlowsDumbbell/flows:4096/batch:1",
                      "BM_ScaleFlowsDumbbell/flows:4096/batch:0")
BATCH_MIN_SPEEDUP = 1.3
EVENTS_PER_PACKET_MAX = 1.0

# Churn rows (dynamic flow lifecycle engine): the steady-state slab
# footprint per live flow-id slot is machine-independent and must stay
# inside the asserted 64-byte-per-slot budget (x2 for vector capacity
# growth), and the run must actually churn — most arrivals complete
# within the simulated window. Peak RSS is a whole-process ceiling in
# machine-independent bytes: a slab/transport memory regression fails CI
# even on a runner too slow for the wall-time gates to mean anything.
CHURN_ROW_RE = re.compile(r"^BM_ScaleFlowsChurn(/|$)")
CHURN_BYTES_PER_SLOT_MAX = 128.0
CHURN_MIN_COMPLETED_FRAC = 0.9
# ru_maxrss is process-lifetime-monotone, so this bounds everything the
# scale_flows process touched up to and including the churn rows (they
# register before BM_ScaleFlows1M precisely so its ~9 GB cannot bleed in).
# Measured ~48 MB; 5x headroom for allocator and libc variation.
CHURN_PEAK_RSS_MAX = 256e6

# The million-flow row (BM_ScaleFlows1M): memory-gated, never time-gated —
# it runs in nightly on whatever runner is available. peak_concurrent
# proves the row actually held 2^20 flows; bytes_per_slot is the same
# budget as churn; peak RSS covers the transport objects themselves
# (sender + receiver + monitor ~6.5 kB per live flow, measured ~8.4 GB at
# 2^20 — the ceiling is ~1.5x that). completed_frac and events_per_sec
# ride along as recorded context only.
MILLION_ROW_RE = re.compile(r"^BM_ScaleFlows1M(/|$)")
MILLION_MIN_CONCURRENT = 1 << 20
MILLION_BYTES_PER_SLOT_MAX = 128.0
MILLION_PEAK_RSS_MAX = 12.5e9

# Parallel engine rows (BM_ScaleFlowsEngine): the low-lookahead clustered
# mesh where the conservative barrier is the bottleneck. The
# parallel-efficiency floor divides the 4-LP row against the canonical
# 1-LP run from the same report, so no machine calibration is involved —
# meaningful only with as many cores as LPs, so it is skipped on smaller
# runners.
ENGINE_PARALLEL_ROW = "BM_ScaleFlowsEngine/lps:4"
ENGINE_CANONICAL_ROW = "BM_ScaleFlowsEngine/lps:1"
ENGINE_EFFICIENCY_FLOOR = 0.25  # speedup over 1-LP / LP count

# Telemetry tap overhead: both ratios compare rows from the same run, so
# no machine calibration is involved. With no taps attached the forwarding
# loop pays one never-taken branch per delivery and must track the
# untapped loop; with taps on every link the sketch update must stay
# within a small constant factor.
TELEMETRY_OFF_MAX_RATIO = 1.15  # BM_TelemetryTap/0 vs BM_PacketForwardLoop
TELEMETRY_ON_MAX_RATIO = 1.6    # BM_TelemetryTap/1 vs BM_TelemetryTap/0

# Parallel-harness rows encode their LP (worker thread) count in the name.
LPS_RE = re.compile(r"/lps:(\d+)")

# Pure-compute benchmarks used to estimate the machine-speed factor.
CALIBRATION_NAMES = ["BM_NewtonAlphaRoot", "BM_ExactPow", "BM_RngUniform"]

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def benchmark_threads(name, row):
    m = LPS_RE.search(name)
    if m:
        return int(m.group(1))
    return int(row.get("threads", 1))


def runner_cpus():
    """Cores available to this process (affinity/cgroup-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


# google-benchmark's standard per-row fields; any other numeric key on a
# raw-JSON row is a user counter (events_per_packet, lps, ...).
STANDARD_ROW_FIELDS = {
    "name", "run_name", "run_type", "family_index",
    "per_family_instance_index", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "aggregate_name", "aggregate_unit", "items_per_second",
    "bytes_per_second", "label", "error_occurred", "error_message",
}


def load_times(path):
    """Returns ({name: real_time_ns}, {name: threads}, {name: counters})
    from either format."""
    with open(path) as f:
        raw = json.load(f)
    times = {}
    threads = {}
    counters = {}
    if isinstance(raw.get("benchmarks"), dict):  # BENCH_engine.json report
        for name, row in raw["benchmarks"].items():
            if row.get("after_ns") is not None:
                times[name] = float(row["after_ns"])
                threads[name] = benchmark_threads(name, row)
                if row.get("counters"):
                    counters[name] = row["counters"]
        return times, threads, counters
    for b in raw.get("benchmarks", []):  # raw google-benchmark JSON
        if b.get("error_occurred"):
            continue
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
            continue
        name = b.get("run_name", b["name"])
        times[name] = b["real_time"] * TIME_UNIT_NS[b["time_unit"]]
        threads[name] = benchmark_threads(name, b)
        c = {k: v for k, v in b.items()
             if k not in STANDARD_ROW_FIELDS and isinstance(v, (int, float))}
        if c:
            counters[name] = c
    return times, threads, counters


def machine_factor(current, baseline):
    """Median current/baseline ratio over the calibration benchmarks."""
    ratios = []
    for name in CALIBRATION_NAMES:
        if name in current and name in baseline and baseline[name] > 0:
            ratios.append(current[name] / baseline[name])
    if not ratios:
        return 1.0, 0
    factor = statistics.median(ratios)
    # A wildly off factor means the calibration set itself changed; cap the
    # correction rather than let it launder a real regression.
    return min(max(factor, 0.25), 4.0), len(ratios)


def check_batching(current, counters):
    """Gates the batched hot path on its own metrics.

    Both checks compare rows within the current run, so the machine-speed
    factor plays no part. Returns a list of failure descriptions; prints
    one line per check. Rows absent from the run (e.g. a --filter'd rerun)
    are simply not checked — the wall-time MISSING logic already catches a
    gated row that silently disappeared.
    """
    failures = []
    for name in sorted(current):
        if not BATCHED_ROW_RE.match(name):
            continue
        epp = counters.get(name, {}).get("events_per_packet")
        if epp is None:
            print(f"  MISSING  {name}: no events_per_packet counter")
            failures.append(f"{name} (counter missing)")
        elif epp >= EVENTS_PER_PACKET_MAX:
            print(f"  FAILED   {name}: events_per_packet {epp:.3f} "
                  f">= {EVENTS_PER_PACKET_MAX}")
            failures.append(f"{name} (events_per_packet {epp:.3f})")
        else:
            print(f"  OK       {name}: events_per_packet {epp:.3f}")
    batched_name, unbatched_name = BATCH_SPEEDUP_PAIR
    if batched_name in current and unbatched_name in current:
        speedup = current[unbatched_name] / current[batched_name]
        if speedup < BATCH_MIN_SPEEDUP:
            print(f"  FAILED   batched 4096-flow dumbbell speedup "
                  f"{speedup:.2f}x < {BATCH_MIN_SPEEDUP}x")
            failures.append(f"batch speedup {speedup:.2f}x")
        else:
            print(f"  OK       batched 4096-flow dumbbell speedup "
                  f"{speedup:.2f}x (>= {BATCH_MIN_SPEEDUP}x)")
    return failures


def check_churn(current, counters):
    """Gates the churn rows on their machine-independent counters.

    Wall time (arrivals/sec) is handled by the calibrated gate above; this
    checks the per-slot memory budget and that the workload actually
    reached steady state (flows complete, not just accumulate). Returns a
    list of failure descriptions; prints one line per row.
    """
    failures = []
    for name in sorted(current):
        if not CHURN_ROW_RE.match(name):
            continue
        row = counters.get(name, {})
        bps = row.get("bytes_per_slot")
        frac = row.get("completed_frac")
        if bps is None or frac is None:
            print(f"  MISSING  {name}: no bytes_per_slot/completed_frac "
                  f"counters")
            failures.append(f"{name} (counters missing)")
            continue
        rss = row.get("peak_rss_bytes")
        if bps > CHURN_BYTES_PER_SLOT_MAX:
            print(f"  FAILED   {name}: bytes_per_slot {bps:.1f} "
                  f"> {CHURN_BYTES_PER_SLOT_MAX}")
            failures.append(f"{name} (bytes_per_slot {bps:.1f})")
        elif frac < CHURN_MIN_COMPLETED_FRAC:
            print(f"  FAILED   {name}: completed_frac {frac:.3f} "
                  f"< {CHURN_MIN_COMPLETED_FRAC}")
            failures.append(f"{name} (completed_frac {frac:.3f})")
        elif rss is not None and rss > CHURN_PEAK_RSS_MAX:
            # Older baselines predate the counter, so absence is tolerated;
            # once recorded, the ceiling is hard.
            print(f"  FAILED   {name}: peak_rss {rss / 1e9:.2f} GB "
                  f"> {CHURN_PEAK_RSS_MAX / 1e9:.2f} GB")
            failures.append(f"{name} (peak_rss {rss / 1e9:.2f} GB)")
        else:
            rss_str = f", peak_rss {rss / 1e9:.2f} GB" if rss else ""
            print(f"  OK       {name}: bytes_per_slot {bps:.1f}, "
                  f"completed_frac {frac:.3f}{rss_str}")
    return failures


def check_million(current, counters):
    """Gates the 2^20-flow row on its machine-independent memory columns.

    Absent rows are not failures: the PR bench job runs with
    bench_engine.py --skip-1m and only nightly produces the row. When the
    row is present, it must prove the concurrency target and stay inside
    the byte budgets. Returns a list of failure descriptions.
    """
    failures = []
    for name in sorted(current):
        if not MILLION_ROW_RE.match(name):
            continue
        row = counters.get(name, {})
        peak = row.get("peak_concurrent")
        bps = row.get("bytes_per_slot")
        rss = row.get("peak_rss_bytes")
        if peak is None or bps is None or rss is None:
            print(f"  MISSING  {name}: no peak_concurrent/bytes_per_slot/"
                  f"peak_rss_bytes counters")
            failures.append(f"{name} (counters missing)")
            continue
        if peak < MILLION_MIN_CONCURRENT:
            print(f"  FAILED   {name}: peak_concurrent {peak:.0f} "
                  f"< {MILLION_MIN_CONCURRENT}")
            failures.append(f"{name} (peak_concurrent {peak:.0f})")
        elif bps > MILLION_BYTES_PER_SLOT_MAX:
            print(f"  FAILED   {name}: bytes_per_slot {bps:.1f} "
                  f"> {MILLION_BYTES_PER_SLOT_MAX}")
            failures.append(f"{name} (bytes_per_slot {bps:.1f})")
        elif rss > MILLION_PEAK_RSS_MAX:
            print(f"  FAILED   {name}: peak_rss {rss / 1e9:.2f} GB "
                  f"> {MILLION_PEAK_RSS_MAX / 1e9:.2f} GB")
            failures.append(f"{name} (peak_rss {rss / 1e9:.2f} GB)")
        else:
            print(f"  OK       {name}: peak_concurrent {peak:.0f}, "
                  f"bytes_per_slot {bps:.1f}, peak_rss {rss / 1e9:.2f} GB, "
                  f"completed_frac {row.get('completed_frac', 0):.3f}")
    return failures


def check_engine(current):
    """Gates the 4-LP engine row's parallel efficiency.

    On runners with at least as many cores as LPs, the conservative 4-LP
    row must clear the parallel-efficiency floor against the canonical
    1-LP row. Absent rows are not failures (e.g. a --filter'd rerun); the
    wall-time MISSING logic catches a gated row that silently disappeared.
    Returns a list of failure descriptions.
    """
    failures = []
    row = ENGINE_PARALLEL_ROW
    if row not in current or ENGINE_CANONICAL_ROW not in current:
        return failures
    lps = benchmark_threads(row, {})
    if runner_cpus() < lps:
        print(f"  SKIPPED  parallel-efficiency floor (needs {lps} "
              f"cores, runner has {runner_cpus()})")
        return failures
    efficiency = current[ENGINE_CANONICAL_ROW] / current[row] / lps
    if efficiency < ENGINE_EFFICIENCY_FLOOR:
        print(f"  FAILED   parallel efficiency {efficiency:.2f} "
              f"< {ENGINE_EFFICIENCY_FLOOR} "
              f"({lps} LPs vs canonical 1-LP row)")
        failures.append(f"parallel efficiency {efficiency:.2f}")
    else:
        print(f"  OK       parallel efficiency {efficiency:.2f} "
              f"(>= {ENGINE_EFFICIENCY_FLOOR} at {lps} LPs)")
    return failures


def check_telemetry(current):
    """Gates the telemetry tap on same-run ratios.

    BM_TelemetryTap/0 (taps compiled in, none attached) must track
    BM_PacketForwardLoop — the off state is one predictable branch per
    delivery. BM_TelemetryTap/1 (a tap on every link) must stay within a
    small constant factor of /0. Returns a list of failure descriptions.
    """
    failures = []
    off = current.get("BM_TelemetryTap/0")
    on = current.get("BM_TelemetryTap/1")
    plain = current.get("BM_PacketForwardLoop")
    if off is not None and plain is not None and plain > 0:
        ratio = off / plain
        if ratio > TELEMETRY_OFF_MAX_RATIO:
            print(f"  FAILED   telemetry-off forwarding ratio {ratio:.3f} "
                  f"> {TELEMETRY_OFF_MAX_RATIO}")
            failures.append(f"telemetry-off ratio {ratio:.3f}")
        else:
            print(f"  OK       telemetry-off forwarding ratio {ratio:.3f} "
                  f"(<= {TELEMETRY_OFF_MAX_RATIO})")
    if on is not None and off is not None and off > 0:
        ratio = on / off
        if ratio > TELEMETRY_ON_MAX_RATIO:
            print(f"  FAILED   telemetry-on tap ratio {ratio:.3f} "
                  f"> {TELEMETRY_ON_MAX_RATIO}")
            failures.append(f"telemetry-on ratio {ratio:.3f}")
        else:
            print(f"  OK       telemetry-on tap ratio {ratio:.3f} "
                  f"(<= {TELEMETRY_ON_MAX_RATIO})")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True,
                        help="benchmark JSON for the build under test")
    parser.add_argument("--baseline",
                        default=str(REPO_ROOT / "BENCH_engine.json"),
                        help="baseline JSON (default: committed "
                             "BENCH_engine.json)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed slowdown fraction (default 0.15)")
    args = parser.parse_args()

    for path in (args.current, args.baseline):
        if not pathlib.Path(path).exists():
            sys.exit(f"error: {path} not found")

    current, _, cur_counters = load_times(args.current)
    baseline, base_threads, _ = load_times(args.baseline)
    if not current:
        sys.exit(f"error: no benchmark results in {args.current}")

    factor, calib_n = machine_factor(current, baseline)
    print(f"machine-speed factor: {factor:.3f} "
          f"(from {calib_n} calibration benchmark(s))")

    cpus = runner_cpus()
    gated = re.compile("|".join(GATED_PATTERNS))
    checked = 0
    skipped = 0
    failures = []
    for name in sorted(baseline):
        if not gated.search(name):
            continue
        # Multi-threaded rows are only meaningful with as many cores as
        # worker threads: on a smaller runner the threads serialize onto
        # shared cores and the "regression" would just be the core deficit.
        threads = base_threads.get(name, 1)
        if threads > 1 and cpus < threads:
            print(f"  SKIPPED  {name} (needs {threads} cores, "
                  f"runner has {cpus})")
            skipped += 1
            continue
        if name not in current:
            print(f"  MISSING  {name} (in baseline, absent from current run)")
            failures.append(name)
            continue
        checked += 1
        adjusted = current[name] / factor
        change = adjusted / baseline[name] - 1.0
        verdict = "OK"
        if change > args.threshold:
            verdict = "REGRESSED"
            failures.append(name)
        print(f"  {verdict:<9} {name}: baseline {baseline[name] / 1e6:.3f} ms, "
              f"current {current[name] / 1e6:.3f} ms "
              f"(adjusted {adjusted / 1e6:.3f} ms, {change:+.1%})")

    failures += check_batching(current, cur_counters)
    failures += check_churn(current, cur_counters)
    failures += check_million(current, cur_counters)
    failures += check_engine(current)
    failures += check_telemetry(current)

    if checked == 0 and not failures:
        sys.exit("error: no gated benchmarks found in the baseline — "
                 "regenerate BENCH_engine.json with tools/bench_engine.py")
    if failures:
        sys.exit(f"FAIL: {len(failures)} gated check(s) failed "
                 f"(regression threshold {args.threshold:.0%}): "
                 f"{', '.join(failures)}")
    print(f"PASS: {checked} gated benchmark(s) within {args.threshold:.0%}"
          + (f" ({skipped} multi-threaded row(s) skipped)" if skipped else ""))


if __name__ == "__main__":
    main()
