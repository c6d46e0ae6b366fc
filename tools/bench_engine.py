#!/usr/bin/env python3
"""Run the engine benchmarks and record before/after numbers.

Runs bench/micro_engine and bench/scale_flows (google-benchmark) from a
Release build, compares each benchmark against a recorded baseline, and
writes BENCH_engine.json at the repository root:

    {"context": {...}, "benchmarks": {name: {baseline_ns, after_ns, speedup}}}

The default baseline is embedded below: it was measured on the seed build
(pre optimization — binary-heap-of-24-byte-nodes event queue, shared_ptr
control blocks per event, heap-allocated SACK/route vectors, std::deque
link queues) so speedups track the zero-allocation hot-path work. Pass
--baseline FILE (google-benchmark JSON) to compare against a different run,
e.g. one captured with:

    ./build/bench/micro_engine --benchmark_format=json > baseline.json

Exits non-zero when a benchmark binary is missing, crashes, exits with an
error, or reports a per-benchmark error (google-benchmark error_occurred),
so CI cannot silently record a partial run.

Usage:
    python3 tools/bench_engine.py [--build-dir build] [--out BENCH_engine.json]
                                  [--baseline FILE] [--filter REGEX]
                                  [--repetitions N] [--skip-scale]
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Seed-build numbers (ns), recorded on the reference box (1-core Xeon
# 2.1 GHz, g++ 12.2, -O3). Benchmarks added together with the optimization
# work have no seed counterpart and appear with baseline_ns = null.
EMBEDDED_BASELINE_NS = {
    "BM_SchedulerScheduleRun/1000": 112467.26,
    "BM_SchedulerScheduleRun/100000": 20501445.56,
    "BM_SchedulerCancel": 975522.31,
    "BM_DumbbellSimulation/4": 47030444.80,
    "BM_DumbbellSimulation/16": 54253765.85,
}

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Parallel-harness benchmarks encode their LP count in the name
# (BM_ScaleFlowsParallel/flows:256/lps:4); that, not google-benchmark's own
# threads field, is the number of worker threads the row needs.
LPS_RE = re.compile(r"/lps:(\d+)")

# Row groups that bench_check.py gates at hard same-run ratios. Single-shot
# timings swing well past the gate's margin — the first benchmark in a
# process pays allocator warm-up, and box speed drifts over minutes — so
# each group is always re-measured with warmed-up, randomly interleaved
# repetitions (interleaving spreads each row's reps across the process
# lifetime, so drift hits all rows of a ratio alike) and recorded as
# medians. Everything else stays single-shot for runtime.
RATIO_GROUPS = [
    # batched-vs-unbatched 4096-flow dumbbell speedup
    ("scale_flows", r"BM_ScaleFlowsDumbbell/flows:4096/batch:[01]$"),
    # telemetry tap overhead vs the untapped forwarding loop
    ("micro_engine", r"BM_TelemetryTap/[01]$|BM_PacketForwardLoop$"),
    # parallel-efficiency floor: 4-LP vs 1-LP conservative engine rows on
    # the clustered mesh
    ("scale_flows", r"BM_ScaleFlowsEngine/lps:[14]$"),
]
SPEEDUP_PAIR_REPS = 5
SPEEDUP_PAIR_FLAGS = [
    "--benchmark_enable_random_interleaving=true",
    "--benchmark_min_warmup_time=0.5",
]


def to_ns(value, unit):
    return value * TIME_UNIT_NS[unit]


def benchmark_threads(name, row):
    m = LPS_RE.search(name)
    if m:
        return int(m.group(1))
    return int(row.get("threads", 1))


def runner_cpus():
    """Cores actually available to this process (affinity-aware, so a
    cgroup-limited CI container reports its real allowance, not the host's
    core count — the bug this replaces was trusting the benchmark library's
    num_cpus)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


# google-benchmark emits user counters (state.counters[...]) as extra
# top-level keys on each benchmark row; everything NOT in this set and
# numeric is a counter (events_per_packet, lps, ...).
STANDARD_ROW_FIELDS = {
    "name", "run_name", "run_type", "family_index",
    "per_family_instance_index", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "aggregate_name", "aggregate_unit", "items_per_second",
    "bytes_per_second", "label", "error_occurred", "error_message",
}


def row_counters(b):
    return {k: v for k, v in b.items()
            if k not in STANDARD_ROW_FIELDS and isinstance(v, (int, float))}


def load_benchmark_json(raw):
    """Extracts {name: real_time_ns} plus the context block.

    Returns (context, times, threads, counters, errors) where threads maps
    each benchmark to the worker-thread count it needs, counters maps it to
    its user counters (events_per_packet, lps) and errors lists benchmarks
    that reported error_occurred instead of a measurement.
    """
    times = {}
    threads = {}
    counters = {}
    errors = []
    for b in raw.get("benchmarks", []):
        name = b.get("run_name", b["name"])
        if b.get("error_occurred"):
            errors.append(f"{name}: {b.get('error_message', 'unknown error')}")
            continue
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
            continue
        times[name] = to_ns(b["real_time"], b["time_unit"])
        threads[name] = benchmark_threads(name, b)
        c = row_counters(b)
        if c:
            counters[name] = c
    return raw.get("context", {}), times, threads, counters, errors


def run_binary(binary, args, bench_filter=None, repetitions=None,
               extra_flags=()):
    """Runs one google-benchmark binary; returns (context, times, threads,
    counters).

    Exits non-zero on any failure mode: missing binary, crash, nonzero
    exit, unparseable output, or per-benchmark errors.
    """
    if not binary.exists():
        sys.exit(f"error: {binary} not found — build with "
                 f"cmake -S . -B {args.build_dir} -DCMAKE_BUILD_TYPE=Release "
                 f"&& cmake --build {args.build_dir} --target {binary.name}")
    if bench_filter is None:
        bench_filter = args.filter
    if repetitions is None:
        repetitions = args.repetitions
    cmd = [str(binary), "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
        cmd.append("--benchmark_report_aggregates_only=true")
    cmd.extend(extra_flags)
    print(f"running: {' '.join(cmd)}", file=sys.stderr)
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        sys.exit(f"error: {binary.name} exited with status {run.returncode}")
    try:
        raw = json.loads(run.stdout)
    except json.JSONDecodeError as e:
        sys.exit(f"error: {binary.name} produced unparseable JSON: {e}")
    context, times, threads, counters, errors = load_benchmark_json(raw)
    if errors:
        for line in errors:
            print(f"error: {binary.name}: {line}", file=sys.stderr)
        sys.exit(f"error: {len(errors)} benchmark(s) failed in {binary.name}")
    if not times:
        sys.exit(f"error: {binary.name} reported no benchmark results")
    return context, times, threads, counters


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (default: build)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_engine.json"),
                        help="output path (default: BENCH_engine.json at repo root)")
    parser.add_argument("--baseline", default=None,
                        help="google-benchmark JSON to use as the baseline "
                             "(default: embedded seed-build numbers)")
    parser.add_argument("--filter", default=None,
                        help="--benchmark_filter regex passed through")
    parser.add_argument("--repetitions", type=int, default=0,
                        help="--benchmark_repetitions (median is kept)")
    parser.add_argument("--skip-scale", action="store_true",
                        help="run only micro_engine (skip scale_flows)")
    parser.add_argument("--skip-1m", action="store_true",
                        help="skip the BM_ScaleFlows1M row (minutes of wall "
                             "clock and ~8 GB RSS) — the PR-gating bench job "
                             "caps itself at the 4096-flow rows and leaves "
                             "the million-flow row to nightly")
    args = parser.parse_args()

    if args.skip_1m:
        if args.filter:
            sys.exit("error: --skip-1m cannot be combined with --filter "
                     "(put -BM_ScaleFlows1M in your filter instead)")
        # google-benchmark: a leading '-' negates the filter regex.
        args.filter = "-BM_ScaleFlows1M"

    if args.baseline and not pathlib.Path(args.baseline).exists():
        sys.exit(f"error: baseline file {args.baseline} not found")

    bench_dir = REPO_ROOT / args.build_dir / "bench"
    binaries = [bench_dir / "micro_engine"]
    if not args.skip_scale:
        binaries.append(bench_dir / "scale_flows")

    context = {}
    after = {}
    thread_counts = {}
    counter_map = {}
    for binary in binaries:
        ctx, times, threads, counters = run_binary(binary, args)
        context = context or ctx
        after.update(times)
        thread_counts.update(threads)
        counter_map.update(counters)

    # Re-measure each hard-ratio row group with repetitions and keep the
    # medians, unless this run already used repetitions or filtered the
    # group out.
    if args.repetitions <= 1:
        for binary_name, group_filter in RATIO_GROUPS:
            binary = bench_dir / binary_name
            if binary not in binaries:
                continue
            if not any(re.fullmatch(group_filter, n) for n in after):
                continue
            _, times, threads, counters = run_binary(
                binary, args, bench_filter=group_filter,
                repetitions=SPEEDUP_PAIR_REPS, extra_flags=SPEEDUP_PAIR_FLAGS)
            after.update(times)
            thread_counts.update(threads)
            counter_map.update(counters)

    if args.baseline:
        with open(args.baseline) as f:
            _, baseline, _, _, _ = load_benchmark_json(json.load(f))
        baseline_source = args.baseline
    else:
        baseline = dict(EMBEDDED_BASELINE_NS)
        baseline_source = "embedded seed-build measurements"

    benchmarks = {}
    for name, after_ns in after.items():
        base_ns = baseline.get(name)
        benchmarks[name] = {
            "baseline_ns": round(base_ns, 2) if base_ns is not None else None,
            "after_ns": round(after_ns, 2),
            "speedup": round(base_ns / after_ns, 2) if base_ns else None,
            "threads": thread_counts.get(name, 1),
        }
        # User counters (events_per_packet, lps) ride along per row so the
        # regression gate can check engine metrics, not just wall time.
        if name in counter_map:
            benchmarks[name]["counters"] = {
                k: round(v, 4) for k, v in sorted(counter_map[name].items())}

    report = {
        "generated_by": "tools/bench_engine.py",
        "baseline_source": baseline_source,
        "context": {k: context.get(k) for k in
                    ("date", "mhz_per_cpu", "library_build_type")},
        "benchmarks": benchmarks,
    }
    # Cores the recording process could actually use — not the benchmark
    # library's context value, which reports hardware concurrency even when
    # the container is pinned to fewer cores. Consumers (bench_check.py)
    # need this to decide whether multi-threaded rows were recorded at
    # full parallelism.
    report["context"]["num_cpus"] = runner_cpus()
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)

    width = max(len(n) for n in benchmarks)
    for name, row in benchmarks.items():
        speed = f"{row['speedup']:.2f}x" if row["speedup"] else "  new"
        print(f"{name:<{width}}  {speed:>7}  "
              f"{row['after_ns'] / 1e6:10.3f} ms after")


if __name__ == "__main__":
    main()
