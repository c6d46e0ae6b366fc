#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload, at the build seed and one second per run:
  - the untraced run prints exactly BENCHMARK.json's end_to_end metrics and
    the traced run exactly its per_layer metrics, with matching units, under
    names matching [A-Za-z0-9_.-]+, and both pass their correctness checks
    (the traced run reproduces the recorded delivery hash);
  - a run given a goldens file whose digest for the workload and seed is
    deliberately wrong reports correct=false and counts every attempted flow
    as failed (failed_frac = 1). That file is written under .bench_build/.
Exits nonzero on the first violation.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = "1"
WRONG_GOLDENS = ROOT / ".bench_build" / "selftest_wrong_goldens.txt"


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", "1", "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload}: unexpected result keys {sorted(result)}")
    return result


def write_wrong_goldens(workload):
    """Writes a goldens file recording a wrong digest for workload at SEED."""
    for line in (HERE / "goldens.txt").read_text().splitlines():
        fields = line.split()
        if fields[:2] == [workload, SEED]:
            wrong = f"{int(fields[2], 16) ^ 0xFFFFFFFFFFFFFFFF:016x}"
            WRONG_GOLDENS.write_text(f"{workload} {SEED} {wrong} {fields[3]}\n")
            return
    sys.exit(f"{workload}: goldens.txt records no seed {SEED}")


def check_names(workload, trace, result, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in got:
        if not NAME.fullmatch(name):
            sys.exit(f"{workload}: metric name {name!r} is not [A-Za-z0-9_.-]+")
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        sys.exit(f"{workload} --trace {trace}: metrics differ from "
                 f"BENCHMARK.json (missing {missing}, extra {extra}, "
                 f"or units differ)")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(workload, trace)
            check_names(workload, trace, result, spec)
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"{workload} --trace {trace}: run failed: {result}")
        write_wrong_goldens(workload)
        wrong = run(workload, 0, "--goldens", str(WRONG_GOLDENS))
        if wrong["correct"] or wrong["failed"] != wrong["attempted"]:
            sys.exit(f"{workload}: a wrong golden digest did not fail every "
                     f"flow: {wrong}")
        print(f"{workload}: ok", file=sys.stderr)
    print("selftest: ok")


if __name__ == "__main__":
    main()
