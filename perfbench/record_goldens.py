#!/usr/bin/env python3
"""Re-records perfbench/goldens.txt: the end-state digest and delivery hash
of every workload at every recorded seed.

Usage, from the repository root:

    python3 perfbench/record_goldens.py

Run it only when a change is meant to alter simulation trajectories; the
benchmark otherwise treats a digest or hash that moved as a failed run.
"""
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["bulk_dumbbell", "churn_mice", "fan_reorder_par"]
BUILD_SEED = 1     # the seed the benchmark was sized and tuned on
HELDOUT_SEED = 2   # never used for tuning; gain claims must hold here too
CHECK_SEEDS = [0] + list(range(3, 11))  # extra seeds with goldens


def role(seed):
    if seed == BUILD_SEED:
        return "build"
    return "heldout" if seed == HELDOUT_SEED else "check"


def main():
    seeds = sorted([BUILD_SEED, HELDOUT_SEED, *CHECK_SEEDS])
    lines = [
        "# perfbench goldens: workload seed digest delivery_hash role",
        "# digest: FNV-1a over conservation, per-flow endpoint stats and",
        "# workload stats after the run; delivery_hash: DeliveryHasher of",
        "# the traced run. Regenerate with perfbench/record_goldens.py.",
    ]
    for workload in WORKLOADS:
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--record",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True, check=True)
            line = out.stdout.strip().splitlines()[-1]
            print(line, file=sys.stderr)
            lines.append(f"{line} {role(seed)}")
    (HERE / "goldens.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
