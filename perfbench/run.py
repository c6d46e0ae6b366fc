#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload bulk_dumbbell --seed 1 \
        --seconds 30 --trace 0

The first call configures and builds perfbench/ (which compiles the
simulator library from src/) into .bench_build/perfbench; later calls only
re-check the build. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. Every argument is passed through to the
driver, plus --goldens pointing at perfbench/goldens.txt.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources (src/) not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def main():
    try:
        driver = build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed ({err})")
    args = [str(driver), *sys.argv[1:]]
    if "--goldens" not in args:
        args += ["--goldens", str(HERE / "goldens.txt")]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
