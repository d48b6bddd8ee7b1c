#!/usr/bin/env python3
"""Builds orderless_bench from this checkout's sources, then runs it.

    python3 benchmark/run.py --workload default16_t1 --seed 7 --trace 0
    python3 benchmark/run.py --traced --reps 5 --out result.json
    python3 benchmark/run.py compare parent.json change.json

Every argument goes to orderless_bench unchanged (see benchmark/README.md).
The build directory is .bench_build/ at the checkout root; configuring and
building are incremental, so only the first run compiles. Build output goes
to standard error, so the last line of standard output stays the benchmark's
JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def build():
    configure = [
        "cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
        "-DCMAKE_BUILD_TYPE=Release",
    ]
    if not (BUILD / "CMakeCache.txt").is_file():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    make = ["cmake", "--build", str(BUILD), "--target", "orderless_bench",
            "-j", jobs]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no src/ next to benchmark/; nothing to build",
              file=sys.stderr)
        return 2
    if not build():
        print("run.py: building orderless_bench failed", file=sys.stderr)
        return 2
    binary = BUILD / "orderless_bench"
    return subprocess.run([str(binary)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
