#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|mix|replay --seed N \
        --seconds S --trace 0|1

The build goes through dune with its shared cache disabled, so nothing
is read or written outside the checkout; build output goes to stderr.
The benchmark's last line on stdout is the one-line JSON result.  A
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
