#!/usr/bin/env python3
"""Build the DrDebug session benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository.  It builds perfbench/bench.exe
with dune (build log on standard error), then runs it with the same
arguments and passes its standard output through: the last line is the
JSON result.  Any other argument, such as --smoke, goes to bench.exe.
The exit code is bench.exe's, or 1 when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
