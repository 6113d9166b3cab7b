#!/usr/bin/env python3
"""Build the simulator's benchmark from source, then run it once.

Usage, from the repository root:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

The arguments go unchanged to `main.exe run` (see benchmark/README.md),
whose last line of standard output is the JSON result. The build runs
with dune's shared cache disabled, so it reads and writes only inside the
repository; its output goes to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "benchmark", "main.exe")


def main():
    # The benchmark drives the simulator's own libraries; without their
    # sources beside it there is nothing to build.
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        sys.stderr.write(
            "benchmark/run.py: no simulator sources (dune-project, lib/) in %s\n"
            % ROOT
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./benchmark/main.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("benchmark/run.py: build failed\n")
        return build.returncode
    sys.stdout.flush()
    os.execv(EXE, [EXE, "run"] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
