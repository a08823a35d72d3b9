#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 prbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds prbench/main.exe with dune
(the repository's libraries are compiled along with it), then runs it
with the same arguments.  The benchmark's last line of standard output
is its JSON result; build output goes to standard error.  Without the
repository's sources next to it the build fails and so does this
script, with a non-zero exit code and no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "prbench", "main.exe")


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("prbench: no dune-project at %s; run from a source checkout"
              % ROOT, file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./prbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("prbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
