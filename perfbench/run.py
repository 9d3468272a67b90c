#!/usr/bin/env python3
"""Build and run the SCIFinder benchmark.

Run from the root of a SCIFinder checkout:

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 12 --trace 0

The benchmark is an OCaml program (perfbench/bench.ml) linking the
repository's public libraries; this script builds it with dune from the
checkout's sources, then runs it with the same arguments. Build output
goes to stderr; the program's last line of stdout is the result JSON.
Exits non-zero, printing no result, when the checkout cannot be built.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: run from the root of a SCIFinder checkout",
              file=sys.stderr)
        return 1
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 1
    build = subprocess.run(
        [dune, "build", "--root", root, "--cache=disabled",
         "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
