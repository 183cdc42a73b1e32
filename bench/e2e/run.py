#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark; see README.md next to this file.

Run from the root of an optprob checkout:

    python3 bench/e2e/run.py --workload optimize-cop --seed 1 --seconds 20 --trace 0

Builds the benchmark with dune, then replaces itself with main.exe (the
plain pass, --trace 0) or trace.exe (the traced pass, --trace 1).  The
last line of standard output is the JSON result.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib/pipeline")):
        sys.exit("run.py: run from the root of an optprob checkout (no dune-project or lib/)")
    exe = "trace" if args.trace else "main"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", f"./bench/e2e/{exe}.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"run.py: dune build failed with code {build.returncode}")
    path = os.path.join("_build", "default", "bench", "e2e", exe + ".exe")
    argv = [path, "--workload", args.workload, "--seed", str(args.seed)]
    os.execv(path, argv + ["--seconds", str(args.seconds)])


if __name__ == "__main__":
    main()
