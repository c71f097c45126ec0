#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Run from the root of a resilientdb checkout:

    python3 perfbench/run.py --workload geobft-base --seed 1 --seconds 10 --trace 0

The harness (perfbench/main.exe) is built with dune inside the checkout
(dune's shared cache is disabled, so nothing is written outside it),
then run once; its standard output is passed through, and its last
line is the JSON result.  Build output goes to standard error.  Exits
non-zero without a result when the checkout is incomplete or the build
fails.  See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HARNESS = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a resilientdb checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(HARNESS):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    sys.stdout.flush()
    run = subprocess.run(
        [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
