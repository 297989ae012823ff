#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (inside the checkout, shared cache off),
then runs it with the same arguments.  Its last stdout line is the JSON
result.  Exits non-zero without a result when the checkout holds no sources
or the build fails.
"""

import os
import shutil
import subprocess
import sys

WORKLOADS = ("tune-opt-spec", "tune-adapt-corpus")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload {%s} --seed N --seconds S --trace 0|1" % "|".join(WORKLOADS))
    if args["--workload"] not in WORKLOADS:
        fail("unknown workload " + args["--workload"])
    try:
        int(args["--seed"])
        if int(args["--seconds"]) < 1:
            raise ValueError
    except ValueError:
        fail("--seed and --seconds take whole numbers, --seconds at least 1")
    if args["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return argv


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def main():
    argv = parse(sys.argv[1:])
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = dune() + ["build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")
    sys.stdout.flush()
    try:
        ran = subprocess.run([EXE] + argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
