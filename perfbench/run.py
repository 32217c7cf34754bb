#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from anywhere inside a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Go program in this directory (its own module,
importing the repository's packages through a local replace). This
script builds it into .bench_build/ at the checkout root, with the Go
build cache and temporary files there too, and executes it from the
root in place of this process. Every argument is passed through; the
program's last line of standard output is the result JSON.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    scratch = os.path.join(build, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env["TMPDIR"] = scratch
    os.chdir(root)
    # Replace this process, so whoever runs the benchmark holds the
    # benchmark's own process (and its children die with it).
    os.execve(binary, [binary, *sys.argv[1:], "--scratch", scratch], env)


if __name__ == "__main__":
    sys.exit(main())
