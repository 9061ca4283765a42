#!/usr/bin/env python3
"""Build the benchmark against the repository checkout it sits in, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed-smt2 --seed 1 --seconds 15 --trace 0

Every argument is passed on to the benchmark binary (see main.go for the
flags, including --cpuprofile and --memprofile). The build cache, the
binary and the run outputs all live under .bench_build/ in the checkout.
The script exits non-zero, without printing a result, when the checkout
does not hold the repository's sources.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        print("perfbench: no repository sources next to perfbench/ (go.mod, internal/)", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout, never ask
    # the network for a module or toolchain, and let nothing in the
    # environment change how many workers the simulator uses.
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    for key in [k for k in env if k.startswith("SYNPA_") or k in ("GOMAXPROCS", "GOGC", "GODEBUG")]:
        del env[key]
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if built.returncode != 0:
        print("perfbench: build failed:\n" + built.stderr, file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
