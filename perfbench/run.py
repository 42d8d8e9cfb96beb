#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run it from the root of a checkout:

    python3 perfbench/run.py --workload p2p-phi --seed 1 --seconds 10 --trace 0

It builds the Go program in perfbench/ from source (the first build
compiles the standard library too) and runs it from the checkout root
with the arguments passed through. Every build and run artefact stays
under .bench_build/ in the checkout: the Go build cache, the module
cache, temporary files, the binary and lint-synth's generated package.
The exit code is the program's; a failed build exits non-zero before
any result is printed.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    dirs = {name: os.path.join(out, name) for name in ("gocache", "gomod", "gopath", "tmp", "config", "cache")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=dirs["gocache"],
        GOMODCACHE=dirs["gomod"],
        GOPATH=dirs["gopath"],
        GOTMPDIR=dirs["tmp"],
        TMPDIR=dirs["tmp"],
        XDG_CONFIG_HOME=dirs["config"],
        XDG_CACHE_HOME=dirs["cache"],
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
