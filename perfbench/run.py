#!/usr/bin/env python3
"""Build and run civect's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload detail-base --seed 1 --seconds 10 --trace 0

The script builds the Go benchmark (./perfbench, a main package of the
civect module) into .bench_build/ with every Go cache and temporary
directory inside .bench_build/ too, then runs it with the same
arguments. The last line of standard output is the result JSON; see
perfbench/README.md. It exits non-zero without a result when the build
fails, for example outside a full checkout of the repository.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOMODCACHE", "gomodcache"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOFLAGS"] = "-mod=vendor"
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOTELEMETRY"] = "off"
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod here; run from the repository root", file=sys.stderr)
        return 1
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    build = subprocess.run(["go", "build", "-o", BINARY, "./perfbench"],
                           cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    # Go's flag package takes --flag as well as -flag.
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
