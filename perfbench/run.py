#!/usr/bin/env python3
"""Builds the SamzaSQL benchmark from source and runs one workload.

Run it from the root of the repository:

    python3 perfbench/run.py --workload filter --seed 1 --seconds 30 --trace 0

All arguments go to the benchmark program (see perfbench/doc.go). The Go
build cache and the binary live under .bench_build (or $CARGO_TARGET_DIR) in
the current directory, so nothing is written outside it. When the build
fails, its exit code is returned; otherwise this process becomes the
benchmark.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    # The build's own output goes to stderr so the benchmark's last stdout
    # line stays its result.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
