#!/usr/bin/env python3
"""Build pclabel-netd and the benchmark from source, then run the benchmark.

usage (from the repository root):
    python3 perfbench/run.py --workload label_build|serve_read|ingest_durable \
        --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default .bench_build); cargo's own
output goes to stderr, so the last line on stdout is the result line.
"""
import os
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("crates/net/Cargo.toml")):
        sys.stderr.write("perfbench: run from the pclabel repository root "
                         "(Cargo.toml and crates/net are missing here)\n")
        return 2
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "pclabel-net",
         "--bin", "pclabel-netd"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, stdout=sys.stderr)
        if built.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    bench = os.path.join(target, "release", "pclabel-perfbench")
    netd = os.path.join(target, "release", "pclabel-netd")
    sys.stdout.flush()
    os.execv(bench, [bench, "--netd", netd] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
