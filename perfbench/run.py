#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload zipf_embed --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout. The build tree goes to
$CARGO_TARGET_DIR (relative paths resolve against the checkout root),
or to .bench_build when that is unset. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Every argument
is passed through to the benchmark binary (see README.md).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "runtime", "engine.h")):
        print("perfbench: no Frugal sources under %s/src; run from a full "
              "checkout" % ROOT, file=sys.stderr)
        return 2
    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(out_dir, "perfbench")
    args = sys.argv[1:]
    if "--trace" in args and "--spans-out" not in args:
        # Traced runs write their span log next to the build tree.
        args += ["--spans-out", os.path.join(out_dir, "spans")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
