#!/usr/bin/env python3
"""Builds the host-clock benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout root). All build and benchmark diagnostics go to
stderr; stdout carries the benchmark's environment record and, as its last
line, the JSON result. The exit code is the benchmark's: 0 only when every
output check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources at %s" % os.path.join(ROOT, "src"))
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(os.cpu_count() or 1)
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return os.path.join(out, target)


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_test")]).returncode
    binary = build("perfbench")
    result = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
