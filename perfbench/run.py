#!/usr/bin/env python3
"""Builds the qhdl end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sweep_classical --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The binary is configured and built (Release)
into .bench_build/ on first use and rebuilt incrementally afterwards; build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. All arguments are passed to the binary unchanged (see
perfbench/README.md for the workloads and metrics).
"""
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# Untraced runs use qhdl_perfbench; traced runs qhdl_perfbench_traced, the
# same program plus an allocation counter (see CMakeLists.txt).
BINARY = os.path.join(BUILD_DIR, "qhdl_perfbench")
TRACED_BINARY = os.path.join(BUILD_DIR, "qhdl_perfbench_traced")
# Compiler and library temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 8)))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, env=ENV, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def reap_group(pgid):
    """Kills whatever is left of the benchmark's process group (the serve
    workload's worker processes, should the benchmark itself die before
    reaping them) and waits until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def binary_for(args):
    for flag, value in zip(args, args[1:]):
        if flag == "--trace" and value == "1":
            return TRACED_BINARY
    return BINARY


def main():
    build()
    sys.stdout.flush()
    # Its own process group, so every process it starts can be stopped.
    child = subprocess.Popen([binary_for(sys.argv[1:])] + sys.argv[1:], cwd=ROOT, env=ENV,
                             start_new_session=True)

    def forward(signum, _frame):
        try:
            os.killpg(child.pid, signum)
        except ProcessLookupError:
            pass

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, forward)
    code = child.wait()
    reap_group(child.pid)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
