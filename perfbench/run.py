#!/usr/bin/env python3
"""Builds the xmlq benchmark from this source tree and runs one workload.

    python3 perfbench/run.py --workload xmark_twig --seed 1 --seconds 10 --trace 0

Run from the root of the source tree. The build goes to .bench_build/ and
traces, snapshots and a log of results to .bench_out/. The last line of
standard output is the run's JSON result (see perfbench/README.md).
"""

import json
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


CHILD = None


def run_child(args, timeout_s, **kwargs):
    """Runs one child process; a SIGTERM or SIGINT to this script stops it."""
    global CHILD
    # Its own process group, so that stopping it also stops what it started
    # (the compilers under cmake).
    CHILD = subprocess.Popen(args, start_new_session=True, **kwargs)
    try:
        out = CHILD.communicate(timeout=timeout_s)[0]
        return out, CHILD.returncode
    except subprocess.TimeoutExpired:
        kill_child()
        fail("%s exceeded %d s" % (args[0], timeout_s))
    finally:
        CHILD = None


def kill_child():
    try:
        os.killpg(CHILD.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    CHILD.wait()


def stop(signum, _frame):
    if CHILD is not None:
        kill_child()
    sys.exit(128 + signum)


def build():
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail("%s not found; run from the root of the xmlq source tree" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "xmlq_perfbench"],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        _, code = run_child(step, stdout=sys.stderr, stderr=sys.stderr,
                            timeout_s=BUILD_TIMEOUT_S)
        if code:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "xmlq_perfbench")


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    out, code = run_child([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                          timeout_s=RUN_TIMEOUT_S)
    text = out.decode("utf-8", "replace")
    sys.stdout.write(text)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    lines = text.strip().splitlines()
    if lines:
        with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as log:
            log.write(json.dumps({"args": sys.argv[1:],
                                  "result": json.loads(lines[-1])}) + "\n")


if __name__ == "__main__":
    main()
