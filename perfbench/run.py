#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <percall_v4|cached_open|compress>
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The driver is configured and built under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench, relative to the current directory);
build output goes to a log there, never to stdout. The last line of
stdout is the driver's result JSON. Exits non-zero, without a result,
when the library sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(bdir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "front.hh")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, target)


def main(argv):
    bdir = build_dir()
    if "--self-test" in argv:
        exe = build(bdir, "perfbench_selftest")
        return subprocess.run([exe]).returncode
    exe = build(bdir, "perfbench")
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run([exe, "--work-dir", work] + argv,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
