#!/usr/bin/env python3
"""The repo benchmark's entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the gop library and the benchmark from this checkout's sources into
.bench_build/perfbench (an optimized CMake tree; a non-optimized one is
refused, as tools/run_benches.sh refuses it), prints the run's provenance,
then runs one workload. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. Exit status 0 only when every
correctness check passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve-hot", "serve-churn", "study-paper", "study-scale")
OPTIMIZED = ("Release", "RelWithDebInfo", "MinSizeRel")
# A run's own time limit; the slowest workload needs well under a minute.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "unspecified"
    except OSError:
        pass
    return "unknown"


def build():
    """Configures (once) and builds both binaries; compiler output goes to
    stderr so standard output stays the report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no gop sources next to perfbench/ (expected src/CMakeLists.txt)", 2)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        compile_cmd = ["cmake", "--build", BUILD, "--target", "gop_perfbench",
                       "gop_perfbench_selftest", "-j", jobs]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    kind = build_type()
    if kind not in OPTIMIZED:
        fail("build tree has CMAKE_BUILD_TYPE='%s'; refusing to record numbers from a "
             "non-optimized build" % kind)
    return kind


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def provenance(args, kind):
    try:
        with open("/proc/loadavg") as f:
            load = [float(x) for x in f.read().split()[:3]]
    except OSError:
        load = []
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg": load,
        "git_commit": git_commit(),
        "build_type": kind,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-tests and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    kind = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "gop_perfbench_selftest")]).returncode)

    prov = provenance(args, kind)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    command = [os.path.join(BUILD, "gop_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--golden-dir", os.path.join(ROOT, "tests", "golden"),
               "--provenance", json.dumps(prov, sort_keys=True)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
