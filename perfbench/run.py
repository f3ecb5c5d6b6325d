#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark and the library
sources it measures (../src) with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs the workload: `perfbench` for
--trace 0 (end-to-end metrics), `perfbench_trace` for --trace 1 (per-layer
metrics; trace files land in <build dir>/out). The program's stdout is
passed through; its last line is the result object. Build output goes to
stderr. Exits non-zero, printing no result, when the sources are missing,
the build fails or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cruise_cold", "storm_resume", "fleet_service")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def scratch_env(build_dir):
    """Environment whose TMPDIR lies inside the build directory, so the
    compiler and the benchmark write nothing outside the checkout."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(build_dir, target):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to " + HERE + "; nothing to build")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=scratch_env(build_dir),
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in 1..120")

    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    target = "perfbench_trace" if args.trace else "perfbench"
    build(build_dir, target)

    cmd = [os.path.join(build_dir, target),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bench-dir", HERE, "--out-dir", os.path.join(build_dir, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              env=scratch_env(build_dir),
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    if done.returncode != 0:
        fail("%s exited with %d" % (target, done.returncode))
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
