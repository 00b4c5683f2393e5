#!/usr/bin/env python3
"""Build and run the EdgePC end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <pnpp-w1|dgcnn-w6|serve-4x2k> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the library and the benchmark
binary (Release) under .bench_build/perfbench; later calls rebuild
incrementally. The binary's standard output is passed through, so the
last line is the run's JSON result. Build logs go to standard error.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# A run measures for --seconds plus set-up and the scalar reference;
# dgcnn-w6 spends the most on those, roughly 10 s on a 4-core host.
RUN_SLACK_S = 120


def build():
    """Configure (once) and build; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources not found at %s" % (ROOT / "src"))
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return BUILD_DIR


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build() / "perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha()]
    if args.trace == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    sys.stdout.flush()
    # SIGTERM unwinds through the finally below, so the benchmark binary
    # never outlives this launcher.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %.0f s" % (args.seconds + RUN_SLACK_S))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
