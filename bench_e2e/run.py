#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench_e2e/run.py --self-test
    python3 bench_e2e/run.py --packing-baseline

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e) on first use;
traces and sockets go to .bench_out/. The last stdout line is the result
object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("t5-trainer-q64", "gpt-fleet-shm", "gpt-replay-mux")
RUN_TIMEOUT_S = 175


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the program's sources (src/) are missing next to bench_e2e/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "bench_e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "bench_e2e"])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--packing-baseline", action="store_true")
    args = parser.parse_args()
    mode = ("--self-test" if args.self_test else
            "--packing-baseline" if args.packing_baseline else None)
    if mode is None and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if mode is not None:
        command = [binary, mode]
    else:
        command = [binary, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
    try:
        proc = subprocess.run(command + ["--out-dir", ".bench_out"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if mode is not None:
        print(proc.stdout, end="")
        sys.exit(proc.returncode)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        fail("the run exited with code %d and no result" % proc.returncode)
    print(proc.stdout, end="")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
