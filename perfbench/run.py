#!/usr/bin/env python3
"""Runs the ss-Byz-Clock-Sync performance benchmark.

Builds perfbench/ (a CMake package compiling the library from ../src with
the Release flags) and runs one workload in its own process:

    python3 perfbench/run.py --workload table1-sweep --seed 1 --seconds 20 --trace 0

`--workload all` runs the four workloads one after another, each in its
own process. Run from the repository root. The last line of stdout is the
result object; a machine and build fingerprint line precedes it. The build
goes to $CARGO_TARGET_DIR if set, else .bench_build/ (relative to the
working directory).

Exit status: 0 when every operation passed its check, nonzero otherwise
(including build failures, which print no result).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["table1-sweep", "soak-net", "fm-steady-n64", "audit-trace"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
# One workload process must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def git_rev():
    try:
        r = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_workload(binary, workload, args):
    """Runs one workload process; echoes its stdout, returns (code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", git_rev()]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s exceeded %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    return proc.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test only (selftest.py): corrupt one checked value.
    p.add_argument("--inject", choices=["clock", "commitment", "coin", "kernel"],
                   help=argparse.SUPPRESS)
    args = p.parse_args()

    binary = build()
    if args.workload != "all":
        code, result = run_workload(binary, args.workload, args)
        if result is None:
            sys.exit(code or 2)
        print(json.dumps(result))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(binary, workload, args)
        worst = worst or code
        if result is None:
            sys.exit(code or 2)
        print(workload + ": " + json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
