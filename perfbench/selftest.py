#!/usr/bin/env python3
"""Self-tests of the benchmark: its checks have teeth and its output
matches BENCHMARK.json.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, exits 0 with a result line of
   exactly the keys correct/attempted/failed/metrics and emits every metric
   BENCHMARK.json declares for that mode, with the declared unit (and every
   end-to-end metric nonzero).
2. Each injected fault — a flipped clock (fm-steady-n64 and soak-net), a
   mismatched trace commitment (audit-trace), coin records that never
   agree (audit-trace), a wrong field-kernel result (fm-steady-n64) — is
   counted as a failed operation and makes the command exit nonzero.
3. In a directory holding only BENCHMARK.json and the benchmark itself,
   the command exits nonzero without printing a result.
Exit status 0 when every test passes.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
SECONDS = "1"

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, inject=None, cwd=REPO_ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", SECONDS,
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def check_schema(name, result, declared, nonzero):
    expect(result is not None and sorted(result) ==
           ["attempted", "correct", "failed", "metrics"],
           name + ": result line has exactly the four keys")
    if result is None:
        return
    expect(result["correct"] is True and result["failed"] == 0 and
           result["attempted"] >= 1, name + ": all operations passed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, name + ": emits every declared metric with its unit")
    if nonzero:
        zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
        expect(not zero, name + ": no end-to-end metric reads 0 %s" % zero)


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run(w["name"], trace)
            name = "%s --trace %d" % (w["name"], trace)
            expect(code == 0, name + ": exits 0")
            check_schema(name, result, declared, nonzero=trace == 0)

    for workload, fault in (("fm-steady-n64", "clock"), ("soak-net", "clock"),
                            ("audit-trace", "commitment"),
                            ("audit-trace", "coin"),
                            ("fm-steady-n64", "kernel")):
        code, result = run(workload, 0, inject=fault)
        name = "%s with a %s fault" % (workload, fault)
        expect(code != 0, name + ": exits nonzero")
        expect(result is not None and result["failed"] >= 1 and
               result["correct"] is False,
               name + ": counts a failed operation")

    # A tree with the benchmark but without the program it measures.
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(REPO_ROOT, ".bench_build"))
    bare = os.path.join(build_root, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        code, result = run("table1-sweep", 0, cwd=bare, env=env)
        expect(code != 0 and result is None,
               "without the repository's sources: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
