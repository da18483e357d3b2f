"""Smoke test of the benchmark itself (about two minutes):

    python3 perfbench/smoke.py

* runs every workload at its smallest size, untraced and traced, and checks
  that the metrics printed are exactly those BENCHMARK.json declares, that
  every part's time and failed_frac are printed, and that all answers pass;
* checks that the oracle counts a `corrupt_identity` mutant, presented as
  holding, as a failed operation, in exact verification and in numeric eval;
* checks that, in a directory holding only BENCHMARK.json and perfbench/,
  the benchmark exits non-zero without printing a result.
"""

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import passes  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600)


def check_workloads(spec):
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    for workload, parts in WORKLOADS.items():
        for trace in (0, 1):
            proc = bench(ROOT, "--workload", workload, "--seed", "5",
                         "--seconds", "0", "--trace", str(trace),
                         "--size", "smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stderr
            got = set(result["metrics"])
            assert got == declared[trace], (workload, trace,
                                            got ^ declared[trace])
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            for part in parts:
                assert f"{part}_s = " in proc.stderr, (part, proc.stderr)
            assert "failed_frac = 0/" in proc.stderr
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics")


def check_oracle_catches_mutant():
    import theta5
    holds = next(i for i in theta5.builtin_catalog()
                 if i.expected is theta5.ExpectedStatus.HOLDS
                 and i.kind is theta5.IdentityKind.CONSTANT)
    mutant = theta5.corrupt_identity(holds, 1)
    assert mutant.expected is theta5.ExpectedStatus.HOLDS
    for ops in (passes.verify_ops(theta5, [mutant], None, 4),
                passes.eval_ops(theta5, [mutant], random.Random(0), 1)):
        *_, raised, failures = passes.run_ops(ops)
        assert raised == 0 and len(failures) == len(ops) == 1, failures
    print(f"ok  mutant {mutant.id} counted as failed by verify and eval")


def check_fails_without_program():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench(bare, "--workload", "lab", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok  without src/: exit {proc.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_oracle_catches_mutant()
    check_fails_without_program()
    check_workloads(spec)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
