"""The benchmark's own code path, run as the benchmark runs it: one fresh
interpreter per part of perfbench/passes.py, which imports theta5 from
src/ and prints one JSON line of set-up times (and, for a pass, its counts)."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_part(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "passes.py"), *args,
         "--seed", "0", "--spawned", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "args", [("setup",)] + [(part, "--size", "smoke") for part in
                            ("verify_c8", "verify_c16", "verify_c32")],
    ids=lambda a: a[0])
def test_part_reports_its_setup(args):
    out = run_part(*args)
    for key in ("setup_s", "import_s", "catalog_s"):
        assert out[key] > 0, key
    if args[0] != "setup":
        assert out["attempted"] == 81 and out["failed"] == 0, out["failures"]


@pytest.mark.parametrize("part", ["eval", "relations", "residues"])
def test_numeric_part_answers_every_operation(part):
    # the benchmark's own path through the point cache and its fills
    out = run_part(part, "--size", "smoke")
    assert out["attempted"] > 0 and out["failed"] == 0, out["failures"]


@pytest.mark.parametrize("part", ["resultant_exact", "sigma"])
def test_exact_lab_part_answers_every_operation(part):
    out = run_part(part, "--size", "smoke")
    assert out["attempted"] > 0 and out["failed"] == 0, out["failures"]
