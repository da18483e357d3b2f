"""theta5 benchmark: cold-process passes over the CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|smoke]

The program is imported from the `src/` of the checkout that holds this
file.  A pass runs each part of the workload (WORKLOADS) in its own fresh
interpreter (perfbench/passes.py), one operation at a time, as a CLI call
would.  Passes repeat until S seconds have gone by (at least one pass).
Every answer is checked.  The last stdout line is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the run:
`setup_s` (fresh interpreter to `import theta5` plus `builtin_catalog()`,
over every interpreter of the run and at least MIN_SETUPS), `pass_s` (the
parts' times, each the sum of its calls' times, summed) and `peak_rss_mb`
(the largest of the parts' processes).  Both times are scaled to a fixed
host speed by a reference timed in the same process (passes.reference);
the raw wall times go to stderr and to the traced run.  A pass in which an
operation raised has no time and no memory figure: both print as null.
Wrong answers and exceptions count in `failed`.  Each part's own time goes
to stderr.

With --trace 1, untraced and traced passes alternate.  The traced ones wrap
theta5's public entry points (perfbench/tracer.py) and give the per-layer
metrics.  `trace.overhead_s` is the traced minus the untraced median pass
time, `part.<part>_s` the untraced median of each part, `process.wall_s`
the untraced median pass time before scaling and `host.ref_ms` the median
time of one reference.  Spans go to `.bench_out/` in the checkout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from passes import SIZES  # noqa: E402
from tracer import layer_metrics, merge  # noqa: E402

#: Parts run by each workload, in order.  exact-deep is left out of
#: BENCHMARK.json while cutoff 32 crashes (an operation fails).
WORKLOADS = {
    "exact-corpus": ("verify_c8", "verify_c16"),
    "exact-deep": ("verify_c32",),
    "lab": ("residues", "eval", "relations", "resultant_exact", "sigma"),
}
PARTS = tuple(p for parts in WORKLOADS.values() for p in parts)
#: Parts whose theta_eval repeat share is reported on its own.
NUMERIC_PARTS = ("residues", "eval", "relations")
MIN_SETUPS = 5
DEADLINE_S = 170   # a run must end within 180 s


class BenchError(Exception):
    pass


def spawn(part, args, trace_path=None):
    """Runs one part (or a set-up only interpreter) and returns its report."""
    cmd = [sys.executable, os.path.join(HERE, "passes.py"), part,
           "--seed", str(args.seed), "--size", args.size]
    if trace_path:
        cmd += ["--trace", trace_path]
    left = DEADLINE_S - (time.monotonic() - args.started)
    if left <= 0:
        raise BenchError(f"no time left for {part}")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{part} did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{part} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(args, index, traced):
    parts = {}
    for part in WORKLOADS[args.workload]:
        path = None
        if traced:
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            path = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed"
                                f"{args.seed}-pass{index}-{part}.jsonl")
        parts[part] = report = spawn(part, args, path)
        for failure in report["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
    reports = parts.values()
    return {"parts": parts, "traced": traced,
            "pass_s": sum(r["pass_s"] for r in reports),
            "wall_s": sum(r["wall_s"] for r in reports),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
            "raised": sum(r["raised"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports)}


def metric(value, unit):
    return {"value": value, "unit": unit}


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def part_time(passes, part):
    """Median time of a part over the passes that ran it; 0.0 if none did,
    None if it raised in every one."""
    reports = [p["parts"][part] for p in passes if part in p["parts"]]
    if not reports:
        return 0.0
    times = [r["pass_s"] for r in reports if not r["raised"]]
    return median(times) if times else None


def unit_of(name):
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def traced_metrics(passes, setups):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        reports = p["parts"].values()
        per_pass.append(layer_metrics(
            merge(r["counters"] for r in reports),
            [d for r in reports for d in r["verify_durations"]]))
    values = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    values["setup.import_s"] = median(s["import_s"] for s in setups)
    values["setup.catalog_s"] = median(s["catalog_s"] for s in setups)
    values["process.wall_s"] = median(p["wall_s"] for p in plain)
    values["host.ref_ms"] = 1000 * median(
        r["ref_s"] for p in passes for r in p["parts"].values())
    values["process.cpu_s"] = median(
        sum(r["cpu_s"] for r in p["parts"].values()) for p in traced)
    values["trace.overhead_s"] = (median(p["pass_s"] for p in traced)
                                  - median(p["pass_s"] for p in plain))
    absent = sorted({a for p in traced for r in p["parts"].values()
                     for a in r["absent"]})
    values["trace.absent_targets"] = len(absent)
    if absent:
        print(f"absent trace targets: {', '.join(absent)}", file=sys.stderr)
    for part in PARTS:
        values[f"part.{part}_s"] = part_time(plain, part)
    for part in NUMERIC_PARTS:
        values[f"part.{part}.theta_eval_repeat_frac"] = median(
            layer_metrics(p["parts"][part]["counters"], [])
            ["numeric.theta_eval.repeat_frac"]
            for p in traced if part in p["parts"])
    return {name: metric(v, unit_of(name)) for name, v in values.items()}


def run(args):
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args, len(passes), traced))
        enough = not args.trace or len(passes) >= 2
        if enough and time.monotonic() - args.started >= args.seconds:
            break
    setups = [r for p in passes for r in p["parts"].values()]
    setups += [spawn("setup", args) for _ in range(MIN_SETUPS - len(setups))]

    raised = any(p["raised"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    for part in WORKLOADS[args.workload]:
        t = part_time(plain, part)
        print(f"{part}_s = " + ("failed" if t is None else f"{t:.4f} s"),
              file=sys.stderr)
    print(f"failed_frac = {failed}/{attempted}", file=sys.stderr)
    print("pass wall times: " + ", ".join(f"{p['wall_s']:.3f} s"
                                          for p in plain), file=sys.stderr)
    if args.trace:
        metrics = traced_metrics(passes, setups)
    else:
        metrics = {
            "setup_s": metric(median(s["setup_s"] for s in setups), "s"),
            "pass_s": metric(None if raised else
                             median(p["pass_s"] for p in plain), "s"),
            "peak_rss_mb": metric(
                None if raised else median(p["peak_rss_mb"] for p in plain),
                "MiB"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="smoke: the smallest inputs, for perfbench/smoke.py")
    args = p.parse_args(argv)
    args.started = time.monotonic()
    # On SIGTERM, raise in place of dying, so that subprocess.run kills the
    # running part and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "theta5", "__init__.py")):
        print(f"error: no theta5 sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
