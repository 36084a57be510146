"""Regenerate the baseline: every workload untraced, then traced.

    python3 perfbench/baseline.py [--seconds 25] [--seed 1] [WORKLOAD ...]

Prints every end-to-end metric by name and unit for every workload (the
result-line metrics plus the run record's workload-specific ones), then the
per-layer table from the traced runs, including trace.overhead_frac, and the
host context of each run.  Exits 1 if any run reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import metric_units  # noqa: E402

WORKLOADS = ("dynamic_harm_n2", "static_entry_n16", "certify_sweep", "verify_joint")
RUN_TIMEOUT_S = 600


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(run record, result) of one benchmark process."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def end_to_end_rows(record: dict, result: dict):
    for name, metric in result["metrics"].items():
        yield name, metric["value"], metric["unit"], ""
    tail = record.get("op_ms_tail")
    if tail is not None:
        yield ("op_ms_tail", tail["value"], "ms",
               f"p{tail['percentile']} of {tail['samples']} ops, {tail['beyond']} beyond")
    else:
        yield "op_ms_tail", None, "ms", "omitted: fewer than 20 ops"
    for name, unit in (("ops_per_s", "ops/s"), ("kernel_ms", "ms"), ("op_ms_p50", "ms"),
                       ("slot_reps_per_s", "slot-reps/s"), ("states_per_s", "states/s")):
        if name in record:
            yield name, record[name], unit, ""
    yield ("ops_failed_frac", record["ops_failed_frac"], "fraction",
           ", ".join(record["failed_ops"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    runs = {}
    for workload in args.workloads:
        runs[workload] = {
            "untraced": run_workload(workload, args.seed, args.seconds, 0),
            "traced": run_workload(workload, args.seed, args.seconds, 1),
        }

    print(f"== end to end: untraced, seed {args.seed}, {args.seconds:g} s of ops per workload ==")
    print(f"{'workload':<18} {'metric':<16} {'value':>12}  {'unit':<12} note")
    for workload, run in runs.items():
        record, result = run["untraced"]
        for name, value, unit, note in end_to_end_rows(record, result):
            shown = "-" if value is None else _fmt(value)
            print(f"{workload:<18} {name:<16} {shown:>12}  {unit:<12} {note}")
        print(f"{workload:<18} {'(ops)':<16} {result['attempted']:>12}  "
              f"{'attempted':<12} {result['failed']} failed, correct={result['correct']}")

    print("\n== per layer: traced runs ==")
    names = list(runs)
    print(f"{'metric':<46}" + "".join(f"{w:>18}" for w in names) + "  unit")
    for metric, unit in metric_units().items():
        cells = "".join(f"{_fmt(runs[w]['traced'][1]['metrics'][metric]['value']):>18}"
                        for w in names)
        print(f"{metric:<46}{cells}  {unit}")
    for w in names:
        absent = runs[w]["traced"][0]["absent"]
        if absent:
            print(f"absent in {w}: {', '.join(absent)}")

    print("\n== host ==")
    for w in names:
        print(f"{w:<18} {json.dumps(runs[w]['untraced'][0]['host'])}")

    correct = all(r[1]["correct"] for run in runs.values() for r in run.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
