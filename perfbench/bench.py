"""Timing loop, output checks, metrics and run records for one workload.

Untraced runs give the end-to-end metrics.  A traced run builds the
workload under the tracer, then executes every op of a fixed number of
cycles twice, untraced and under the tracer, and reports the per-layer
metrics of the set-up and the traced ops plus the tracer's overhead on the
ops.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import workloads
from tracer import Tracer, metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # the second stored reference, kept out of tuning
SETUP_SAMPLES = 7  # this process plus six fresh set-up-only processes
WALL_LIMIT_S = 120.0  # stop issuing ops after this much wall time, whatever --seconds says
MAX_ERRORS = 5  # error messages kept in the run record
# after each timed op the reference kernel runs for at least this share of the op's time
KERNEL_SHARE = 0.1
# a reference host runs reference_kernel() in exactly this time
REF_KERNEL_S = 0.001

# end-to-end metrics of the result line, with units (see BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "ops/ref_s",
    "peak_rss_mb": "MB",
}

_KERNEL_ARRAY = np.linspace(0.0, 1.0, 64)


def reference_kernel() -> float:
    """Fixed interpreter and small-array work that uses nothing of bandshare.

    About 1 ms on a 2.1 GHz Xeon KVM guest, half pure-Python arithmetic and
    dict stores, half small numpy expressions, like the ops themselves.
    """
    acc = 0.0
    table = {}
    for i in range(2600):
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
    for i in range(125):
        acc += float(np.sum(_KERNEL_ARRAY * 1.5 + i))
    return acc


def normalize(value):
    """The value as it reads back from JSON, so comparisons are exact and stable."""
    return json.loads(json.dumps(value))


@dataclass
class Tally:
    latencies: list = field(default_factory=list)  # seconds; inf for a failed op
    busy_s: float = 0.0
    ok: int = 0
    failed: int = 0
    wrong: int = 0  # failed ops other than a known defect: a wrong output or an unexpected error
    failed_keys: set = field(default_factory=set)
    errors: list = field(default_factory=list)
    work: dict = field(default_factory=dict)  # unit -> amount done by successful ops
    work_s: dict = field(default_factory=dict)  # unit -> time of the ops doing it
    by_kind: dict = field(default_factory=dict)  # op key less its replication -> latencies
    kernel_s: float = 0.0  # time of the reference kernel runs between ops
    kernel_runs: int = 0

    def fail(self, key: str, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.failed_keys.add(key)
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{key}: {message}")


def execute(op, reference_ops, tally: Tally) -> float:
    """Run one op, time it, and check its output; returns its latency."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # noqa: BLE001 - a failing op is recorded and the loop goes on
        latency = time.perf_counter() - start
        tally.busy_s += latency
        tally.latencies.append(math.inf)
        # only a known defect may fail, and only while no reference output pins it
        pinned = reference_ops is not None and op.key in reference_ops
        known = op.key in workloads.KNOWN_FAILURES and not pinned
        tally.fail(op.key, f"{type(exc).__name__}: {exc}", wrong=not known)
        return latency
    latency = time.perf_counter() - start
    tally.busy_s += latency
    expected = reference_ops.get(op.key) if reference_ops is not None else None
    if expected is not None:
        problem = None if normalize(op.summarize(out)) == expected else "differs from the reference"
    else:
        problem = op.check(out)
    del out
    if problem is not None:
        tally.latencies.append(math.inf)
        tally.fail(op.key, problem, wrong=True)
        return latency
    tally.ok += 1
    tally.latencies.append(latency)
    tally.by_kind.setdefault(re.sub(r"^r\d+/", "", op.key), []).append(latency)
    for unit, amount in op.work.items():
        tally.work[unit] = tally.work.get(unit, 0) + amount
        tally.work_s[unit] = tally.work_s.get(unit, 0.0) + latency
    return latency


def sample_host(tally: Tally, op_s: float) -> None:
    """Time the reference kernel for KERNEL_SHARE of an op's time, at least once.

    The host's speed drifts over seconds and minutes; sampled right after
    every op, in proportion to op time, the kernel sees the same drift as
    the ops.
    """
    spent = 0.0
    while True:
        start = time.perf_counter()
        reference_kernel()
        spent += time.perf_counter() - start
        tally.kernel_runs += 1
        if spent >= KERNEL_SHARE * op_s:
            break
    tally.kernel_s += spent


def run_cycles(wl, reference_ops, tally: Tally, wall_start: float, seconds: float) -> int:
    """Whole cycles until the ops have taken `seconds`; returns the cycle count."""
    c = 0
    while c == 0 or tally.busy_s < seconds:
        for op in wl.cycle(c):
            sample_host(tally, execute(op, reference_ops, tally))
            if time.perf_counter() - wall_start > WALL_LIMIT_S:
                return c + 1
        c += 1
    return c


def run_traced(wl, reference_ops, cycles: int, tracer: Tracer,
               wall_start: float) -> tuple[Tally, Tally]:
    """Every op of `cycles` cycles once untraced and once traced, the order
    alternating op by op, so host speed drifts alike on both sides."""
    plain, traced = Tally(), Tally()
    for c in range(cycles):
        for i, op in enumerate(wl.cycle(c)):
            for under_trace in ((False, True) if (c + i) % 2 == 0 else (True, False)):
                if under_trace:
                    with tracer:
                        execute(op, reference_ops, traced)
                else:
                    execute(op, reference_ops, plain)
            if time.perf_counter() - wall_start > WALL_LIMIT_S:
                return plain, traced
    return plain, traced


def load_reference(name: str, seed: int):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed))


def _openblas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def host_context() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": _openblas_threads(),
    }


def tail_percentile(latencies_ms):
    """(percentile, value, samples beyond) for the highest whole percentile with
    at least ten samples beyond it, or None when there are too few samples."""
    xs = sorted(latencies_ms)
    n = len(xs)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, xs[rank - 1], n - rank
    return None


def setup_samples(args, own_s: float) -> list[float]:
    samples = [own_s]
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(tally: Tally, setup: list[float]) -> tuple[dict, dict]:
    """(metrics of the result line, extra metrics for the run record).

    On a shared host the speed can swing by half, within seconds and in
    stretches of a minute or more, and from one process to the next (seen
    on a 2-vCPU KVM guest).  The result line's rate therefore counts op
    time in reference seconds: op time times REF_KERNEL_S over the mean
    time of the reference kernel run between the ops.  Both slow down
    together, so the ratio moves far less than the raw rate, which stays
    in the run record with the median latency.
    """
    ms = [x * 1000.0 for x in tally.latencies]
    busy = tally.busy_s
    kernel_mean_s = tally.kernel_s / tally.kernel_runs
    p50 = statistics.median(ms)
    if math.isinf(p50):  # most ops failed: stand in the whole timed phase
        p50 = busy * 1000.0
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_ref_s": tally.ok / (busy * REF_KERNEL_S / kernel_mean_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "ops_per_s": tally.ok / busy,
        "kernel_ms": kernel_mean_s * 1000.0,
        "kernel_runs": tally.kernel_runs,
        "op_ms_p50": p50,
        "ops_failed_frac": tally.failed / len(ms),
        "setup_s_samples": setup,
        "op_ms_p50_by_kind": {
            kind: statistics.median(xs) * 1000.0 for kind, xs in sorted(tally.by_kind.items())
        },
    }
    tail = tail_percentile(ms)
    if tail is not None:
        q, value, beyond = tail
        extra["op_ms_tail"] = {"value": value, "unit": "ms", "percentile": q,
                               "samples": len(ms), "beyond": beyond}
    if "slot_reps" in tally.work:
        extra["slot_reps_per_s"] = tally.work["slot_reps"] / busy
    if "states" in tally.work:
        extra["states_per_s"] = tally.work["states"] / tally.work_s["states"]
    return metrics, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv, process_start: float) -> int:
    args = parse_args(argv)
    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    tracer = Tracer()
    try:
        # a traced run traces the set-up too: its layer work is what setup_s covers
        with tracer if args.trace else contextlib.nullcontext():
            wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        setup_s = time.perf_counter() - process_start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, wl, setup_s, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass  # other runs still use it


def measure(args, wl, setup_s: float, tracer: Tracer) -> int:
    reference = load_reference(args.workload, args.seed)
    ref_ops = reference["ops"] if reference is not None else None
    setup_ok = reference is None or normalize(wl.setup_outputs()) == reference["setup"]
    host = host_context()
    warm = Tally()
    execute(wl.cycle(0)[0], ref_ops, warm)  # lazy initialisation, not timed
    wall_start = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "reference": reference is not None, "host": host}
    if args.trace:
        cycles = max(1, round(args.seconds * wl.trace_cycles_per_s))
        plain, traced = run_traced(wl, ref_ops, cycles, tracer, wall_start)
        units = metric_units()
        overhead = traced.busy_s / plain.busy_s - 1.0
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in tracer.metrics(overhead).items()}
        record.update(cycles=cycles, absent=tracer.absent,
                      untraced_s=plain.busy_s, traced_s=traced.busy_s)
        tallies = [warm, plain, traced]
    else:
        tally = Tally()
        record["cycles"] = run_cycles(wl, ref_ops, tally, wall_start, args.seconds)
        values, extra = end_to_end(tally, setup_samples(args, setup_s))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        record.update(extra, busy_s=tally.busy_s)
        tallies = [warm, tally]
    timed = tallies[1:]
    correct = setup_ok and not any(t.wrong for t in tallies)
    record.update(setup_matches_reference=setup_ok,
                  failed_ops=sorted(set().union(*(t.failed_keys for t in tallies))),
                  errors=[e for t in tallies for e in t.errors][:MAX_ERRORS])
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": sum(len(t.latencies) for t in timed),
                      "failed": sum(t.failed for t in timed), "metrics": metrics}))
    return 0
