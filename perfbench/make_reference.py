"""Regenerate the stored reference outputs from the code in this checkout.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For the default seed and the held-out seed, runs every op of cycles
0..pool-1 once and stores its summary in perfbench/reference/<workload>.json.
An op that fails is left out, so the benchmark checks it against invariants
if it starts to succeed.  Only regenerate on purpose: the benchmark exists
to show when outputs change.
"""

import json
import os
import shutil
import sys

import run

run.bootstrap()

import bench  # noqa: E402
import workloads  # noqa: E402


def reference_for(cls, seed: int) -> dict:
    out_dir = os.path.join(bench.ROOT, ".bench_out", f"reference-{cls.name}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        wl = cls(seed, out_dir)
        ops = {}
        for c in range(cls.pool):
            for op in wl.cycle(c):
                if op.key in ops:
                    continue
                try:
                    out = op.run()
                except Exception as exc:  # noqa: BLE001 - a failing op gets no reference
                    print(f"{cls.name} seed {seed}: {op.key} fails ({exc}); no reference",
                          file=sys.stderr)
                    continue
                problem = op.check(out)
                if problem is not None:
                    sys.exit(f"{cls.name} seed {seed}: {op.key}: {problem}")
                ops[op.key] = bench.normalize(op.summarize(out))
        return {"setup": bench.normalize(wl.setup_outputs()), "ops": ops}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def write_reference(fh, name: str, seeds: dict) -> None:
    """JSON with one line per op, so a changed output shows as a one-line diff."""
    fh.write(f'{{"workload": {json.dumps(name)}, "seeds": {{\n')
    for i, (seed, ref) in enumerate(seeds.items()):
        fh.write(f' {json.dumps(seed)}: {{"setup": {json.dumps(ref["setup"], sort_keys=True)}, '
                 '"ops": {\n')
        fh.write(",\n".join(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                            for key, value in ref["ops"].items()))
        fh.write("\n }}" + (",\n" if i < len(seeds) - 1 else "\n"))
    fh.write("}}\n")


def main(names) -> int:
    os.makedirs(bench.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        cls = workloads.WORKLOADS[name]
        seeds = {str(s): reference_for(cls, s) for s in (bench.DEFAULT_SEED, bench.HELD_OUT_SEED)}
        path = os.path.join(bench.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            write_reference(fh, name, seeds)
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
