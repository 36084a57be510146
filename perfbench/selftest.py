"""Self-test of the benchmark at the current code.

    python3 perfbench/selftest.py

Runs one short traced run per workload and checks that
  - every run is correct, which also means that no op fails other than the
    known one (`verify` on three operators);
  - no traced function is absent, and each records at least one call on
    some workload.
Exits 1 and lists the problems otherwise.
"""

import sys

from baseline import WORKLOADS, run_workload
from tracer import TRACED


def main() -> int:
    problems = []
    calls = dict.fromkeys(TRACED, 0)
    for workload in WORKLOADS:
        record, result = run_workload(workload, seed=1, seconds=1, trace=1)
        if not result["correct"]:
            problems.append(f"{workload}: incorrect output: {record['errors']}")
        for name in record["absent"]:
            problems.append(f"{workload}: traced function {name} is absent")
        for prefix in TRACED:
            calls[prefix] += result["metrics"][f"{prefix}.calls"]["value"]
        print(f"{workload}: ok={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {record['failed_ops']}")
    problems += [f"{prefix} records no call on any workload"
                 for prefix, n in calls.items() if n == 0]
    for line in problems:
        print(f"FAIL {line}")
    if not problems:
        print(f"PASS: all {len(TRACED)} traced functions record calls")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
