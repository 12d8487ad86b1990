#!/usr/bin/env python3
"""Replay every entry of the benchmark pools and compare it with the
recorded reference outcome.

    python3 scripts/check_reference_digests.py

Each pool is built by perfbench's own `workloads.build_pool`, and every
entry runs in-process through `bicanonical.cli.run_scenario`
(`worker.run_op`), imported from `src/` of the checkout the script is in.
Its exit code and result digest (`worker.outcome`) must equal the one in
`perfbench/reference/<workload>.json` (`run.load_reference`), through the
benchmark's own `run.Checker`, so a raw traceback fails whatever the
reference says.

Prints one line per workload and one per mismatch, and exits 1 on any
mismatch.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from run import SRC, Checker, load_reference  # noqa: E402
from worker import CRASH, load_cli, outcome, run_op  # noqa: E402

SCENARIOS = SRC / "bicanonical" / "scenarios"


def check_workload(cli, workload: str) -> tuple[int, list[str]]:
    """The size of one workload's pool, and every mismatch in it as the
    benchmark words it."""
    pool = workloads.build_pool(workload, SCENARIOS)
    checker = Checker(workload, 0, pool, list(range(len(pool))), load_reference(workload, pool))
    for pos, payload in enumerate(pool):
        code, result, _ = run_op(cli, payload)
        crash = result.strip().splitlines()[-1] if code == CRASH else ""
        checker.check(pos, outcome(code, result), crash)
    return len(pool), [f"{workload}: {line}" for line in checker.failures]


def main() -> int:
    cli = load_cli(str(SRC))
    failures = []
    for workload in workloads.WORKLOADS:
        start = time.perf_counter()
        size, found = check_workload(cli, workload)
        print(f"{workload}: {size} entries, {len(found)} mismatches, "
              f"{time.perf_counter() - start:.1f} s")
        failures += found
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
