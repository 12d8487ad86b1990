#!/usr/bin/env python3
"""Record the reference outcome of every benchmark input.

    python3 perfbench/record.py [workload ...]

Runs each pool entry once through `cli.run_scenario`, in process, and
writes `perfbench/reference/<workload>.json`: the hash of the inputs and,
per input, the exit code and the digest of the canonical JSON result.  The
references are the program's outputs at the commit that added the
benchmark; a later change must reproduce them, so record again only when
the workload inputs themselves change, never to absorb a changed output.
"""

from __future__ import annotations

import json
import platform
import sys
from collections import Counter

from run import HERE, PINS, SRC
from worker import CRASH, load_cli, outcome, run_op
import workloads


def record(workload: str, cli) -> dict:
    pool = workloads.build_pool(workload, SRC / "bicanonical" / "scenarios")
    outcomes = []
    for i, payload in enumerate(pool):
        code, result, _ = run_op(cli, payload)
        if code == CRASH:
            print(f"{workload} input {i} raises:\n{result}", file=sys.stderr)
        if workload == "paper" and not PINS[payload["name"]](result):
            raise SystemExit(f"{payload['name']} differs from the values the tests pin")
        outcomes.append(outcome(code, result))
    return {"workload": workload, "pool_size": len(pool),
            "pool_sha256": workloads.pool_sha256(pool),
            "python": platform.python_version(), "outcomes": outcomes}


def main(argv) -> int:
    cli = load_cli(str(SRC))
    for workload in argv or workloads.WORKLOADS:
        ref = record(workload, cli)
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=0) + "\n", encoding="utf-8")
        codes = Counter(o.split(":")[0] for o in ref["outcomes"])
        print(f"{workload}: {ref['pool_size']} inputs, exit codes {dict(codes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
