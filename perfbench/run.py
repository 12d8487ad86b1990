#!/usr/bin/env python3
"""Benchmark of the bicanonical toolkit through `cli.run_scenario`.

    python3 perfbench/run.py --workload {paper,linsys-sweep,pq-sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from `src/` of
that checkout.  Load is a closed loop with one caller, one process and one
thread: a worker interpreter sends the next scenario only after the last
report came back.  Every operation's exit code and canonical-JSON result
digest is checked against `perfbench/reference/`, and the bundled scenarios
also against the values the test suite pins.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
prints its per-layer metrics, taken from a second, traced worker that
replays exactly the operations an untraced worker ran first.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import CRASH  # noqa: E402

# fresh setup interpreters per run: half before the timed loop and half
# after it, so that one slow stretch of the shared machine does not set the
# median of all of them
SETUP_PROBES = 10
TRACE_SHARE = 0.4        # of --seconds, for the untraced half of a traced run
WARMUP_SECONDS = 1.0     # sweeps; paper warms up with one whole pass
# op_tail_ms percentile per workload: the highest of p99.9, p99, p95 that
# has at least ten samples beyond it in a 30 s run at the speed the
# benchmark was written at.  It is fixed, so that a faster or slower
# program is compared at the same percentile.
TAIL_PCT = {"paper": 95.0, "linsys-sweep": 95.0, "pq-sweep": 99.0}
HARD_LIMIT_S = 170.0

# Values the test suite pins for the bundled scenarios.
PINS = {
    "inoue7": lambda r: (r["K2"], r["p2"], [e["dimension"] for e in r["eigentable"]],
                         r["verdict"]["degree"]) == (7, 8, [7, 1, 0, 0], 2),
    "beauville8": lambda r: (sorted((e["dimension"] for e in r["eigentable"]
                                     if e["dimension"]), reverse=True), r["kernel"])
                            == ([6, 1, 1, 1], ["0", "γ₃"]),
    "inoue-z24": lambda r: r["verdict"]["birational"] is True,
    "fermat-z52": lambda r: (len(r["invariant_monomials"]), r["verdict"]) == (9, "birational"),
    "proofcheck-all": lambda r: r["ok"] is True and [
        (c["label"], (c["K2"], c["chi"], c["pg"], c["q"]), c["contradiction"])
        for c in r["case_table"]] == [
        ("K7-irreducible", (16, 2, 4, 3), True), ("K7-divisible", (14, 2, 3, 2), True),
        ("K8-veronese", (16, 2, 4, 3), True), ("K8-blowup", (24, 3, 5, 3), True)],
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def load_reference(workload: str, pool) -> list[str]:
    path = HERE / "reference" / f"{workload}.json"
    ref = json.loads(path.read_text("utf-8"))
    if ref["pool_sha256"] != workloads.pool_sha256(pool):
        raise BenchError(f"{workload} inputs differ from the ones {path.name} was recorded for")
    return ref["outcomes"]


# ----------------------------------------------------------------- workers

class Worker:
    def __init__(self, ops_file: Path, deadline: float):
        self.ops_file = ops_file
        self.deadline = deadline

    def _argv(self, *extra):
        return [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
                "--ops", str(self.ops_file), *map(str, extra)]

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def probe(self) -> tuple[float, float, str]:
        """Seconds from starting a fresh interpreter until it has imported
        bicanonical.cli and finished the first operation, the speed factor
        that interpreter measured right after, and the operation's outcome."""
        start = time.perf_counter()
        proc = subprocess.Popen(self._argv("--probe"), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=self._timeout())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise BenchError(f"setup probe failed with exit code {proc.returncode}")
        return elapsed, float(rest), line.split()[1]

    def loop(self, *extra) -> dict:
        """Run a worker; its report, with the record lines it streamed
        gathered under "records"."""
        proc = subprocess.run(self._argv(*extra), stdout=subprocess.PIPE, text=True,
                              timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchError(f"worker failed with exit code {proc.returncode}")
        *records, last = proc.stdout.splitlines()
        report = json.loads(last)
        report["records"] = [json.loads(line) for line in records]
        return report


# ------------------------------------------------------------------ checks

class Checker:
    """Compares each operation's outcome with the reference for its input."""

    def __init__(self, workload, seed, pool, order, reference):
        self.workload, self.seed = workload, seed
        self.pool, self.order, self.reference = pool, order, reference
        self.attempted = 0
        self.failures: list[str] = []

    def index(self, pos: int) -> int:
        return self.order[pos % len(self.order)]

    def fail(self, pos: int, why: str):
        self.failures.append(f"seed {self.seed} index {pos}: {why}")

    def check(self, pos: int, got: str, crash: str = "") -> bool:
        """A raw traceback fails whatever the reference says."""
        self.attempted += 1
        want = self.reference[self.index(pos)]
        if got == want and not got.startswith(f"{CRASH}:"):
            return True
        self.fail(pos, f"got {got!r}, expected {want!r} {crash}".rstrip())
        return False

    def check_report(self, report: dict, replay_of: dict | None = None):
        """Check every operation of a worker report; each counts as failed
        at most once."""
        for pos, _, got, *_ in report["records"]:
            crash = report["errors"].get(str(pos), "").strip().splitlines()
            if not self.check(pos, got, crash[-1] if crash else ""):
                continue
            if replay_of is not None and got != replay_of["records"][pos][2]:
                self.fail(pos, "traced output differs from the untraced run")
            result = report["kept"].get(str(pos))
            if self.workload == "paper" and result is not None:
                name = self.pool[self.index(pos)]["name"]
                if not PINS[name](result):
                    self.fail(pos, f"{name} differs from the values the tests pin")


# ----------------------------------------------------------------- metrics

def tail(latencies_ms, pct: float):
    """The pct-th percentile (nearest rank) and the number of samples
    beyond it."""
    ordered = sorted(latencies_ms)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed(report):
    return [r for r in report["records"] if r[4]]


def ms(record) -> float:
    """Latency of one operation in ms at reference speed (see worker.py)."""
    return record[3] * record[5] / 1e6


def end_to_end(workload, report, setup) -> tuple[dict, dict, list[str]]:
    """The metrics at reference speed, the same metrics as measured with
    the median speed factor, and notes on how they were taken."""
    records = timed(report)
    lat = [ms(r) for r in records]
    pct = TAIL_PCT[workload]
    value, beyond = tail(lat, pct)
    metrics = {
        "setup_s": statistics.median(s * f for s, f in setup),
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": value,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }
    raw_lat = [r[3] / 1e6 for r in records]
    raw = {
        "setup_s": statistics.median(s for s, _ in setup),
        "ops_per_s": len(raw_lat) / (sum(raw_lat) / 1e3),
        "op_p50_ms": statistics.median(raw_lat),
        "op_tail_ms": tail(raw_lat, pct)[0],
        "speed_factor": statistics.median(r[5] for r in records),
        "setup_speed_factor": statistics.median(f for _, f in setup),
    }
    notes = [f"setup_s: median of {len(setup)} fresh interpreters",
             f"op_tail_ms: p{pct:g} of {len(lat)} timed operations, {beyond} beyond it"]
    return metrics, raw, notes


def per_layer(workload, pool, checker, untraced, traced) -> dict:
    base, replay = timed(untraced), timed(traced)
    n = len(replay)
    m = dict(traced["trace"])
    rank = m.pop("exactlinalg.exact_rank.rank", 0.0)
    rows = m.get("linsys.interpolation_matrix.rows", 0.0)
    m["linsys.useful_row_ratio"] = rank / rows if rows else 0.0
    m["cli.rejected"] = sum(1 for r in replay if r[1] != 0) / n
    m["trace.overhead_ratio"] = sum(map(ms, replay)) / sum(map(ms, base))
    m["fail_ratio"] = len(checker.failures) / checker.attempted

    def p50(records):
        return statistics.median(map(ms, records)) if records else 0.0

    for name in workloads.BUILTIN_ORDER:
        m[f"scenario.{name}_ms"] = p50(
            [r for r in base if workload == "paper"
             and pool[checker.index(r[0])]["name"] == name])
    m["accepted_p50_ms"] = p50([r for r in base if r[1] == 0])
    m["rejected_p50_ms"] = p50([r for r in base if r[1] != 0])
    return m


# --------------------------------------------------------------------- run

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    if not (SRC / "bicanonical" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    spec = load_benchmark_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    pool = workloads.build_pool(workload, SRC / "bicanonical" / "scenarios")
    reference = load_reference(workload, pool)
    order = workloads.run_order(workload, pool, seed)
    checker = Checker(workload, seed, pool, order, reference)

    OUT.mkdir(exist_ok=True)
    ops_file = OUT / f"ops-{workload}-{seed}.jsonl"
    ops_file.write_text("".join(json.dumps(pool[i], ensure_ascii=False) + "\n"
                                for i in order), encoding="utf-8")
    worker = Worker(ops_file, deadline)
    warmup = (["--warmup-ops", len(pool)] if workload == "paper"
              else ["--warmup-seconds", WARMUP_SECONDS])
    keep = ["--keep", len(pool) if workload == "paper" else 0]
    notes = []
    try:
        if not trace:
            setup = []

            def probe_setup():
                for _ in range(SETUP_PROBES // 2):
                    elapsed, scale, got = worker.probe()
                    setup.append((elapsed, scale))
                    checker.check(0, got)

            probe_setup()
            report = worker.loop("--seconds", seconds, *warmup, *keep)
            probe_setup()
            checker.check_report(report)
            metrics, raw, notes = end_to_end(workload, report, setup)
            notes.append("unscaled: " + json.dumps(raw, sort_keys=True))
            names = [m["name"] for m in spec["end_to_end"]]
            sent = len(report["records"])
        else:
            untraced = worker.loop("--seconds", seconds * TRACE_SHARE, *warmup, *keep)
            checker.check_report(untraced)
            traced = worker.loop("--count", len(timed(untraced)),
                                 "--warmup-ops", untraced["warmup"], *keep,
                                 "--trace", OUT / f"spans-{workload}-{seed}.jsonl")
            checker.check_report(traced, replay_of=untraced)
            metrics = per_layer(workload, pool, checker, untraced, traced)
            names = [m["name"] for m in spec["per_layer"]]
            sent = len(untraced["records"])
    finally:
        ops_file.unlink(missing_ok=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in names:
        print(f"{name:45s} {metrics[name]:14.6f} {units[name]}")
    for note in notes:
        print(note)
    print("inputs:", json.dumps(workloads.input_properties(
        workload, pool, [checker.index(p) for p in range(sent)]), sort_keys=True))
    for failure in checker.failures:
        print("FAILED", failure)
    return {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
