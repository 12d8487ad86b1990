#!/usr/bin/env python3
"""Run every workload on seeds 1-10 and summarise each metric.

    python3 perfbench/baseline.py [--write]

Runs one set: `run.py` once per (workload, seed) with the BENCHMARK.json
run length, one run at a time, then one traced run per workload.  Prints,
per workload and end-to-end metric, the median and the quartile spread as a
share of the median next to the metric's bound.

With --write it adds the set to perfbench/baseline.json, with the git
commit, Python version, platform and CPU count; sets recorded from another
commit or run length are dropped.  Every set keeps its per-seed values at
reference speed and as measured, and the speed factors.  The file's
`agreement` then compares the sets: per metric, each set's median, the
largest quartile spread of any set, the largest worsening of one set's
median against another's, and the bound those two figures call for (see
`derived_bound`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT, load_benchmark_spec

SEEDS = list(range(1, 11))
BOUND_STEPS = (0.05, 0.1, 0.15, 0.2, 0.25)


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """The result line of one run and, for --trace 0, its unscaled values."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    unscaled = next((json.loads(line.split(" ", 1)[1]) for line in lines
                     if line.startswith("unscaled: ")), {})
    return result, unscaled


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_set(spec) -> dict:
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in SEEDS]
        entry = {"end_to_end": {}, "unscaled": {},
                 "attempted": sum(r["attempted"] for r, _ in runs),
                 "failed": sum(r["failed"] for r, _ in runs)}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = quartiles([r["metrics"][name]["value"] for r, _ in runs])
            entry["end_to_end"][name] = row
            print(f"{workload:13s} {name:12s} median {row['median']:11.4f} {metric['unit']:4s}"
                  f" spread {row['spread']:.4f} (bound {metric['bound']})")
        for name in runs[0][1]:
            entry["unscaled"][name] = quartiles([u[name] for _, u in runs])
        traced, _ = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{workload:13s} trace.overhead_ratio "
              f"{entry['per_layer']['trace.overhead_ratio']:.3f}")
        summary[workload] = entry
    return summary


def derived_bound(spread: float, change: float) -> float | None:
    """The smallest step of BOUND_STEPS that is at least three times the
    largest quartile spread and twice the largest change between sets; None
    if no step is.  The spread of `setup_s` is not gated (its fresh
    interpreters are the noisiest figure), so it is passed in as 0."""
    return next((b for b in BOUND_STEPS if b >= 3 * spread and b >= 2 * change), None)


def agreement(spec, sets) -> dict:
    out = {}
    for workload in sets[0]:
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = [s[workload]["end_to_end"][name]["median"] for s in sets]
            sign = 1 if metric["better"] == "lower" else -1
            change = max((sign * (b - a) / a for a, b in itertools.permutations(medians, 2)),
                         default=0.0)
            spread = max(s[workload]["end_to_end"][name]["spread"] for s in sets)
            rows[name] = {"set_medians": medians, "worst_spread": spread,
                          "worst_set_change": max(change, 0.0), "bound": metric["bound"],
                          "derived_bound": derived_bound(0.0 if name == "setup_s" else spread,
                                                         max(change, 0.0))}
        out[workload] = rows
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    spec = load_benchmark_spec()
    this_set = run_set(spec)
    if not args.write:
        return 0
    header = {
        "program_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seeds": SEEDS,
        "run_seconds": spec["run_seconds"],
    }
    path = HERE / "baseline.json"
    old = json.loads(path.read_text("utf-8")) if path.exists() else {}
    same = all(old.get(k) == header[k] for k in ("program_commit", "run_seconds"))
    sets = (old.get("sets", []) if same else []) + [this_set]
    agree = agreement(spec, sets)
    for workload, rows in agree.items():
        for name, row in rows.items():
            print(f"{workload:13s} {name:12s} sets {len(sets)} worst spread "
                  f"{row['worst_spread']:.4f} worst change {row['worst_set_change']:.4f} "
                  f"bound {row['bound']} derived {row['derived_bound']}")
    baseline = {**header, "agreement": agree, "sets": sets}
    path.write_text(json.dumps(baseline, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
