"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import workloads
from run import HERE, ROOT, SRC, Checker, load_benchmark_spec, load_reference
from tracing import Tracer
from worker import CRASH, load_cli, outcome, run_op

SPEC = load_benchmark_spec()
SCENARIOS = SRC / "bicanonical" / "scenarios"


@pytest.fixture(scope="module")
def cli():
    return load_cli(str(SRC))


@pytest.fixture(scope="module")
def pools():
    return {w: workloads.build_pool(w, SCENARIOS) for w in workloads.WORKLOADS}


def run_lines(pool, order):
    return b"".join(workloads.canonical_json(pool[i]) + b"\n" for i in order)


@pytest.mark.parametrize("workload", ["linsys-sweep", "pq-sweep"])
def test_same_seed_gives_byte_identical_payloads(workload, pools):
    again = workloads.build_pool(workload, SCENARIOS)
    first = run_lines(pools[workload], workloads.run_order(workload, pools[workload], 7))
    second = run_lines(again, workloads.run_order(workload, again, 7))
    other = run_lines(again, workloads.run_order(workload, again, 8))
    assert first == second
    assert first != other
    # and the inputs are the ones the reference outcomes were recorded for
    assert len(load_reference(workload, again)) == len(again)


def test_sweeps_repeat_no_input(pools):
    for workload in ("linsys-sweep", "pq-sweep"):
        keys = {workloads.canonical_json(p) for p in pools[workload]}
        assert len(keys) == len(pools[workload])
        props = workloads.input_properties(workload, pools[workload],
                                           range(len(pools[workload])))
        assert props["repeat_share"] == 0.0
    props = workloads.input_properties("paper", pools["paper"], [0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
    assert props["repeat_share"] == 1.0


@pytest.mark.parametrize("workload", ["linsys-sweep", "pq-sweep"])
def test_every_block_of_a_run_has_the_pool_mix(workload, pools):
    pool = pools[workload]
    order = workloads.run_order(workload, pool, 5)
    assert order[0] == 0 and sorted(order) == list(range(len(pool)))
    ranked = sorted(range(1, len(pool)),
                    key=lambda i: (workloads._stratum_key(workload, pool[i]), i))
    size = len(ranked) // workloads.STRATA
    stratum = {i: r // size for r, i in enumerate(ranked)}
    blocks = len(ranked) // workloads.STRATA
    for b in range(blocks):
        block = order[1 + b * workloads.STRATA:1 + (b + 1) * workloads.STRATA]
        assert sorted(stratum[i] for i in block) == list(range(workloads.STRATA))


def test_traced_outputs_equal_untraced(cli, pools):
    picks = {"paper": range(5), "linsys-sweep": range(6), "pq-sweep": range(12)}
    payloads = [pools[w][i] for w, idx in picks.items() for i in idx]
    plain = [outcome(*run_op(cli, p)[:2]) for p in payloads]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [outcome(*run_op(cli, p, lambda f, op=op: tracer.run_op(op, f))[:2])
                  for op, p in enumerate(payloads)]
    finally:
        tracer.uninstall()
    assert traced == plain
    summary = tracer.summary(len(payloads))
    for name in ("linsys.h0_fat_points.calls", "exactlinalg.exact_rank.calls",
                 "grouplib.Subgroup.init.calls", "covers.validate_building_data.calls",
                 "fermat.verify_weight_derivation.calls", "grouplib.Automorphism.call.calls",
                 "grouplib.enumerated", "linsys.interpolation_matrix.rows"):
        assert summary[name] > 0, name
    # uninstall restored every binding
    from bicanonical import beauville, covers, linsys
    assert not hasattr(linsys.exact_rank, "__wrapped__")
    assert not hasattr(beauville.validate_building_data, "__wrapped__")
    assert covers.validate_building_data is beauville.validate_building_data


def test_validate_building_data_seen_through_every_binding(cli, pools):
    accepted = next(p for p in pools["pq-sweep"] if workloads.pq_accepted(p))
    tracer = Tracer()
    tracer.install()
    try:
        run_op(cli, accepted, lambda f: tracer.run_op(0, f))
    finally:
        tracer.uninstall()
    # twice from cli.run_product_quotient, twice from beauville.bicanonical_report
    assert tracer.summary(1)["covers.validate_building_data.calls"] == 4


def checker_for(workload, pools, order=None):
    pool = pools[workload]
    order = list(range(len(pool))) if order is None else order
    return Checker(workload, 0, pool, order, load_reference(workload, pool))


def test_reference_outcomes_reproduce(cli, pools):
    for workload, count in (("paper", 5), ("linsys-sweep", 4), ("pq-sweep", 10)):
        checker = checker_for(workload, pools)
        for pos in range(count):
            assert checker.check(pos, outcome(*run_op(cli, pools[workload][pos])[:2]))
        assert not checker.failures


def test_altered_result_counts_as_failed(cli, pools, monkeypatch):
    from bicanonical import linsys
    checker = checker_for("linsys-sweep", pools)
    original = linsys.h0_fat_points
    monkeypatch.setattr(linsys, "h0_fat_points", lambda cfg, system: original(cfg, system) + 1)
    assert not checker.check(0, outcome(*run_op(cli, pools["linsys-sweep"][0])[:2]))

    def broken(cfg, system):
        raise KeyError("boom")

    monkeypatch.setattr(linsys, "h0_fat_points", broken)
    code, text, _ = run_op(cli, pools["linsys-sweep"][1])
    assert code == CRASH and "KeyError" in text
    assert not checker.check(1, outcome(code, text), text)
    assert checker.attempted == 2 and len(checker.failures) == 2


def test_altered_pinned_value_counts_as_failed(cli, pools):
    result = run_op(cli, pools["paper"][0])[1]
    result["p2"] = 9
    report = {"records": [[0, 0, outcome(0, result), 1, 0, 1.0]], "errors": {},
              "kept": {"0": result}}
    checker = checker_for("paper", pools)
    checker.check_report(report)
    assert len(checker.failures) == 1  # the digest differs from the reference
    # even with a reference that agreed, the pinned value is checked
    checker.reference = [outcome(0, result)] + checker.reference[1:]
    checker.failures.clear()
    checker.check_report(report)
    assert len(checker.failures) == 1 and "pin" in checker.failures[0]


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pq-sweep", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
