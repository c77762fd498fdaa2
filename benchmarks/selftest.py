"""Self-tests of the benchmark: its correctness gate and its trace.

Run from the repository root:  python3 -m pytest -q benchmarks/selftest.py
(about 70 s: one traced pass of every workload, and one short benchmark run).
"""

from __future__ import annotations

import copy
import json
import shutil
import statistics
import subprocess
import sys

import pytest

from run import ROOT, Runner
from workloads import (
    DIVISOR_GAPS,
    build_workloads,
    load_references,
    passes_check,
    setup_invocation,
)

REFS = load_references()


def _divisor_run(refs):
    [invocation] = [i for i in build_workloads(refs)["classes-g6"] if i.argv[-1] == DIVISOR_GAPS]
    return Runner(ROOT).run_pass([invocation])


def test_corrupted_reference_makes_fail_ratio_positive():
    assert _divisor_run(REFS).failed == 0
    corrupted = copy.deepcopy(REFS)
    corrupted["classes-g6"][DIVISOR_GAPS]["class_pointed"]["psi^1"] = "22"
    bad = _divisor_run(corrupted)
    assert bad.failed / bad.attempted > 0


def _hilbert_envelope(rows):
    return {"payload": [{"rows": [{"degree": d, "lower": lo, "upper": up} for d, lo, up in rows]}]}


def test_gate_rejects_exit_code_sandwich_and_identity_violations():
    refs = copy.deepcopy(REFS)
    [hilbert] = build_workloads(refs)["hilbert-g3-d12"]
    good = json.dumps(_hilbert_envelope(refs["hilbert-g3-d12"])).encode()
    assert passes_check(hilbert, 0, good)
    assert not passes_check(hilbert, 3, good)
    assert not passes_check(hilbert, 0, b"not json")

    refs["hilbert-g3-d12"] = [[0, 2, 1]]
    [inverted] = build_workloads(refs)["hilbert-g3-d12"]
    assert not passes_check(inverted, 0, json.dumps(_hilbert_envelope([[0, 2, 1]])).encode())

    # a reference and an output that agree but break the divisor identity
    wrong = {"lambda1^1": "-1", "psi^1": "20"}
    refs["classes-g6"][DIVISOR_GAPS]["class_pointed"] = wrong
    [divisor] = [i for i in build_workloads(refs)["classes-g6"] if i.argv[-1] == DIVISOR_GAPS]
    envelope = {"payload": [{
        "gaps": [1, 2, 3, 4, 5, 7],
        "class_pointed": {"terms": [{"coeff": "-1", "exps": {"lambda1": 1}},
                                    {"coeff": "20", "exps": {"psi": 1}}]},
        "class_unpointed": {"terms": [{"coeff": "21", "exps": {"kappa0": 1}}]},
    }]}
    assert not passes_check(divisor, 0, json.dumps(envelope).encode())


@pytest.fixture(scope="module")
def traced():
    runner = Runner(ROOT)
    return {name: runner.run_pass(invs, traced=True) for name, invs in build_workloads(REFS).items()}


def _uncovered(p) -> float:
    """Traced wall time of a pass that no span covers."""
    return p.wall - sum(stat["self_s"] for stat in p.trace["spans"].values())


@pytest.fixture(scope="module")
def startup_wall():
    """Uncovered time of a traced CLI run that does no mathematics (median of 9)."""
    runner = Runner(ROOT)
    setup = [setup_invocation(REFS)]
    return statistics.median(_uncovered(runner.run_pass(setup, traced=True)) for _ in range(9))


def test_traced_passes_are_correct(traced):
    for p in traced.values():
        assert p.failed == 0


def test_spans_cover_traced_wall_but_startup(traced, startup_wall):
    # What the spans miss should be interpreter start, import, tracer set-up and
    # exit, once per invocation, about what a run that does no mathematics misses.
    for name, p in traced.items():
        assert all(stat["self_s"] >= 0 for stat in p.trace["spans"].values()), name
        assert abs(_uncovered(p) - p.attempted * startup_wall) < 0.05 * p.wall, name


def test_layer_shares_match_what_each_workload_stresses(traced):
    spans = {name: p.trace["spans"] for name, p in traced.items()}
    assert spans["hilbert-g3-d12"]["exactalg.rank"]["self_s"] > 0.5 * traced["hilbert-g3-d12"].wall
    assert spans["hilbert-g5-d10"]["tautring.relgen"]["total_s"] > 0.5 * traced["hilbert-g5-d10"].wall
    assert spans["hilbert-g5-d10"]["tautring.relgen"]["calls"] == 2
    for name in ("classes-g6", "pullback-smooth-g6"):
        assert "exactalg.rank" not in spans[name]
    assert spans["pullback-smooth-g6"]["pullback.mumford"]["calls"] == 1
    for name in ("classes-g6", "hilbert-g3-d12", "hilbert-g5-d10"):
        assert "pullback.mumford" not in spans[name]
    assert spans["classes-g6"]["wcycles.class"]["calls"] == 23


def test_result_line_holds_each_metric_as_value_and_unit_only():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pullback-smooth-g6", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics == {
        m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in spec["per_layer"]
    }
    assert all(type(m["value"]) in (int, float) for m in metrics.values())
    absent = json.loads(next(line for line in lines if line.startswith("absent "))[len("absent "):])
    assert "exactalg.rank_s" in absent and "pullback.mumford_s" not in absent
    assert all(metrics[name]["value"] == 0 for name in absent)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "hilbert-g3-d12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
