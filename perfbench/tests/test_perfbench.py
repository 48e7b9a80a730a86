"""Tests of the benchmark itself: run them with `python3 -m pytest perfbench/tests`."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402
import setp  # noqa: E402
from setp import evaluate, solvers, transforms  # noqa: E402
from setp.core import AprioriOrder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith("metric %s = " % m["name"]) and line.endswith(" " + m["unit"]) for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert any(line.startswith("env=") for line in lines)


def _broken_weighted_tour_costs(original):
    def broken(D, a, b, W):
        return original(D, a, b, W) * 1.01

    return broken


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_checks_catch_a_wrong_evaluator(workload, tmp_path, monkeypatch):
    bench.setup(workload, 11, "tiny", tmp_path)
    broken = _broken_weighted_tour_costs(evaluate.weighted_tour_costs)
    monkeypatch.setattr(evaluate, "weighted_tour_costs", broken)
    monkeypatch.setattr(solvers, "weighted_tour_costs", broken)
    result = bench.measure(workload, 11, 0.0, False, "tiny", tmp_path)
    assert result["failed"] > 0
    assert result["report"]["fail_rate"] > 0


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    def refuse(self, package):
        raise AssertionError("wrappers installed in an untraced run")

    monkeypatch.setattr(layertrace.Tracer, "install", refuse)
    bench.setup("heuristic", 3, "tiny", tmp_path)
    assert bench.measure("heuristic", 3, 0.0, False, "tiny", tmp_path)["failed"] == 0


def test_tracer_wraps_reexports_and_restores():
    original = evaluate.weighted_tour_costs
    tracer = layertrace.Tracer()
    tracer.install(setp)
    try:
        assert solvers.weighted_tour_costs is evaluate.weighted_tour_costs is not original
        inst = transforms.gen_random_simplified(5, seed=1)
        order = solvers.nearest_neighbor(inst)
        evaluate.expected_cost_closed_form(order, inst)
        assert tracer.spans == []  # no op open
        tracer.op = 0
        evaluate.expected_cost_closed_form(order, inst)
        tracer.op = None
    finally:
        tracer.uninstall()
    assert evaluate.weighted_tour_costs is original and solvers.weighted_tour_costs is original
    totals = tracer.totals()
    outer, inner = totals["evaluate.expected_cost_closed_form"], totals["evaluate.weighted_tour_costs"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert tracer.counts["evaluate.weighted_tour_costs.pair_terms"] == 25


@pytest.mark.parametrize("seed", range(5))
def test_oracle_closed_form_matches_enumeration_and_package(seed):
    inst = transforms.gen_random_simplified(7, seed=seed, metric=seed % 2 == 0)
    rng = np.random.default_rng(seed)
    seq = tuple(int(i) for i in rng.permutation(7))
    orient = tuple(int(o) for o in rng.integers(0, 2, size=7))
    closed = oracle.closed_form(inst.D, inst.R, inst.p, seq, orient)
    assert closed == pytest.approx(oracle.enumeration(inst.D, inst.R, inst.p, seq, orient), rel=1e-12)
    package = evaluate.expected_cost_closed_form(AprioriOrder(seq, orient), inst).value
    assert closed == pytest.approx(package, rel=1e-12)


def test_oracle_original_matrix_matches_simplify():
    inst = transforms.gen_random_original(30, 60, 8, seed=4)
    D, R = oracle.original_matrix(inst.vertices, inst.edges, inst.dist, inst.depot, inst.required)
    simp, _ = transforms.simplify(inst)
    assert R == [tuple(e) for e in simp.R]
    np.testing.assert_allclose(D, simp.D, rtol=1e-12, atol=0)


def test_oracle_tsp_optimum_matches_package():
    C = transforms.gen_random_tsp(6, seed=2).C
    assert oracle.tsp_optimum(C) == pytest.approx(solvers.brute_force_tsp(C)[1], rel=1e-12)
