"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import subprocess
import sys
import time

import numpy as np

from setp import evaluate, solvers, transforms, verify
from setp.core import AprioriOrder, canonicalize


def report(name, ok, detail=""):
    line = "ACCEPTANCE %-20s %s %s" % (name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def seeded_order(n, seed):
    rng = np.random.default_rng(seed)
    return canonicalize(
        AprioriOrder(
            tuple(int(i) for i in rng.permutation(n)),
            tuple(int(o) for o in rng.integers(0, 2, size=n)),
        )
    )


def test_1_oracle_equivalence():
    """Closed form matches 2^n enumeration within 1e-9 relative, 200 instances."""
    worst = 0.0
    for seed in range(200):
        n = 1 + seed % 12
        inst = transforms.gen_random_simplified(n, seed=seed, metric=(seed % 2 == 0))
        order = seeded_order(n, 10_000 + seed)
        cf = evaluate.expected_cost_closed_form(order, inst).value
        en = evaluate.expected_cost_enumeration(order, inst).value
        worst = max(worst, abs(cf - en) / max(1.0, abs(en)))
    report("oracle-equivalence", worst <= 1e-9, "max_rel_error=%.3e" % worst)


def test_2_formulation_equivalence():
    """Direct original-form evaluation equals the simplified composition for
    every Eulerian tour of 50 small random instances."""
    ok, lines = verify.equivalence_suite(seeds=50)
    report("formulation-equiv", ok, " ".join(lines))


def test_3_tsp_reduction():
    """SETP optimum = TSP optimum + m*epsilon, and the lifted optimal order
    is a TSP-optimal tour, 50 instances with m in 4..8."""
    ok, lines = verify.reduction_suite(seeds=50, size=8)
    report("tsp-reduction", ok, " ".join(lines))


def test_4_bijection():
    """lift(inject(t)) = t for every undirected city tour, m <= 6."""
    ok, lines = verify.bijection_suite(size=6)
    report("bijection", ok, " ".join(lines))


def test_5_eulerian_contrast():
    """Two Eulerian tours of one graph with expected costs differing > 1e-3."""
    ok, lines = verify.eulerian_contrast_suite()
    report("eulerian-contrast", ok, " ".join(lines))


def test_6_monte_carlo_consistency():
    """MC estimate within 4 standard errors of enumeration on >= 19/20 runs."""
    hits = 0
    for seed in range(20):
        inst = transforms.gen_random_simplified(10, seed=seed, metric=(seed % 2 == 0))
        order = seeded_order(10, 20_000 + seed)
        en = evaluate.expected_cost_enumeration(order, inst).value
        mc = evaluate.expected_cost_monte_carlo(order, inst, samples=100_000, seed=seed)
        if abs(mc.value - en) <= 4 * mc.stderr:
            hits += 1
    report("mc-consistency", hits >= 19, "within_4se=%d/20" % hits)


def test_7_performance_floor():
    """Closed form at n=1000 under 1 s; brute force at n=9 under 5 min."""
    inst = transforms.gen_random_simplified(1000, seed=0)
    order = AprioriOrder(tuple(range(1000)), (0,) * 1000)
    t0 = time.perf_counter()
    evaluate.expected_cost_closed_form(order, inst)
    t_eval = time.perf_counter() - t0

    inst9 = transforms.gen_random_simplified(9, seed=1)
    t0 = time.perf_counter()
    solvers.brute_force(inst9)
    t_bf = time.perf_counter() - t0
    report(
        "performance-floor",
        t_eval < 1.0 and t_bf < 300.0,
        "closed_form_n1000=%.3fs brute_force_n9=%.1fs" % (t_eval, t_bf),
    )


def test_8_determinism(tmp_path):
    """Seeded CLI commands produce byte-identical stdout across two runs."""

    def run(*args):
        res = subprocess.run(
            [sys.executable, "-m", "setp.cli", *args], capture_output=True
        )
        assert res.returncode == 0, res.stderr
        return res.stdout

    path = str(tmp_path / "inst.json")
    gen_args = ("gen", "--kind", "simplified", "--n", "6", "--seed", "3", "-o", path)
    ok = run(*gen_args) == run(*gen_args)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run("gen", "--kind", "original", "--v", "5", "--e", "8", "--seed", "5", "-o", str(a))
    run("gen", "--kind", "original", "--v", "5", "--e", "8", "--seed", "5", "-o", str(b))
    ok = ok and a.read_bytes() == b.read_bytes()
    ev_args = ("evaluate", path, "0+,2-,1+,4+,3-,5+", "--method", "mc", "--samples", "5000", "--seed", "9")
    ok = ok and run(*ev_args) == run(*ev_args)
    solve_args = ("solve", "--heuristic", path)
    ok = ok and run(*solve_args) == run(*solve_args)
    report("determinism", ok)
