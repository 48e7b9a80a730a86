import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setp import evaluate, solvers
from setp.core import AprioriOrder, Scenario, SimplifiedInstance, canonicalize, induced_order, validate_tour
from setp.evaluate import (
    aposteriori_cost,
    expected_cost_closed_form,
    expected_cost_enumeration,
    expected_cost_monte_carlo,
    expected_cost_original,
    expected_cost_original_direct,
    _enumerated_scenarios,
    _oriented_rows,
    _step_table,
    scenario_costs,
    scenario_matrix,
    weighted_tour_costs,
)
from setp.graph import Multigraph, all_eulerian_tours, hierholzer
from setp.transforms import attach_depot_edge, gen_random_original, gen_random_simplified, simplify


def two_edge_instance():
    # edges (0,1) and (2,3); distances chosen for easy hand expansion
    D = np.array(
        [
            [0.0, 2.0, 5.0, 4.0],
            [2.0, 0.0, 3.0, 6.0],
            [5.0, 3.0, 0.0, 1.0],
            [4.0, 6.0, 1.0, 0.0],
        ]
    )
    return SimplifiedInstance(D=D, R=[(0, 1), (2, 3)], p=[0.5, 0.5])


def random_order(n, seed):
    rng = np.random.default_rng(seed)
    return canonicalize(
        AprioriOrder(
            tuple(int(i) for i in rng.permutation(n)),
            tuple(int(o) for o in rng.integers(0, 2, size=n)),
        )
    )


def walk_cost(D, R, order, served):
    """Reference scenario cost: a plain loop over the served edges in order,
    each served along its orientation, then a hop to the next served tail."""
    stops = []
    for k, o in zip(order.sequence, order.orient):
        if served[k]:
            u, v = R[k]
            stops.append((v, u) if o else (u, v))
    total = 0.0
    for i, (tail, head) in enumerate(stops):
        total += D[tail, head] + D[head, stops[(i + 1) % len(stops)][0]]
    return total


def reference_scenario_costs(D, a, b, served):
    """Row-major scenario costs, as `scenario_costs` computed them before its
    step table: `served` is (rows, n), and each row's terms are summed in
    position order, which the step-table version must reproduce bit for bit."""
    served = np.atleast_2d(served)
    n = served.shape[1]
    pos = np.arange(n)
    # first served position at or after each position, n if there is none
    nxt = np.minimum.accumulate(np.where(served, pos, n)[:, ::-1], axis=1)[:, ::-1]
    succ = np.roll(nxt, -1, axis=1)
    succ = np.minimum(np.where(succ < n, succ, nxt[:, :1]), n - 1)
    return np.where(served, D[a, b] + D[b, a[succ]], 0.0).sum(axis=1)


def reference_weighted_tour_costs(D, a, b, W):
    """The closed-form kernel one shift at a time, as it was before its
    blocks of shifts."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    n = W.shape[-1]
    svc = D[a, b]
    cost = (W * svc).sum(axis=-1)
    run = np.ones_like(W)
    W2 = np.concatenate([W, W], axis=-1)
    a2 = np.concatenate([a, a], axis=-1)
    q2 = 1.0 - W2
    for t in range(1, n):
        cost = cost + (W * W2[..., t : t + n] * run * D[b, a2[..., t : t + n]]).sum(axis=-1)
        run = run * q2[..., t : t + n]
    cost = cost + (W * run * D[b, a]).sum(axis=-1)
    return cost


@st.composite
def instance_and_order(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**16))
    inst = gen_random_simplified(n, seed=seed, metric=draw(st.booleans()))
    rng = np.random.default_rng(seed)
    order = AprioriOrder(tuple(int(i) for i in rng.permutation(n)), tuple(int(o) for o in rng.integers(0, 2, n)))
    return inst, order


class TestScenarioCosts:
    @settings(max_examples=200, deadline=None)
    @given(case=instance_and_order(), data=st.data())
    def test_matches_python_walk(self, case, data):
        inst, order = case
        n = inst.n
        lone = data.draw(st.integers(0, n - 1))
        rows = [[False] * n, [i == lone for i in range(n)], [True] * n]
        rows += data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=6))
        served = np.array(rows, dtype=bool)  # by edge id
        a, b, _ = _oriented_rows(inst, order.sequence, order.orient)
        got = scenario_costs(_step_table(inst.D, a, b), served[:, list(order.sequence)].T)
        want = [walk_cost(inst.D, inst.R, order, row) for row in rows]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got[0] == 0.0

    @settings(max_examples=150, deadline=None)
    @given(case=instance_and_order(max_n=40), data=st.data())
    def test_bit_equal_to_row_major_reference(self, case, data):
        inst, order = case
        n = inst.n
        kinds = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, None]), min_size=n, max_size=n))
        p = np.array([q if k is None else k for k, q in zip(kinds, inst.p)])
        inst = SimplifiedInstance(D=inst.D, R=inst.R, p=p)
        a, b, q = _oriented_rows(inst, order.sequence, order.orient)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        served = np.vstack([np.zeros(n, bool), np.eye(n, dtype=bool)[data.draw(st.integers(0, n - 1))],
                            np.ones(n, bool), rng.random((data.draw(st.integers(0, 50)), n)) < q])
        want = reference_scenario_costs(inst.D, a, b, served)
        assert np.array_equal(scenario_costs(_step_table(inst.D, a, b), np.ascontiguousarray(served.T)), want)
        # Monte Carlo in blocks of any size: the mean of the reference costs of
        # its whole draw, bit for bit
        samples, seed = data.draw(st.integers(1, 300)), data.draw(st.integers(0, 2**16))
        draw = reference_scenario_costs(inst.D, a, b, np.random.default_rng(seed).random((samples, n)) < q)
        cells = data.draw(st.sampled_from([1, 5 * n, 64 * n, evaluate.BATCH_CELLS]))
        with mock.patch.object(evaluate, "BATCH_CELLS", cells):
            mc = expected_cost_monte_carlo(order, inst, samples=samples, seed=seed)
        if np.ptp(draw) == 0.0:
            assert (mc.value, mc.stderr) == (draw[0], 0.0)
        else:
            assert (mc.value, mc.stderr) == (float(draw.mean()), float(draw.std(ddof=1) / np.sqrt(samples)))

    @settings(max_examples=80, deadline=None)
    @given(case=instance_and_order(), data=st.data())
    def test_doubling_matches_scenario_costs(self, case, data):
        inst, order = case
        n = inst.n
        kinds = data.draw(st.lists(st.sampled_from([0.0, 1.0, None]), min_size=n, max_size=n))
        p = np.array([q if k is None else k for k, q in zip(kinds, inst.p)])
        D = np.round(inst.D, 1) if data.draw(st.booleans()) else inst.D  # rounded: many equal steps
        inst = SimplifiedInstance(D=D, R=inst.R, p=p)
        a, b, q = _oriented_rows(inst, order.sequence, order.orient)
        step = _step_table(inst.D, a, b)
        probs, costs = _enumerated_scenarios(step, q)
        want = scenario_costs(step, scenario_matrix(n).T)
        # The same at most n nonnegative terms, summed in another order: each
        # sum is within (n - 1) * eps / 2 of the exact one, relative.
        assert costs[0] == want[0] == 0.0
        assert np.all(np.abs(costs - want) <= n * np.finfo(float).eps * want)
        # the probabilities are the products built up one position at a time, bit for bit
        ref = np.ones(1)
        for x in q:
            ref = np.concatenate([ref * (1.0 - x), ref * x])
        assert np.array_equal(probs, ref)
        values = set()
        for cells in (1, 50, 700, evaluate.BATCH_CELLS):
            with mock.patch.object(evaluate, "BATCH_CELLS", cells):
                values.add(expected_cost_enumeration(order, inst).value)
        assert len(values) == 1

    @settings(max_examples=100, deadline=None)
    @given(case=instance_and_order(), data=st.data())
    def test_enumeration_matches_closed_form(self, case, data):
        inst, order = case
        kinds = data.draw(st.lists(st.sampled_from(["zero", "one", "random"]), min_size=inst.n, max_size=inst.n))
        p = np.array([{"zero": 0.0, "one": 1.0}.get(k, q) for k, q in zip(kinds, inst.p)])
        inst = SimplifiedInstance(D=inst.D, R=inst.R, p=p)
        cf = expected_cost_closed_form(order, inst).value
        # A small chunk streams the scenarios over several calls, as at large n.
        with mock.patch.object(evaluate, "BATCH_CELLS", data.draw(st.sampled_from([5, 64, 1 << 14])) * inst.n):
            en = expected_cost_enumeration(order, inst).value
        assert abs(cf - en) <= 1e-9 * max(1.0, abs(cf))

    def test_independent_of_the_closed_form_kernel(self, monkeypatch):
        inst = gen_random_simplified(7, seed=13)
        order = random_order(7, 13)
        closed = expected_cost_closed_form(order, inst).value
        # Monte Carlo's samples, redrawn as it draws them
        positional = np.random.default_rng(5).random((3000, 7)) < inst.p[list(order.sequence)]
        by_edge = np.empty_like(positional)
        by_edge[:, list(order.sequence)] = positional
        walks = [walk_cost(inst.D, inst.R, order, row) for row in by_edge]

        def refuse(*args):
            raise AssertionError("weighted_tour_costs called")

        monkeypatch.setattr(evaluate, "weighted_tour_costs", refuse)
        monkeypatch.setattr(evaluate, "BATCH_CELLS", 50)  # several blocks in both evaluators
        en = expected_cost_enumeration(order, inst).value
        assert en == pytest.approx(closed, rel=1e-9)
        mc = expected_cost_monte_carlo(order, inst, samples=3000, seed=5)
        assert mc.value == pytest.approx(np.mean(walks), rel=1e-12)
        assert mc.stderr == pytest.approx(np.std(walks, ddof=1) / np.sqrt(3000), rel=1e-9)
        s = Scenario(tuple(bool(x) for x in by_edge[0]))
        assert aposteriori_cost(order, s, inst) == pytest.approx(walks[0], rel=1e-12)


class TestAposterioriCost:
    def test_empty_scenario(self):
        inst = two_edge_instance()
        order = AprioriOrder((0, 1), (0, 0))
        assert aposteriori_cost(order, Scenario((False, False)), inst) == 0.0

    def test_single_served_out_and_back(self):
        inst = two_edge_instance()
        order = AprioriOrder((0, 1), (0, 0))
        assert aposteriori_cost(order, Scenario((True, False)), inst) == 4.0  # 2*D[0,1]
        assert aposteriori_cost(order, Scenario((False, True)), inst) == 2.0  # 2*D[2,3]

    def test_two_served_direct_expansion(self):
        inst = two_edge_instance()
        order = AprioriOrder((0, 1), (0, 0))
        # D[0,1] + D[1,2] + D[2,3] + D[3,0]
        assert aposteriori_cost(order, Scenario((True, True)), inst) == 2.0 + 3.0 + 1.0 + 4.0

    def test_size_mismatch(self):
        inst = two_edge_instance()
        with pytest.raises(ValueError):
            aposteriori_cost(AprioriOrder((0, 1), (0, 0)), Scenario((True,)), inst)

    def test_rotation_invariance(self):
        inst = gen_random_simplified(6, seed=4)
        seq = (3, 0, 2, 5, 1, 4)
        orient = (1, 0, 0, 1, 1, 0)
        s = Scenario(tuple(bool(b) for b in np.random.default_rng(2).integers(0, 2, 6)))
        costs = {
            round(aposteriori_cost(AprioriOrder(seq[k:] + seq[:k], orient[k:] + orient[:k]), s, inst), 12)
            for k in range(6)
        }
        assert len(costs) == 1


class TestClosedForm:
    def test_hand_expansion_n2(self):
        # 4 scenarios by hand: 0.25*(2+2) + 0.25*(1+1) + 0.25*(2+3+1+4) = 4.0
        inst = two_edge_instance()
        order = AprioriOrder((0, 1), (0, 0))
        assert expected_cost_closed_form(order, inst).value == pytest.approx(4.0, rel=1e-12)

    def test_all_probabilities_one(self):
        inst = gen_random_simplified(5, seed=9)
        inst = SimplifiedInstance(D=inst.D, R=inst.R, p=np.ones(5))
        order = random_order(5, 1)
        full = aposteriori_cost(order, Scenario((True,) * 5), inst)
        assert expected_cost_closed_form(order, inst).value == pytest.approx(full, rel=1e-12)

    def test_all_probabilities_zero(self):
        inst = gen_random_simplified(4, seed=9)
        inst = SimplifiedInstance(D=inst.D, R=inst.R, p=np.zeros(4))
        assert expected_cost_closed_form(random_order(4, 2), inst).value == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration_oracle(self, seed):
        n = 3 + seed % 8
        inst = gen_random_simplified(n, seed=seed, metric=(seed % 2 == 0))
        order = random_order(n, seed + 100)
        cf = expected_cost_closed_form(order, inst).value
        en = expected_cost_enumeration(order, inst).value
        assert abs(cf - en) <= 1e-9 * max(1.0, abs(en))

    @pytest.mark.parametrize("n", [1, 3, 8, 30])
    def test_batch_rows_bit_equal_to_single_orders(self, n):
        inst = gen_random_simplified(n, seed=n, metric=(n % 2 == 0))
        orders = [random_order(n, 300 + k) for k in range(40)]
        seqs = np.array([o.sequence for o in orders])
        orients = np.array([o.orient for o in orders])
        batch = weighted_tour_costs(inst.D, *_oriented_rows(inst, seqs, orients))
        assert batch.tolist() == [expected_cost_closed_form(o, inst).value for o in orders]
        # (k, 1, n) sequences broadcast against all 2^n orientations (the
        # drawn ones where 2^n is too many) score each (sequence, orientation)
        # pair to the bits of its own row, the row-major pair rows that exact
        # search settles
        every = scenario_matrix(n) if n <= 8 else orients
        grid = weighted_tour_costs(inst.D, *_oriented_rows(inst, seqs[:, None], every))
        rows = _oriented_rows(inst, np.repeat(seqs, len(every), axis=0), np.tile(every, (len(seqs), 1)))
        assert grid.ravel().tolist() == weighted_tour_costs(inst.D, *rows).tolist()

    # The kernel's shapes: one order (1-D), the (k, n) pair rows that every
    # search settles, and (k, 1, n) sequences broadcast against (r, n)
    # orientations. A cap of 1 to rows * n * n cells splits the n - 1 shifts
    # into blocks of any size, from one shift to all of them, a short last
    # block included.
    @settings(max_examples=300, deadline=None)
    @given(case=instance_and_order(max_n=40), data=st.data())
    def test_bit_equal_to_one_shift_at_a_time(self, case, data):
        inst, order = case
        n = inst.n
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        p = rng.choice([0.0, 0.5, 1.0], n) if data.draw(st.booleans()) else inst.p
        inst = SimplifiedInstance(D=inst.D * 10.0 ** data.draw(st.sampled_from([-8, 0, 8])), R=inst.R, p=p)
        shape = data.draw(st.sampled_from(["order", "rows", "grid"]))
        if shape == "order":
            rows = _oriented_rows(inst, order.sequence, order.orient)
        elif shape == "rows":
            k = data.draw(st.integers(1, 20))
            rows = _oriented_rows(inst, [rng.permutation(n) for _ in range(k)], rng.integers(0, 2, (k, n)))
        else:
            k, r = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
            seqs = np.array([rng.permutation(n) for _ in range(k)])[:, None]
            rows = _oriented_rows(inst, seqs, np.broadcast_to(rng.integers(0, 2, (r, n)) == 1, (k, r, n)))
        want = reference_weighted_tour_costs(inst.D, *rows)
        with mock.patch.object(evaluate, "BATCH_CELLS", data.draw(st.integers(1, np.broadcast(*rows).size * n))):
            got = weighted_tour_costs(inst.D, *rows)
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_wide_row_peak_memory(self):
        # n = 1000 takes its 999 shifts in blocks of 131, every temporary of a
        # block at most BATCH_CELLS cells (1 MB); one block of all shifts would
        # hold 8 MB in each.
        n = 1000
        inst = gen_random_simplified(n, seed=0)
        rows = _oriented_rows(inst, np.arange(n), np.zeros(n, dtype=bool))
        tracemalloc.start()
        try:
            weighted_tour_costs(inst.D, *rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (8 * evaluate.BATCH_CELLS) + 512 * n

    def test_rotation_invariance_of_expectation(self):
        inst = gen_random_simplified(5, seed=11)
        seq = (4, 1, 3, 0, 2)
        orient = (0, 1, 1, 0, 1)
        vals = {
            round(expected_cost_closed_form(AprioriOrder(seq[k:] + seq[:k], orient[k:] + orient[:k]), inst).value, 11)
            for k in range(5)
        }
        assert len(vals) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_in_probabilities_on_metric_instances(self, seed):
        n = 5
        inst = gen_random_simplified(n, seed=seed, metric=True)
        order = random_order(n, seed)
        base = expected_cost_closed_form(order, inst).value
        for i in range(n):
            p2 = inst.p.copy()
            p2[i] = min(1.0, p2[i] + 0.3)
            raised = SimplifiedInstance(D=inst.D, R=inst.R, p=p2)
            assert expected_cost_closed_form(order, raised).value >= base - 1e-12


class TestEnumeration:
    def test_single_edge(self):
        D = np.array([[0.0, 3.0], [3.0, 0.0]])
        inst = SimplifiedInstance(D=D, R=[(0, 1)], p=[0.4])
        order = AprioriOrder((0,), (0,))
        assert expected_cost_enumeration(order, inst).value == pytest.approx(0.4 * 6.0)

    def test_deterministic_probabilities(self):
        inst = gen_random_simplified(5, seed=3)
        p = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        det = SimplifiedInstance(D=inst.D, R=inst.R, p=p)
        order = random_order(5, 3)
        s = Scenario(tuple(q == 1.0 for q in p))
        assert expected_cost_enumeration(order, det).value == pytest.approx(
            aposteriori_cost(order, s, det), rel=1e-12
        )

    def test_guard(self):
        inst = gen_random_simplified(4, seed=0)
        with pytest.raises(ValueError, match="guard"):
            expected_cost_enumeration(random_order(4, 0), inst, max_n=3)

    def test_independent_of_blas_threads(self):
        # a BLAS dot's summation order follows its thread count; the value must not
        code = ("from setp import evaluate, transforms; from setp.core import AprioriOrder; "
                "inst = transforms.gen_random_simplified(18, seed=0); "
                "print(repr(evaluate.expected_cost_enumeration(AprioriOrder(tuple(range(18)), (0,) * 18), inst).value))")
        values = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            values.append(res.stdout)
        assert values[0] == values[1]


@pytest.mark.parametrize("evaluator", [expected_cost_closed_form, expected_cost_enumeration])
def test_no_required_edges(evaluator):
    inst = SimplifiedInstance(np.zeros((0, 0)), [], [])
    with pytest.raises(ValueError, match="no required edges"):
        evaluator(AprioriOrder((), ()), inst)


class TestMonteCarlo:
    def test_degenerate_probabilities_exact(self):
        inst = gen_random_simplified(4, seed=5)
        ones = SimplifiedInstance(D=inst.D, R=inst.R, p=np.ones(4))
        zeros = SimplifiedInstance(D=inst.D, R=inst.R, p=np.zeros(4))
        order = random_order(4, 5)
        r1 = expected_cost_monte_carlo(order, ones, samples=100, seed=1)
        assert r1.stderr == 0.0
        assert r1.value == pytest.approx(aposteriori_cost(order, Scenario((True,) * 4), ones))
        r0 = expected_cost_monte_carlo(order, zeros, samples=100, seed=1)
        assert (r0.value, r0.stderr) == (0.0, 0.0)

    def test_single_sample_has_no_stderr(self):
        inst = gen_random_simplified(9, seed=6)
        order = random_order(9, 6)
        a, b, p = _oriented_rows(inst, order.sequence, order.orient)
        drawn = np.random.default_rng(3).random((1, 9)) < p
        mc = expected_cost_monte_carlo(order, inst, samples=1, seed=3)
        assert (mc.value, mc.stderr) == (reference_scenario_costs(inst.D, a, b, drawn)[0], 0.0)

    def test_seed_reproducible(self):
        inst = gen_random_simplified(6, seed=8)
        order = random_order(6, 8)
        a = expected_cost_monte_carlo(order, inst, samples=5000, seed=123)
        b = expected_cost_monte_carlo(order, inst, samples=5000, seed=123)
        assert (a.value, a.stderr) == (b.value, b.stderr)

    def test_close_to_enumeration(self):
        inst = gen_random_simplified(8, seed=2)
        order = random_order(8, 2)
        en = expected_cost_enumeration(order, inst).value
        mc = expected_cost_monte_carlo(order, inst, samples=100_000, seed=7)
        assert abs(mc.value - en) <= 4 * mc.stderr


class TestOriginalForm:
    def test_single_required_prob_one(self):
        inst = gen_random_original(4, 5, 1, seed=6)
        from setp.core import OriginalInstance

        inst = OriginalInstance(
            vertices=inst.vertices, edges=inst.edges, dist=inst.dist,
            depot=inst.depot, required=inst.required, prob=(1.0,),
        )
        g = Multigraph.from_instance(inst)
        tour = hierholzer(g, inst.depot)
        direct = expected_cost_original_direct(tour, inst).value
        composed = expected_cost_original(tour, inst).value
        assert abs(direct - composed) <= 10 * 1e-6 * max(inst.dist) + 1e-9

    @pytest.mark.parametrize("method", ["closed_form", "enumeration", "monte_carlo"])
    def test_methods_agree(self, method):
        inst = gen_random_original(4, 5, 2, seed=12)
        tour = hierholzer(Multigraph.from_instance(inst), inst.depot)
        simp, _ = simplify(inst)
        order = attach_depot_edge(induced_order(tour, inst), inst.n)
        ref = expected_cost_enumeration(order, simp).value
        got = {
            "closed_form": lambda: expected_cost_original(tour, inst),
            "enumeration": lambda: expected_cost_enumeration(order, simp),
            "monte_carlo": lambda: expected_cost_monte_carlo(order, simp, samples=200_000, seed=4),
        }[method]()
        if method == "monte_carlo":
            assert abs(got.value - ref) <= max(4 * got.stderr, 1e-9)
        else:
            assert abs(got.value - ref) <= 1e-9 * max(1.0, ref)

    def test_all_tours_match_direct_oracle(self):
        inst = gen_random_original(3, 4, 2, seed=21)
        if len(inst.edges) > 8:
            pytest.skip("instance larger than intended")
        eps = 1e-8
        slack = (inst.n + 1) * eps + 1e-9
        for tour in all_eulerian_tours(Multigraph.from_instance(inst), inst.depot):
            direct = expected_cost_original_direct(tour, inst).value
            composed = expected_cost_original(tour, inst, epsilon=eps).value
            assert abs(direct - composed) <= slack

    @pytest.mark.parametrize("evaluator", [expected_cost_original, expected_cost_original_direct])
    def test_invalid_tour_rejected(self, evaluator):
        inst = gen_random_original(4, 5, 2, seed=12)
        tour = hierholzer(Multigraph.from_instance(inst), inst.depot)
        short = type(tour)(tour.steps[:-1])
        with pytest.raises(ValueError) as raised:
            evaluator(short, inst)
        assert str(raised.value) == "invalid Eulerian tour: " + "; ".join(validate_tour(short, inst))

    def test_scorers_take_orders(self, monkeypatch):
        # The public evaluators derive a tour's induced order once; the
        # per-instance scorers score that order and never read a tour.
        inst = gen_random_original(4, 5, 2, seed=12)
        tour = hierholzer(Multigraph.from_instance(inst), inst.depot)
        order = induced_order(tour, inst)
        want = expected_cost_original(tour, inst).value, expected_cost_original_direct(tour, inst).value
        monkeypatch.setattr(evaluate, "induced_order", mock.Mock(side_effect=AssertionError("tour read again")))
        got = evaluate._composed_costs(inst)(order).value, evaluate._direct_costs(inst)(order).value
        assert got == want


# Batched evaluators and solvers, with the size of the instance each runs on.
BATCHED = {"enumeration": 14, "monte_carlo": 30, "brute_force": 5, "local_search": 12}


@pytest.mark.parametrize("cells", [1, 50, 700])
@pytest.mark.parametrize("method", sorted(BATCHED))
def test_no_kernel_call_exceeds_the_bound(monkeypatch, method, cells):
    n = BATCHED[method]
    inst = gen_random_simplified(n, seed=n)
    order = random_order(n, n)

    def run():
        if method == "enumeration":
            return expected_cost_enumeration(order, inst)
        if method == "monte_carlo":
            return expected_cost_monte_carlo(order, inst, samples=400, seed=2)
        res = solvers.brute_force(inst) if method == "brute_force" else solvers.local_search(inst, order)
        return res.order, res.cost, res.evaluations

    want = run()
    if method == "enumeration":
        # Enumeration calls no kernel, so its bound is on memory: the 2^n
        # probabilities and costs (8 bytes each) and first and last positions
        # (1 byte each), at most 32 bytes of temporaries per cell and a fixed
        # 16 KiB for the step table and small arrays.
        monkeypatch.setattr(evaluate, "BATCH_CELLS", cells)
        tracemalloc.start()
        try:
            got = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 18 * (1 << n) + 32 * cells + (16 << 10)
        return
    sizes = []

    def spy(kernel):
        def counted(D, a, b, rows):
            sizes.append(np.broadcast(a, b, rows).size)
            return kernel(D, a, b, rows)
        return counted

    orientation_costs = solvers._orientation_costs

    def spied_orientation_costs(hop, p, orients):
        score = orientation_costs(hop, p, orients)

        def counted(seqs):
            costs = score(seqs)
            sizes.append(costs.size * len(p))  # each cost stands for one n-position candidate row
            return costs
        return counted

    scenarios = evaluate.scenario_costs

    def spied_scenario_costs(step, served):
        sizes.append(served.size)
        return scenarios(step, served)

    weighted = spy(evaluate.weighted_tour_costs)
    monkeypatch.setattr(evaluate, "BATCH_CELLS", cells)
    monkeypatch.setattr(evaluate, "scenario_costs", spied_scenario_costs)
    monkeypatch.setattr(evaluate, "weighted_tour_costs", weighted)
    monkeypatch.setattr(solvers, "weighted_tour_costs", weighted)  # solvers' own reference
    monkeypatch.setattr(solvers, "_orientation_costs", spied_orientation_costs)  # brute force's per-block scorer
    assert run() == want
    # a unit is one row, or for brute force one sequence's 2^n orientation rows
    unit = n << n if method == "brute_force" else n
    assert len(sizes) > 1 and max(sizes) <= max(cells, unit)
