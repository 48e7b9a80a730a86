import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setp.core import AprioriOrder, SimplifiedInstance, canonicalize, validate_simplified
from setp.evaluate import expected_cost_closed_form
from setp import evaluate, solvers
from setp.solvers import brute_force, brute_force_tsp, local_search, nearest_neighbor
from setp.transforms import TspInstance, default_epsilon, gen_random_simplified, gen_random_tsp, tsp_to_setp


class TestBruteForce:
    def test_single_edge_formula(self):
        D = np.array([[0.0, 2.5], [2.5, 0.0]])
        inst = SimplifiedInstance(D=D, R=[(0, 1)], p=[0.3])
        res = brute_force(inst)
        assert res.cost.value == pytest.approx(0.3 * 2 * 2.5)
        assert res.order.sequence == (0,)

    def test_two_edges_orientation_classes(self):
        inst = gen_random_simplified(2, seed=0)
        res = brute_force(inst)
        # order is unique up to rotation; optimum over the 4 orientation combos
        candidates = [
            expected_cost_closed_form(AprioriOrder((0, 1), (a, b)), inst).value
            for a in (0, 1)
            for b in (0, 1)
        ]
        assert res.cost.value == pytest.approx(min(candidates), rel=1e-12)

    def test_guard(self):
        inst = gen_random_simplified(5, seed=0)
        with pytest.raises(ValueError, match="guard"):
            brute_force(inst, max_n=4)

    def test_no_required_edges(self):
        inst = SimplifiedInstance(D=np.zeros((2, 2)), R=(), p=())
        with pytest.raises(ValueError, match="at least one required edge"):
            brute_force(inst)

    def test_cost_matches_reevaluation(self):
        inst = gen_random_simplified(5, seed=7)
        res = brute_force(inst)
        assert res.cost.value == expected_cost_closed_form(res.order, inst).value

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_vertex_relabeling(self, seed):
        inst = gen_random_simplified(4, seed=seed)
        rng = np.random.default_rng(seed + 50)
        perm = rng.permutation(inst.size)
        D2 = inst.D[np.ix_(perm, perm)]
        inv = np.argsort(perm)
        R2 = tuple((int(inv[u]), int(inv[v])) for u, v in inst.R)
        relabeled = SimplifiedInstance(D=D2, R=R2, p=inst.p)
        assert validate_simplified(relabeled) == []
        a = brute_force(inst)
        b = brute_force(relabeled)
        assert a.cost.value == pytest.approx(b.cost.value, rel=1e-12)


class TestNearestNeighbor:
    def test_single_edge(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = SimplifiedInstance(D=D, R=[(0, 1)], p=[0.5])
        assert nearest_neighbor(inst) == AprioriOrder((0,), (0,))

    def test_valid_permutation(self):
        inst = gen_random_simplified(7, seed=13)
        order = nearest_neighbor(inst, start_edge=2)
        assert sorted(order.sequence) == list(range(7))
        assert all(o in (0, 1) for o in order.orient)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_loop_reference_with_ties(self, seed):
        # rounded distances force ties, which go to the smallest (D, edge, orientation)
        base = gen_random_simplified(9, seed=seed, metric=seed % 2 == 0)
        inst = SimplifiedInstance(D=np.round(base.D, 1), R=base.R, p=base.p)
        start = seed % 9
        seq, orient, head = [start], [0], inst.R[start][1]
        remaining = [i for i in range(9) if i != start]
        while remaining:
            _, i, o = min((inst.D[head, inst.R[i][o]], i, o) for i in remaining for o in (0, 1))
            remaining.remove(i)
            seq.append(i)
            orient.append(o)
            head = inst.R[i][1 - o]
        assert nearest_neighbor(inst, start_edge=start) == canonicalize(AprioriOrder(tuple(seq), tuple(orient)))

    def test_collinear_chain_is_optimal(self):
        # edges laid end to end on a line: 0-1 at [0,1], 2-3 at [2,3], 4-5 at [4,5]
        pts = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        D = np.abs(pts[:, None] - pts[None, :])
        inst = SimplifiedInstance(D=D, R=[(0, 1), (2, 3), (4, 5)], p=[1.0, 1.0, 1.0])
        greedy = nearest_neighbor(inst)
        exact = brute_force(inst)
        assert expected_cost_closed_form(greedy, inst).value == pytest.approx(
            exact.cost.value, rel=1e-12
        )


class TestLocalSearch:
    def test_returns_init_when_optimal(self):
        inst = gen_random_simplified(5, seed=17)
        opt = brute_force(inst)
        res = local_search(inst, opt.order)
        assert res.cost.value == pytest.approx(opt.cost.value, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_worse_than_init(self, seed):
        inst = gen_random_simplified(7, seed=seed)
        init = nearest_neighbor(inst)
        init_cost = expected_cost_closed_form(init, inst).value
        res = local_search(inst, init)
        assert res.cost.value <= init_cost + 1e-12

    def test_respects_budget(self):
        inst = gen_random_simplified(8, seed=3)
        res = local_search(inst, nearest_neighbor(inst), budget=10)
        assert res.evaluations <= 10

    def test_quality_against_brute_force(self):
        close = 0
        total = 40
        for seed in range(total):
            inst = gen_random_simplified(6, seed=1000 + seed)
            res = local_search(inst, nearest_neighbor(inst))
            opt = brute_force(inst)
            assert res.cost.value >= opt.cost.value - 1e-12
            if res.cost.value <= opt.cost.value * 1.25 + 1e-12:
                close += 1
        assert close >= 0.9 * total

    def test_stops_at_a_local_optimum_on_a_gadget(self):
        # The move back to an order of exactly equal cost must not read as an improvement.
        inst = gadget_or_rounded("gadget", 24, seed=1, metric=False)
        res = local_search(inst, nearest_neighbor(inst))
        assert res.stop == "local_optimum"
        assert res.sweeps <= 10
        assert res.cost.value == 1.9815237992599921


def gadget_or_rounded(kind, n, seed, metric):
    """A `tsp_to_setp` gadget over n random cities, or D rounded to tenths
    with p drawn from the values `kind`: instances with many exact ties."""
    if kind == "gadget":
        tsp = gen_random_tsp(n, seed=seed)
        return tsp_to_setp(tsp, default_epsilon(tsp.C))[0]
    base = gen_random_simplified(n, seed=seed, metric=metric)
    return SimplifiedInstance(D=np.round(base.D, 1), R=base.R, p=np.random.default_rng(seed).choice(kind, n))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["gadget", (0, 1), (0, 0.5, 1)]),
    n=st.integers(4, 16),
    seed=st.integers(0, 2**16),
    metric=st.booleans(),
)
@example(kind="gadget", n=12, seed=12, metric=False)
@example(kind=(0, 1), n=12, seed=29, metric=True)
def test_local_search_stops_at_a_local_optimum_on_ties(kind, n, seed, metric):
    inst = gadget_or_rounded(kind, n, seed, metric)
    res = local_search(inst, nearest_neighbor(inst), budget=300 * n**2)
    assert res.stop == "local_optimum"
    assert res.cost.value == expected_cost_closed_form(res.order, inst).value


def reference_local_search(inst, init, budget):
    """Descent that builds every neighbor as a canonical AprioriOrder and
    scores it with its own closed-form call, the value that becomes the cost
    of the neighbor it picks; `local_search` must match it exactly."""

    def neighbors(order):
        seq = list(order.sequence)
        orient = list(order.orient)
        n = len(seq)
        for i in range(n):
            o2 = orient.copy()
            o2[i] ^= 1
            yield AprioriOrder(tuple(seq), tuple(o2))
        for i in range(n - 1):
            for j in range(i + 1, n):
                if i == 0 and j == n - 1:
                    continue
                s2 = seq[:i] + seq[i : j + 1][::-1] + seq[j + 1 :]
                o2 = orient[:i] + [o ^ 1 for o in orient[i : j + 1][::-1]] + orient[j + 1 :]
                yield AprioriOrder(tuple(s2), tuple(o2))

    current = canonicalize(init)
    cost = expected_cost_closed_form(current, inst).value
    evaluations = 1
    sweeps = 0
    stop = "budget"
    improved = True
    while improved and evaluations < budget:
        improved = False
        complete = True
        best_nb = None
        best_cost = cost
        sweeps += 1
        for nb in map(canonicalize, neighbors(current)):
            if evaluations >= budget:
                complete = False
                break
            c = expected_cost_closed_form(nb, inst).value
            evaluations += 1
            if c < best_cost:
                best_cost = c
                best_nb = nb
        if best_nb is not None:
            current, cost = best_nb, best_cost
            improved = True
        elif complete:
            stop = "local_optimum"
    return current, cost, evaluations, sweeps, stop


def random_or_tied(n, seed, metric, kind):
    """`gen_random_simplified`, or for a `kind` the tie-heavy
    `gadget_or_rounded` instance, where the kernel must settle the screen's
    near moves (a gadget has at least 3 cities)."""
    if kind is None:
        return gen_random_simplified(n, seed=seed, metric=metric)
    return gadget_or_rounded(kind, max(n, 3) if kind == "gadget" else n, seed, metric)


def run_against_reference(n, seed, metric, budget, chunk_rows, kind=None):
    inst = random_or_tied(n, seed, metric, kind)
    n = inst.n
    rng = np.random.default_rng(seed)
    init = AprioriOrder(tuple(rng.permutation(n)), tuple(rng.integers(0, 2, size=n)))
    # A small row bound splits each sweep's tables over several blocks, as at large n.
    cells = evaluate.BATCH_CELLS if chunk_rows is None else chunk_rows * n
    with mock.patch.object(evaluate, "BATCH_CELLS", cells):
        res = local_search(inst, init, budget=budget)
    got = (res.order, res.cost.value, res.evaluations, res.sweeps, res.stop)
    assert got == reference_local_search(inst, init, budget)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    metric=st.booleans(),
    budget=st.integers(1, 4000),
    chunk_rows=st.one_of(st.none(), st.integers(1, 20)),
    kind=st.sampled_from([None, "gadget", (0, 1), (0, 0.5, 1)]),
)
def test_local_search_matches_per_neighbor_reference(n, seed, metric, budget, chunk_rows, kind):
    run_against_reference(n, seed, metric, budget, chunk_rows, kind)


# The same up to n=26, past the n=24 the benchmark solves, with few examples
# because the reference scores every neighbour alone.
@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(11, 26),
    seed=st.integers(0, 2**16),
    metric=st.booleans(),
    budget=st.integers(1, 6000),
    chunk_rows=st.one_of(st.none(), st.integers(1, 40)),
)
def test_local_search_matches_per_neighbor_reference_large(n, seed, metric, budget, chunk_rows):
    run_against_reference(n, seed, metric, budget, chunk_rows)


def kernel_calls(inst, init, budget=1_000_000):
    """`local_search`'s result and its number of `weighted_tour_costs` calls."""
    calls = []

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    kernel = evaluate.weighted_tour_costs
    with mock.patch.object(evaluate, "weighted_tour_costs", counted), \
            mock.patch.object(solvers, "weighted_tour_costs", counted):
        res = local_search(inst, init, budget=budget)
    return res, len(calls)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    metric=st.booleans(),
    budget=st.integers(1, 10**6),
    kind=st.sampled_from([None, "gadget", (0, 1), (0, 0.5, 1)]),
)
def test_local_search_calls_the_kernel_only_to_settle(n, seed, metric, budget, kind):
    # Each settle scores its near moves and, at most once, the current order;
    # the result scores the final order when no settle has.
    inst = random_or_tied(n, seed, metric, kind)
    res, calls = kernel_calls(inst, nearest_neighbor(inst), budget)
    assert res.settles <= res.sweeps
    assert calls <= 2 * res.settles + 1
    assert res.cost.value == expected_cost_closed_form(res.order, inst).value


def test_local_search_descends_at_n80_without_the_kernel():
    # Nearly every sweep's least delta is one near move beyond the bound, or,
    # in the last, above it; one kernel call per sweep would make 26 in all.
    inst = gen_random_simplified(80, seed=0)
    res, calls = kernel_calls(inst, nearest_neighbor(inst))
    assert (res.sweeps, res.stop) == (25, "local_optimum")
    assert calls <= 3


@st.composite
def screened_order(draw, sizes=st.integers(1, 40)):
    """An instance with symmetric D (metric or not, scaled by 1e-8 to 1e8),
    probabilities from {0, 1/2, 1} or uniform, and a random oriented order."""
    n = draw(sizes)
    seed = draw(st.integers(0, 2**16))
    inst = gen_random_simplified(n, seed=seed, metric=draw(st.booleans()))
    rng = np.random.default_rng(seed)
    D = inst.D * 10.0 ** draw(st.integers(-8, 8))
    p = rng.choice([0.0, 0.5, 1.0], size=n) if draw(st.booleans()) else rng.random(n)
    inst = SimplifiedInstance(D=D, R=inst.R, p=p)
    return inst, rng.permutation(n), rng.integers(0, 2, size=n)


@settings(max_examples=80, deadline=None)
@given(case=screened_order())
def test_reversal_deltas_match_kernel_within_bound(case):
    # every move (i, j), i <= j, the full reversal (0, n-1) included
    inst, seq, orient = case
    cost = evaluate.weighted_tour_costs(inst.D, *evaluate._oriented_rows(inst, seq, orient))[0]
    i, j = np.triu_indices(inst.n)
    estimate = cost + solvers._reversal_deltas(inst, seq, orient, i, j)
    want = evaluate.weighted_tour_costs(inst.D, *evaluate._oriented_rows(inst, *solvers._moved(seq, orient, i, j)))
    assert np.abs(estimate - want).max() <= solvers._rounding_bound(inst.n, inst.D)


# The same up to n=120, with few examples because the kernel scores each of
# the n(n+1)/2 moved orders.
@settings(max_examples=4, deadline=None)
@given(case=screened_order(st.integers(60, 120)))
def test_reversal_deltas_match_kernel_within_bound_large(case):
    inst, seq, orient = case
    cost = evaluate.weighted_tour_costs(inst.D, *evaluate._oriented_rows(inst, seq, orient))[0]
    i, j = np.triu_indices(inst.n)
    estimate = cost + solvers._reversal_deltas(inst, seq, orient, i, j)
    want = evaluate.weighted_tour_costs(inst.D, *evaluate._oriented_rows(inst, *solvers._moved(seq, orient, i, j)))
    assert np.abs(estimate - want).max() <= solvers._rounding_bound(inst.n, inst.D)


def reference_crossing_deltas(D, a, b, w):
    """`solvers._crossing_deltas` as it was with its triangles cut by
    np.triu and np.tril."""
    n = len(w)
    q = 1.0 - w
    y = np.arange(n)
    skip = np.triu(np.ones((n + 1, n + 1)))
    skip[:n, 1:] *= np.cumprod(np.where(y >= y[:, None], q, 1.0), axis=1)
    into = skip[1:, :n].T * w
    new = skip[1:, 1:].T * w
    old = skip[:n, :n] * w
    hop = D[b[:, None], np.concatenate([b, a])]
    before = into @ hop
    after = np.zeros((n, 2 * n))
    tail = after[-2::-1]
    np.multiply((w * skip[1:, n])[:0:-1, None], hop[:0:-1], out=tail)
    np.cumsum(tail, axis=0, out=tail)
    T = np.triu(before[:, :n]) @ new.T
    terms = before[:, n:]
    np.multiply(terms, old, out=terms)
    T -= np.cumsum(terms, axis=1, out=terms)
    suffix = after[:, n - 1 :: -1]
    np.multiply(new[:, ::-1], suffix, out=suffix)
    np.cumsum(suffix, axis=1, out=suffix)
    T += skip[0, :n, None] * (after[:, :n].T - old @ np.tril(after[:, n:]).T)
    return T


@pytest.mark.parametrize("n", [1, 2, 3, 24, 200])
@pytest.mark.parametrize("half", [False, True], ids=["uniform-p", "half-p"])
def test_crossing_deltas_bit_equal_to_triangle_reference(n, half):
    inst = gen_random_simplified(n, seed=n)
    rng = np.random.default_rng(n)
    a, b, w = evaluate._oriented_rows(inst, rng.permutation(n), rng.integers(0, 2, size=n))
    if half:
        w = rng.choice([0.0, 0.5, 1.0], size=n)
    want = reference_crossing_deltas(inst.D, a, b, w)
    assert np.array_equal(solvers._crossing_deltas(inst.D, a, b, w).view(np.int64), want.view(np.int64))


def test_reversal_deltas_hold_no_cubic_temporary():
    # The screen holds n x n matrices: at n=200 one (n, n, n) temporary alone
    # would take 64 MB, 50 times D's 1.28 MB.
    n = 200
    inst = gen_random_simplified(n, seed=0)
    rng = np.random.default_rng(0)
    seq, orient = rng.permutation(n), rng.integers(0, 2, size=n)
    i, j = np.triu_indices(n)
    solvers._reversal_deltas(inst, seq, orient, i, j)  # a first call's one-off allocations stay untraced
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        solvers._reversal_deltas(inst, seq, orient, i, j)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * inst.D.nbytes


def test_reversal_deltas_free_each_temporary_at_its_last_use():
    # 2.56x here; keeping the n x 2n products to the end of the call, and the
    # suffix sums in fresh arrays, read 4.0x
    n = 200
    inst = gen_random_simplified(n, seed=0)
    rng = np.random.default_rng(0)
    seq, orient = rng.permutation(n), rng.integers(0, 2, size=n)
    i, j = np.triu_indices(n)
    solvers._reversal_deltas(inst, seq, orient, i, j)  # a first call's one-off allocations stay untraced
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        solvers._reversal_deltas(inst, seq, orient, i, j)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * inst.D.nbytes


def test_local_search_rejects_asymmetric_distances():
    inst = gen_random_simplified(5, seed=3)
    D = inst.D.copy()
    D[0, 3] += 0.5
    asym = SimplifiedInstance(D=D, R=inst.R, p=inst.p)
    with pytest.raises(ValueError, match="symmetric"):
        local_search(asym, nearest_neighbor(asym))


def test_brute_force_rejects_asymmetric_distances():
    inst = gen_random_simplified(5, seed=3)
    D = inst.D.copy()
    D[0, 3] += 0.5
    with pytest.raises(ValueError, match="symmetric"):
        brute_force(SimplifiedInstance(D=D, R=inst.R, p=inst.p))


def test_searches_reject_a_nan_probability():
    # A NaN probability makes every screen NaN, so no candidate is settled.
    inst = gen_random_simplified(5, seed=3)
    p = inst.p.copy()
    p[2] = np.nan
    nan = SimplifiedInstance(D=inst.D, R=inst.R, p=p)
    with pytest.raises(ValueError, match="no candidate"):
        brute_force(nan)
    with pytest.raises(ValueError, match="no candidate"):
        local_search(nan, nearest_neighbor(nan))


def test_least_keeps_the_first_least_across_blocks(monkeypatch):
    # A stub kernel scores each pair by the p of its first edge, so each block
    # below is a hand-made list of costs, split into kernel calls of two pairs.
    inst = SimplifiedInstance(D=np.zeros((12, 12)), R=[(2 * e, 2 * e + 1) for e in range(6)],
                              p=[3.0, np.nan, 1.0, 1.0, np.inf, 2.0])
    monkeypatch.setattr(solvers, "weighted_tour_costs", lambda D, a, b, W: W[:, 0])
    monkeypatch.setattr(evaluate, "BATCH_CELLS", 2)

    def least(*blocks):
        pairs = [(np.array(b, dtype=int).reshape(-1, 1), np.arange(len(b)).reshape(-1, 1) % 2 == 1) for b in blocks]
        cost, seq, orient = solvers._least(inst, pairs)
        return repr(cost), seq.tolist(), orient.tolist()

    assert least([0, 3], [2]) == ("1.0", [3], [True])  # an equal value in a later block loses
    assert least([0, 0, 2, 3]) == ("1.0", [2], [False])  # and in a later call or row of one block
    assert least([1, 0], [4, 1]) == ("3.0", [0], [True])  # NaN and inf never win
    assert least([], [5]) == ("2.0", [5], [False])  # an empty block is skipped
    for blocks in [(), ([],), ([1, 4], [], [1])]:
        with pytest.raises(ValueError, match="no candidate"):
            least(*blocks)


@pytest.mark.parametrize("m", range(1, 11))
def test_permutation_rows_match_itertools(m):
    rows = solvers._permutation_rows(m)
    assert rows.dtype == np.int8
    assert rows.tolist() == [[0, *rest] for rest in itertools.permutations(range(1, m))]


def hop_table(inst):
    """hop[e, f, o, of]: D from the head of edge e in orientation o to the
    tail of edge f in orientation of, as brute force builds it."""
    ends = np.asarray(inst.R)
    return inst.D[ends[:, None, ::-1, None], ends[:, None, :]]


def near_screen(inst, hop, orients):
    """The screen's near rows, sorted, and its near (sequence, orient) pairs,
    sorted, from one screen of all rows at once: the representatives with an
    orientation within the window of the least screen of all, and their
    mirrors; then the orientations x of each of these rows whose own screen is
    within the window, as position orientations x[s_i]."""
    n = inst.n
    reps = solvers._permutation_rows(n)
    reps = reps[reps[:, 1] < reps[:, -1]] if n >= 3 else reps
    score = solvers._orientation_costs(hop, inst.p, orients)
    least = score(reps).min(axis=1)
    window = least.min() + 3.0 * solvers._rounding_bound(n, hop)
    near = reps[least <= window].tolist()
    rows = sorted({tuple(s) for s in near} | {(0, *s[:0:-1]) for s in near})
    costs = score(np.array(rows, dtype=np.int8).reshape(-1, n))
    pairs = sorted(
        (seq, tuple(int(orients[x, e]) for e in seq))
        for seq, c in zip(rows, costs)
        for x in np.flatnonzero(c <= window)
    )
    return rows, pairs


def settled_pairs(inst, a):
    """(sequence, orient) of each kernel row, read from its tail vertices a."""
    ends = np.asarray(inst.R)
    edge, orient = np.zeros(len(inst.D), dtype=int), np.zeros(len(inst.D), dtype=int)
    edge[ends] = np.arange(inst.n)[:, None]
    orient[ends[:, 1]] = 1
    a = a.reshape(-1, inst.n)
    return list(zip(map(tuple, edge[a].tolist()), map(tuple, orient[a].tolist())))


@pytest.mark.parametrize("n", range(1, 8))
def test_brute_force_screens_one_sequence_of_each_mirror_pair(monkeypatch, n):
    # The first pass screens (0, s_1, ..., s_(n-1)) with s_1 < s_(n-1) only,
    # each once; the second screens only the near rows, sorted. `evaluations`
    # still counts every candidate.
    inst = gen_random_simplified(n, seed=n)
    rows, _ = near_screen(inst, hop_table(inst), evaluate.scenario_matrix(n)[:, ::-1])
    screened = []
    orientation_costs = solvers._orientation_costs

    def spied(hop, p, orients):
        score = orientation_costs(hop, p, orients)

        def counted(seqs):
            screened.extend(map(tuple, seqs.tolist()))
            return score(seqs)
        return counted

    monkeypatch.setattr(solvers, "_orientation_costs", spied)
    res = brute_force(inst)
    seqs = [(0, *rest) for rest in itertools.permutations(range(1, n))]
    reps = seqs if n <= 2 else [s for s in seqs if s[1] < s[-1]]
    assert screened == reps + rows
    assert len(reps) == (1 if n <= 2 else math.factorial(n - 1) // 2)
    assert res.order.sequence in rows
    assert res.evaluations == math.factorial(n - 1) * 2**n


def one_served_edge(inst):
    """`inst` with p zero except on one edge: every hop weight is 0, so every
    candidate costs exactly p_e*(D[u, v] + D[v, u]), while the hops of a random
    D still depend on the orientations."""
    p = np.zeros(inst.n)
    p[inst.n // 2] = 0.75
    return SimplifiedInstance(D=inst.D, R=inst.R, p=p)


@pytest.mark.parametrize("seq_rows", [None, 8])
@pytest.mark.parametrize("seed, apart", [(seed, True) for seed in range(10)] + [(0, False), (0, "one served")])
def test_brute_force_settles_near_the_least_screen_of_all(monkeypatch, seed, apart, seq_rows):
    # The kernel re-scores the (sequence, orient) pairs whose own screen comes
    # within the window of the least screen over all representatives, for the
    # near rows and their mirrors, in one sorted pass, however the screen is
    # split into blocks. With every distance 0 (apart False) every candidate
    # costs exactly 0.0, and all sequences are re-scored, each in orientation 0
    # only: no hop depends on the orientations. With one edge served every
    # candidate ties too, and every pair is re-scored.
    n = 7
    inst = gen_random_simplified(n, seed=seed, metric=seed % 2 == 0)
    if apart is False:
        inst = SimplifiedInstance(D=np.zeros_like(inst.D), R=inst.R, p=inst.p)
    elif apart == "one served":
        inst = one_served_edge(inst)
    hop, orients = hop_table(inst), evaluate.scenario_matrix(n)[:, ::-1]
    if apart is False:
        hop, orients = hop[:, :, :1, :1], orients[:1]
    rows, pairs = near_screen(inst, hop, orients)
    settled = []
    kernel = solvers.weighted_tour_costs

    def spied(D, a, b, W):
        settled.extend(settled_pairs(inst, a))
        return kernel(D, a, b, W)

    monkeypatch.setattr(solvers, "weighted_tour_costs", spied)
    if seq_rows is not None:
        monkeypatch.setattr(evaluate, "BATCH_CELLS", seq_rows * (n << n))
    res = brute_force(inst)
    assert settled == pairs
    assert (res.order.sequence, res.order.orient) in pairs
    assert apart is True or len(rows) == math.factorial(n - 1)
    assert apart is not False or len(pairs) == len(rows)
    assert apart != "one served" or len(pairs) == math.factorial(n - 1) << n
    assert res.evaluations == math.factorial(n - 1) * 2**n


@pytest.mark.parametrize("ties", ["no distance", "one served"])
def test_brute_force_settles_in_memory_bounded_by_the_batch(monkeypatch, ties):
    # With every distance 0, or with one edge served, every candidate ties and
    # all of them are settled, so the first one wins. Settling keeps only a
    # running least, so the traced peak stays below the cost array of the
    # representatives alone, (n-1)!/2 x 2^n floats.
    n = 7
    inst = gen_random_simplified(n, seed=0)
    if ties == "no distance":
        inst = SimplifiedInstance(D=np.zeros_like(inst.D), R=inst.R, p=inst.p)
    else:
        inst = one_served_edge(inst)
    monkeypatch.setattr(evaluate, "BATCH_CELLS", n << n)
    brute_force(gen_random_simplified(3, seed=0))  # a first call's one-off allocations stay untraced
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        res = brute_force(inst)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    u, v = inst.R[n // 2]
    assert res.cost.value == (0.0 if ties == "no distance" else 0.75 * inst.D[u, v] * 2)
    assert res.order == AprioriOrder(tuple(range(n)), (0,) * n)
    assert peak < math.factorial(n - 1) // 2 * 2**n * 8


def reference_brute_force(inst):
    """(cost, sequence, orient) of the best candidate: every order with edge 0
    first, scored alone by the closed form; among exact-cost minima the
    lexicographically smallest (sequence, orient) wins."""
    n = inst.n
    return min(
        (expected_cost_closed_form(AprioriOrder(seq, orient), inst).value, seq, orient)
        for seq in ((0,) + rest for rest in itertools.permutations(range(1, n)))
        for orient in itertools.product((0, 1), repeat=n)
    )


def near_tie_instance(seed, n=4, kind="random", probs="tenths"):
    """Random or metric D, or an all-equal TSP gadget, with p rounded to
    tenths, drawn from {0, 1/2, 1} or uniform: ties in exact arithmetic whose
    screened hop sums differ in their last bits, so that only the screen's
    rounding window keeps all of them."""
    rng = np.random.default_rng(seed)
    if kind == "gadget":
        C = 1 - np.eye(n)
        inst = tsp_to_setp(TspInstance(C), default_epsilon(C))[0]
    else:
        inst = gen_random_simplified(n, seed=seed, metric=kind == "metric")
    if probs == "tenths":
        p = np.round(rng.random(n), 1)
    elif probs == "halves":
        p = rng.choice([0.0, 0.5, 1.0], n)
    else:
        p = rng.random(n)
    return SimplifiedInstance(D=inst.D, R=inst.R, p=p)


@st.composite
def tie_heavy_instance(draw):
    """Instances with many exact-cost ties: TSP gadgets (orientation never
    matters), distances from one or two levels, probabilities 0, 1/2 or 1;
    or near ties (`near_tie_instance`)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["random", "metric", "gadget"]))
        probs = draw(st.sampled_from(["uniform"] if kind == "gadget" else ["tenths", "halves"]))
        return near_tie_instance(int(rng.integers(2**16)), draw(st.integers(3, 5)), kind, probs)
    if draw(st.booleans()):
        m = draw(st.integers(3, 5))
        C = rng.choice(draw(st.sampled_from([(1.0,), (1.0, 2.0)])), size=(m, m))
        C = np.triu(C, 1) + np.triu(C, 1).T
        tsp = TspInstance(C) if draw(st.booleans()) else gen_random_tsp(m, seed=int(rng.integers(2**16)))
        return tsp_to_setp(tsp, 0.25)[0]
    n = draw(st.integers(1, 5))
    D = rng.choice(draw(st.sampled_from([(1.0,), (1.0, 2.0), (0.5, 1.0, 1.5)])), size=(2 * n, 2 * n))
    D = np.triu(D, 1) + np.triu(D, 1).T
    p = rng.choice(draw(st.sampled_from([(0.0,), (1.0,), (0.0, 0.5, 1.0)])), size=n)
    return SimplifiedInstance(D=D, R=tuple((2 * i, 2 * i + 1) for i in range(n)), p=p)


@settings(max_examples=60, deadline=None)
@given(inst=tie_heavy_instance(), chunk_rows=st.one_of(st.none(), st.integers(1, 40)))
@example(inst=near_tie_instance(25), chunk_rows=None)  # a window of 0 over the screen picks another order
@example(inst=near_tie_instance(23, kind="metric", probs="halves"), chunk_rows=None)
@example(inst=near_tie_instance(6, kind="gadget", probs="uniform"), chunk_rows=None)
def test_brute_force_tie_break_matches_reference(inst, chunk_rows):
    # A small row bound spreads the candidates over many kernel calls, so ties
    # across chunks are decided too.
    cells = evaluate.BATCH_CELLS if chunk_rows is None else chunk_rows * inst.n
    with mock.patch.object(evaluate, "BATCH_CELLS", cells):
        res = brute_force(inst)
    cost, seq, orient = reference_brute_force(inst)
    assert (res.cost.value, res.order.sequence, res.order.orient) == (cost, seq, orient)
    assert res.evaluations == math.factorial(inst.n - 1) * 2**inst.n


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 5), seed=st.integers(0, 2**16), metric=st.booleans())
def test_brute_force_matches_reference_on_mirror_pairs(n, seed, metric):
    # With D symmetric, a reversed cycle with flipped orientations costs the
    # same up to rounding, so near-ties come in pairs that only the kernel's
    # exact values and the key order may decide.
    inst = gen_random_simplified(n, seed=seed, metric=metric)
    res = brute_force(inst)
    assert (res.cost.value, res.order.sequence, res.order.orient) == reference_brute_force(inst)


def tie_heavy(kind, n, seed):
    """Random D with p drawn from {0, 1/2, 1}, or with one served edge, or
    distances from three levels with p from {0, 1/2, 1}: many candidates tie
    in exact arithmetic, and every orientation of a zero-p edge is free."""
    inst = gen_random_simplified(n, seed=seed)
    rng = np.random.default_rng(seed)
    if kind == "one served":
        return one_served_edge(inst)
    D = inst.D
    if kind == "level":
        D = rng.choice([0.5, 1.0, 1.5], size=D.shape)
        D = np.triu(D, 1) + np.triu(D, 1).T
    return SimplifiedInstance(D=D, R=inst.R, p=rng.choice([0.0, 0.5, 1.0], n))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["halves", "one served", "level"])
def test_brute_force_matches_reference_on_tie_heavy_instances(kind, n, seed):
    inst = tie_heavy(kind, n, seed)
    res = brute_force(inst)
    assert (res.cost.value, res.order.sequence, res.order.orient) == reference_brute_force(inst)


def test_tie_heavy_search_settles_only_the_near_pairs(monkeypatch):
    # p = (1, 1/2, 1/2, 0, 0, 0, 0): the near rows are many, but of each only
    # the orientations within the window reach the kernel.
    n = 7
    inst = tie_heavy("halves", n, 0)
    rows, pairs = near_screen(inst, hop_table(inst), evaluate.scenario_matrix(n)[:, ::-1])
    settled = []
    kernel = solvers.weighted_tour_costs

    def spied(D, a, b, W):
        settled.extend(settled_pairs(inst, a))
        return kernel(D, a, b, W)

    monkeypatch.setattr(solvers, "weighted_tour_costs", spied)
    res = brute_force(inst)
    assert settled == pairs
    assert (res.order.sequence, res.order.orient) in pairs
    assert len(settled) < len(rows) << n <= math.factorial(n - 1) << n


def refuse_the_screen(monkeypatch):
    def refused(*args):
        raise AssertionError("screen built")

    monkeypatch.setattr(solvers, "_orientation_costs", refused)
    monkeypatch.setattr(solvers, "_permutation_rows", refused)


@pytest.mark.parametrize("n", range(1, 9))
def test_brute_force_takes_the_identity_when_nothing_is_served(monkeypatch, n):
    # Every kernel value is exactly 0.0, so the first candidate wins: only its
    # pair, the identity sequence in orientation 0, is settled, and no
    # sequence is listed or screened. `evaluations` still counts every
    # candidate.
    inst = gen_random_simplified(n, seed=n, metric=n % 2 == 0)
    settled = []
    kernel = solvers.weighted_tour_costs

    def spied(D, a, b, W):
        settled.extend(settled_pairs(inst, a))
        return kernel(D, a, b, W)

    monkeypatch.setattr(solvers, "weighted_tour_costs", spied)
    refuse_the_screen(monkeypatch)
    res = brute_force(SimplifiedInstance(D=inst.D, R=inst.R, p=np.zeros(n)))
    assert (res.order, repr(res.cost.value)) == (AprioriOrder(tuple(range(n)), (0,) * n), "0.0")
    assert settled == [(tuple(range(n)), (0,) * n)]
    assert res.evaluations == math.factorial(n - 1) * 2**n


@pytest.mark.parametrize("kind", ["gadget", "gadget of random p", "random D"])
def test_orientation_free_instances_settle_one_orientation(monkeypatch, kind):
    # No gadget hop depends on the orientations, so neither does any kernel
    # value: each settled row is scored in orientation 0 only, by either
    # producer. Random D with every p = 1 still settles all 2^n.
    n = 6
    inst = tsp_to_setp(gen_random_tsp(n, seed=3), 0.01)[0] if "gadget" in kind else gen_random_simplified(n, seed=3)
    p = np.random.default_rng(3).random(n) if kind == "gadget of random p" else np.ones(n)
    inst = SimplifiedInstance(D=inst.D, R=inst.R, p=p)
    settled = []
    kernel = solvers.weighted_tour_costs

    def spied(D, a, b, W):
        settled.extend(settled_pairs(inst, a))
        return kernel(D, a, b, W)

    monkeypatch.setattr(solvers, "weighted_tour_costs", spied)
    res = brute_force(inst)
    orients = {orient for _, orient in settled}
    assert orients == ({(0,) * n} if "gadget" in kind else set(itertools.product((0, 1), repeat=n)))
    assert len(settled) == len({seq for seq, _ in settled}) * len(orients)
    cost, seq, orient = reference_brute_force(inst)
    assert (res.cost.value, res.order.sequence, res.order.orient) == (cost, seq, orient)


@pytest.mark.parametrize("gadget", [False, True])
def test_every_p_one_builds_no_screen(monkeypatch, gadget):
    # Every p = 1 takes the Held-Karp rows: the (n-1)! sequences are neither
    # listed nor screened.
    refuse_the_screen(monkeypatch)
    inst = tsp_to_setp(gen_random_tsp(8, seed=1), 0.01)[0] if gadget else gen_random_simplified(8, seed=1)
    res = brute_force(SimplifiedInstance(D=inst.D, R=inst.R, p=np.ones(8)))
    assert res.evaluations == math.factorial(7) * 2**8


@st.composite
def served_everywhere(draw):
    """Instances with n = 3..8 and every p = 1: TSP gadgets of raw, rounded,
    integer or all-equal costs, or random symmetric D, metric or not. All-equal
    gadgets stop at n = 7: at n = 8 all 5040 sequences tie, and settling them
    takes about a second for each producer."""
    n = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["raw", "rounded", "integer", "random"] + ["equal"] * (n <= 7)))
    if kind == "random":
        inst = gen_random_simplified(n, seed=seed, metric=draw(st.booleans()))
        return SimplifiedInstance(D=inst.D, R=inst.R, p=np.ones(n))
    C = gen_random_tsp(n, seed=seed).C
    C = {"raw": C, "rounded": np.round(C, 1), "integer": np.round(9 * C) + 1 - np.eye(n), "equal": 1 - np.eye(n)}[kind]
    return tsp_to_setp(TspInstance(C), default_epsilon(C))[0]


@settings(max_examples=40, deadline=None)
@given(inst=served_everywhere())
def test_held_karp_rows_settle_as_the_screen(inst):
    # The Held-Karp rows, each paired with every orientation, and the screen's
    # near pairs settle to the same (sequence, orient, cost), which is the
    # reference's for n <= 6.
    n = inst.n
    orients = evaluate.scenario_matrix(n)[:, ::-1]
    hop = hop_table(inst)  # both orientations, even where neither matters
    rows = solvers._held_karp_rows(hop)
    every = [(np.repeat(rows, len(orients), axis=0), np.tile(orients, (len(rows), 1)))]
    got = [solvers._least(inst, every), solvers._least(inst, solvers._screened_pairs(inst, hop, orients))]
    got = [(repr(cost), tuple(seq.tolist()), tuple(orient.tolist())) for cost, seq, orient in got]
    assert got[0] == got[1]
    if n <= 6:
        cost, seq, orient = reference_brute_force(inst)
        assert got[0] == (repr(cost), seq, orient)


def reference_orientation_costs(hop, p, orients):
    """`solvers._orientation_costs` as it was with its skip products from
    np.cumprod along the shift axis."""
    n = len(p)
    x = np.asarray(orients, dtype=int).T
    e = np.arange(n)
    M = hop[e[:, None, None], e[:, None], x[:, None], x].reshape(n * n, -1)
    shift = (e + e[:, None]) % n

    def score(seqs):
        S = seqs[:, shift]
        W = p[S]
        run = np.concatenate([np.ones_like(W[:, :1]), np.cumprod(1.0 - W[:, 1:-1], axis=1)], axis=1)
        H = np.zeros((len(seqs), n, n))
        H[np.arange(len(seqs))[:, None, None], S[:, :1], S[:, 1:]] = W[:, :1] * W[:, 1:] * run
        return H.reshape(len(seqs), n * n) @ M

    return score


@st.composite
def scorer_instance(draw):
    """Random D, symmetric or not (library use), scaled by 1e-8 to 1e8, with
    probabilities that include 0 and 1 and a random matching R."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    D = rng.random((2 * n, 2 * n)) * 10.0 ** draw(st.integers(-8, 8))
    if draw(st.booleans()):
        D = D + D.T
    np.fill_diagonal(D, 0.0)
    p = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=n, max_size=n))
    R = tuple((int(u), int(v)) for u, v in rng.permutation(2 * n).reshape(n, 2))
    return SimplifiedInstance(D=D, R=R, p=p)


@settings(max_examples=80, deadline=None)
@given(inst=scorer_instance())
def test_orientation_scorer_matches_kernel_within_bound(inst):
    # every sequence, not only those with edge 0 first, against every orientation;
    # column x holds edge orientations, so position i of seq takes bit x[seq[i]].
    # The scorer gives hop sums only: the service and wrap terms of each
    # orientation, which no sequence changes, are added here.
    n = inst.n
    seqs = np.array(list(itertools.permutations(range(n))))
    orients = evaluate.scenario_matrix(n)[:, ::-1]
    x = orients.astype(int)
    ends, p = np.asarray(inst.R), inst.p
    tail, head = ends[np.arange(n), x], ends[np.arange(n), 1 - x]  # [x, e]: edge e in orientation x_e
    alone = np.array([np.prod(np.delete(1.0 - p, e)) for e in range(n)])  # no other edge served
    service = (p * inst.D[tail, head] + p * alone * inst.D[head, tail]).sum(axis=1)
    got = solvers._orientation_costs(hop_table(inst), p, orients)(seqs) + service
    at_positions = orients[:, seqs].transpose(1, 0, 2)  # [k, x, i] = orients[x, seqs[k, i]]
    want = evaluate.weighted_tour_costs(inst.D, *evaluate._oriented_rows(inst, seqs[:, None], at_positions))
    assert got.shape == want.shape == (len(seqs), 2**n)
    assert np.abs(got - want).max() <= solvers._rounding_bound(n, inst.D)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9])
@pytest.mark.parametrize("half", [False, True], ids=["uniform-p", "half-p"])
def test_orientation_scorer_bit_equal_to_cumprod_reference(n, half):
    inst = gen_random_simplified(n, seed=n, metric=half)
    if half:
        inst = SimplifiedInstance(D=inst.D, R=inst.R, p=np.random.default_rng(n).choice([0.0, 0.5, 1.0], size=n))
    orients = evaluate.scenario_matrix(n)[:, ::-1]
    seqs = solvers._permutation_rows(n)[:720]
    got = solvers._orientation_costs(hop_table(inst), inst.p, orients)(seqs)
    want = reference_orientation_costs(hop_table(inst), inst.p, orients)(seqs)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBruteForceTsp:
    def test_unit_triangle(self):
        C = np.ones((3, 3)) - np.eye(3)
        tour, cost = brute_force_tsp(C)
        assert cost == pytest.approx(3.0)
        assert tour[0] == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_itertools_reference_with_ties(self, seed):
        # rounded costs force ties, which go to the lexicographically smallest
        # tour; seeds 20-23 reach m = 8 and 9, and seeds 24-29 are all-equal
        # costs at m = 3..8, where every tour ties
        if seed < 20:
            m = 3 + seed % 5
        elif seed < 24:
            m = 8 + seed % 2
        else:
            m = seed - 21
        C = np.round(gen_random_tsp(m, seed=seed).C, 1 if seed % 2 else 2) if seed < 24 else 1 - np.eye(m)
        best = None
        for rest in itertools.permutations(range(1, m)):
            tour = (0,) + rest
            cost = sum(C[tour[i], tour[(i + 1) % m]] for i in range(m))
            if best is None or cost < best[1]:
                best = (tour, cost)
        tour, cost = brute_force_tsp(C)
        assert (tour, repr(cost)) == (best[0], repr(float(best[1])))

    @pytest.mark.parametrize(
        "C, match",
        [
            (np.zeros((1, 1)), "3 to 10 cities, got 1"),
            (1 - np.eye(2), "3 to 10 cities, got 2"),
            (1 - np.eye(11), "3 to 10 cities, got 11"),
            (np.triu(1 - np.eye(4)), "not symmetric"),
            (np.where(np.eye(4) == 1, 0.0, np.nan), "non-finite"),
            (np.ones(4), "not square"),
        ],
    )
    def test_rejects_what_the_search_cannot_certify(self, C, match):
        with pytest.raises(ValueError, match=match):
            brute_force_tsp(C)

    def test_shares_no_search_with_brute_force(self, monkeypatch):
        # The reduction suite checks brute_force's gadget optimum against this
        # solver, so it must not run brute_force's Held-Karp search.
        def refused(hop):
            raise AssertionError("Held-Karp search run")

        monkeypatch.setattr(solvers, "_held_karp_rows", refused)
        assert brute_force_tsp(1 - np.eye(10)) == (tuple(range(10)), 10.0)

    def test_all_equal_cities_in_bounded_memory(self):
        # All 9! tours tie. The int8 tour table and the float sums over it keep
        # the traced peak under 24 MB.
        brute_force_tsp(1 - np.eye(3))  # a first call's one-off allocations stay untraced
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = brute_force_tsp(1 - np.eye(10))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res == (tuple(range(10)), 10.0)
        assert peak < 24e6

    def test_square(self):
        # 4 points on a unit square: optimum is the perimeter, length 4
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        C = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        tour, cost = brute_force_tsp(C)
        assert cost == pytest.approx(4.0)
