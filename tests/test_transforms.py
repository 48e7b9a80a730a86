import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setp import graph, serialize
from setp.core import (
    AprioriOrder,
    OriginalInstance,
    validate_original,
    validate_simplified,
    validate_tsp,
)
from setp.graph import Multigraph, is_eulerian
from setp.solvers import brute_force, brute_force_tsp
from setp.transforms import (
    TspInstance,
    canonical_city_tour,
    default_epsilon,
    embed_depot,
    gen_random_eulerian,
    gen_random_original,
    gen_random_simplified,
    gen_random_tsp,
    inject_tsp_tour,
    lift_to_tsp_tour,
    simplify,
    tsp_to_setp,
)
from setp.transforms import _nearest_left, _split


class TestEmbedDepot:
    def test_k3(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2)])
        g2, dist2, v0 = embed_depot(g, [1.0, 1.0, 1.0], 0)
        assert len(g2.vertices) == 4
        assert len(g2.edges) == 5
        assert g2.degree(v0) == 2
        assert dist2[3] == dist2[4] == 0.0
        assert is_eulerian(g2)

    def test_double_embedding_nests(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2)])
        g2, d2, v0 = embed_depot(g, [1.0, 1.0, 1.0], 0)
        g3, d3, v1 = embed_depot(g2, d2, v0)
        assert len(g3.vertices) == 5
        assert len(g3.edges) == 7
        assert is_eulerian(g3)

    def test_missing_depot(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            embed_depot(g, [1.0, 1.0, 1.0], 7)


class TestSimplify:
    def doubled_triangle(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2), (0, 1), (1, 2), (0, 2)])
        dist = (1.0, 2.0, 3.0, 1.0, 2.0, 3.0)
        g, dist, v0 = embed_depot(g, dist, 2)
        return OriginalInstance(
            vertices=g.vertices, edges=g.edges, dist=dist, depot=v0,
            required=(0,), prob=(0.5,),
        )

    def test_counts(self):
        inst = self.doubled_triangle()
        simp, vmap = simplify(inst, epsilon=1e-6)
        assert simp.n == 2  # one required edge + depot edge
        assert simp.size == 4
        assert validate_simplified(simp) == []
        assert simp.p[-1] == 1.0
        assert simp.D[2, 3] == 1e-6
        assert vmap[0] == 0 and vmap[1] == 1
        assert vmap[2] == vmap[3] == inst.depot

    def test_requires_positive_epsilon(self):
        for epsilon in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                simplify(self.doubled_triangle(), epsilon=epsilon)

    @staticmethod
    def shared_endpoints(seed):
        """A random original whose required edges share endpoints with each
        other and, with the depot moved onto one of them, with the depot."""
        inst = gen_random_original(6, 10, 8, seed=seed)
        ends = [v for eid in inst.required for v in inst.edges[eid]]
        depot = ends[seed % len(ends)]
        assert len(set(ends)) < len(ends)
        return OriginalInstance(inst.vertices, inst.edges, inst.dist, depot, inst.required, inst.prob)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_split_of_full_closure(self, seed):
        inst = self.shared_endpoints(seed)
        assert validate_original(inst) == []
        g = Multigraph.from_instance(inst)
        origin = [v for eid in inst.required for v in inst.edges[eid]] + [inst.depot, inst.depot]
        lengths = [inst.dist[eid] for eid in inst.required] + [default_epsilon(inst.dist)]
        p = list(inst.prob) + [1.0]
        full = graph.all_pairs_shortest_paths(g, inst.dist)
        expect, expect_map = _split(full, [g.index(v) for v in origin], origin, lengths, p)
        simp, vmap = simplify(inst)
        assert serialize.dumps(simp) == serialize.dumps(expect)
        assert vmap == expect_map

    def test_dijkstra_runs_only_from_copied_vertices(self, monkeypatch):
        inst = gen_random_original(40, 120, 10, seed=3)
        asked, closure = [], graph.metric_closure

        def recording_closure(W, sources=None):
            asked.append(sources)
            return closure(W, sources)

        monkeypatch.setattr(graph, "metric_closure", recording_closure)
        simplify(inst)
        (sources,) = asked
        assert sources is not None
        assert len(set(sources)) <= 2 * inst.n + 1 < len(inst.vertices)

    @pytest.mark.parametrize("seed", range(5))
    def test_connection_entries_satisfy_triangle_inequality(self, seed):
        # metric closure property; the matched pairs keep their own edge
        # length so service cost is preserved, all other entries are
        # shortest-path distances
        inst = gen_random_original(4, 6, 2, seed=seed)
        simp, _ = simplify(inst, epsilon=1e-9)
        matched = {tuple(e) for e in simp.R} | {tuple(e[::-1]) for e in simp.R}
        k = simp.size
        for i in range(k):
            for j in range(k):
                if (i, j) in matched:
                    continue
                for h in range(k):
                    assert simp.D[i, j] <= simp.D[i, h] + simp.D[h, j] + 1e-12

    @pytest.mark.parametrize(
        "v, e, n_required, seed",
        [pytest.param(5, 8, 2, seed, id=str(seed)) for seed in range(5)]
        + [pytest.param(v, 3 * v, 10, seed, id="v%d-%d" % (v, seed)) for v in (40, 300) for seed in range(20)],
    )
    def test_validates_generator_output(self, v, e, n_required, seed):
        inst = gen_random_original(v, e, n_required, seed=seed)
        assert validate_original(inst) == []
        simp, _ = simplify(inst)
        assert validate_simplified(simp) == []


class TestTspGadget:
    def unit_triangle(self):
        return TspInstance(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float))

    def test_structure(self):
        simp, vmap = tsp_to_setp(self.unit_triangle(), epsilon=1e-6)
        assert simp.size == 6
        assert simp.R == ((0, 1), (2, 3), (4, 5))
        assert np.all(simp.p == 1.0)
        assert simp.D[0, 1] == 1e-6
        assert simp.D[0, 2] == 1.0
        assert validate_simplified(simp) == []

    def test_unit_triangle_any_order_same_cost(self):
        # all tours of a unit triangle cost 3; plus 3 service edges of 1e-6
        simp, _ = tsp_to_setp(self.unit_triangle(), epsilon=1e-6)
        res = brute_force(simp)
        assert res.cost.value == pytest.approx(3 + 3e-6, rel=1e-12)

    @pytest.mark.parametrize(
        "C",
        [np.zeros((3, 4)), [[0, 1, 2], [1, 0, 1], [1, 1, 0]], [[0, -1, 1], [-1, 0, 1], [1, 1, 0]],
         [[1, 1, 1], [1, 0, 1], [1, 1, 0]], [[0, np.nan, 1], [np.nan, 0, 1], [1, 1, 0]]],
        ids=["not-square", "asymmetric", "negative", "diagonal", "nan"],
    )
    def test_invalid_matrix_rejected(self, C):
        tsp = TspInstance(C)
        with pytest.raises(ValueError) as info:
            tsp_to_setp(tsp, epsilon=1e-6)
        assert str(info.value) == "; ".join(validate_tsp(tsp)) != ""

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            tsp_to_setp(TspInstance(np.zeros((1, 1))), epsilon=1e-6)
        for epsilon in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                tsp_to_setp(self.unit_triangle(), epsilon=epsilon)

    @pytest.mark.parametrize("seed", range(6))
    def test_optimum_correspondence(self, seed):
        m = 4 + seed % 3
        tsp = gen_random_tsp(m, seed)
        eps = 1e-6 * float(np.min(tsp.C[tsp.C > 0]))
        simp, vmap = tsp_to_setp(tsp, eps)
        setp_opt = brute_force(simp)
        tsp_tour, tsp_opt = brute_force_tsp(tsp.C)
        assert abs(setp_opt.cost.value - (tsp_opt + m * eps)) <= m * eps
        lifted = lift_to_tsp_tour(setp_opt.order, vmap)
        assert tsp.tour_cost(lifted) == pytest.approx(tsp_opt, rel=1e-9)


class TestLiftInject:
    def test_direct_readoff(self):
        vmap = {x: x // 2 for x in range(6)}
        order = AprioriOrder((0, 2, 1), (0, 0, 0))
        assert lift_to_tsp_tour(order, vmap) == (0, 2, 1)

    def test_orientation_does_not_change_cities(self):
        vmap = {x: x // 2 for x in range(6)}
        a = lift_to_tsp_tour(AprioriOrder((0, 2, 1), (0, 0, 0)), vmap)
        b = lift_to_tsp_tour(AprioriOrder((0, 2, 1), (1, 1, 0)), vmap)
        assert a == b

    def test_non_gadget_map_rejected(self):
        vmap = {0: 0, 1: 1, 2: 2, 3: 3}  # simplify-style map, two originals per edge
        with pytest.raises(ValueError):
            lift_to_tsp_tour(AprioriOrder((0, 1), (0, 0)), vmap)

    def test_lift_inject_identity_exhaustive(self):
        import itertools

        for m in range(3, 7):
            vmap = {x: x // 2 for x in range(2 * m)}
            seen = set()
            for rest in itertools.permutations(range(1, m)):
                tour = canonical_city_tour((0,) + rest)
                if tour in seen:
                    continue
                seen.add(tour)
                back = canonical_city_tour(lift_to_tsp_tour(inject_tsp_tour(tour, m), vmap))
                assert back == tour
            assert len(seen) == max(1, math.factorial(m - 1) // 2)


def reference_eulerian(v, e, seed):
    """`gen_random_eulerian` by one full Dijkstra (`graph.metric_closure`)
    per odd pair: the same random graph, then the same greedy pairing, with
    the partner the least (distance, id) of a whole row and the walk back
    read off that row."""
    rng = np.random.default_rng(seed)
    edges = []
    perm = rng.permutation(v)
    for i in range(1, v):
        a = int(perm[rng.integers(0, i)])
        edges.append((min(a, int(perm[i])), max(a, int(perm[i]))))
    while len(edges) < e:
        a, b = rng.integers(0, v, size=2)
        if a != b:
            edges.append((min(int(a), int(b)), max(int(a), int(b))))
    dist = [float(x) for x in rng.random(len(edges))]
    g = Multigraph(range(v), edges)
    odd = [u for u in g.vertices if g.degree(u) % 2 == 1]
    if odd:
        W = graph.length_matrix(g, dist)
        rng.shuffle(odd)
        while odd:
            a = odd.pop()
            (sp,) = graph.metric_closure(W, [a])
            rest = np.asarray(odd)
            b = int(rest[np.lexsort((rest, sp[rest]))[0]])
            odd.remove(b)
            path = []
            u = b
            while u != a:
                eid, u = min(g.adjacency[u], key=lambda ew: (sp[ew[1]] + dist[ew[0]], ew[0]))
                path.append(eid)
            for eid in reversed(path):
                edges.append(g.edges[eid])
                dist.append(dist[eid])
        g = Multigraph(range(v), edges)
    return g, tuple(dist)


class TestGenerators:
    @pytest.mark.parametrize("seed", range(10))
    def test_eulerian_by_construction(self, seed):
        g, dist = gen_random_eulerian(6, 10, seed)
        assert is_eulerian(g)
        assert len(g.edges) >= 10
        assert all(0.0 <= d <= 1.0 for d in dist)

    def test_seed_determinism(self):
        a = gen_random_eulerian(6, 10, 42)
        b = gen_random_eulerian(6, 10, 42)
        assert a[0].edges == b[0].edges and a[1] == b[1]
        sa = gen_random_simplified(7, seed=9)
        sb = gen_random_simplified(7, seed=9)
        assert np.array_equal(sa.D, sb.D) and np.array_equal(sa.p, sb.p)

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            gen_random_eulerian(2, 5, 0)
        with pytest.raises(ValueError):
            gen_random_eulerian(5, 3, 0)
        with pytest.raises(ValueError):
            gen_random_simplified(0, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_required_edges_exclude_the_depot_edges(self, seed):
        m = len(gen_random_eulerian(3, 3, seed)[0].edges)
        assert len(gen_random_original(3, 3, m, seed=seed).required) == m
        with pytest.raises(ValueError, match=r"^n_required must be in 1\.\.%d$" % m):
            gen_random_original(3, 3, m + 1, seed=seed)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 60).flatmap(lambda v: st.tuples(st.just(v), st.integers(v, 4 * v))),
           st.integers(0, 2**64 - 1))
    def test_eulerian_matches_full_closure_pairing(self, shape, seed):
        v, e = shape
        g, dist = gen_random_eulerian(v, e, seed)
        ref_g, ref_dist = reference_eulerian(v, e, seed)
        assert g.edges == ref_g.edges
        assert dist == ref_dist

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_nearest_left_is_least_of_full_row(self, data):
        # lengths with many exact ties and zero-length edges, where a tie can
        # be settled after a larger id
        k = data.draw(st.integers(2, 9))
        edges = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, k)]
        pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda uv: uv[0] != uv[1])
        edges += data.draw(st.lists(pairs, max_size=12))
        dist = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=len(edges), max_size=len(edges)))
        a = data.draw(st.integers(0, k - 1))
        b = data.draw(st.integers(0, k - 1).filter(lambda u: u != a))
        left = [u == b or (u != a and data.draw(st.booleans())) for u in range(k)]
        g = Multigraph(range(k), edges)
        (row,) = graph.all_pairs_shortest_paths(g, dist, [a])
        found, sp = _nearest_left(g, dist, a, left)
        assert found == min((row[u], u) for u in range(k) if left[u])[1]
        assert sp == {u: row[u] for u in range(k) if row[u] <= row[found]}

    @pytest.mark.parametrize("seed", range(20))
    def test_original_sweep_validates(self, seed):
        inst = gen_random_original(6, 10, 3, seed=seed)
        assert validate_original(inst) == []

    def test_metric_flag_gives_triangle_inequality(self):
        inst = gen_random_simplified(5, seed=1, metric=True)
        D = inst.D
        k = inst.size
        for i in range(k):
            for j in range(k):
                for h in range(k):
                    assert D[i, j] <= D[i, h] + D[h, j] + 1e-12


def golden_text(kind, args):
    """The document text (plus the vertex map, for a reduction) of one golden case."""
    if kind == "original":
        return serialize.dumps(gen_random_original(*args))
    if kind == "simplified":
        n, seed, metric = args
        return serialize.dumps(gen_random_simplified(n, seed, metric=metric))
    if kind == "tsp":
        return serialize.dumps(gen_random_tsp(*args))
    if kind == "simplify":
        simp, vmap = simplify(gen_random_original(*args))
    else:
        tsp = gen_random_tsp(*args)
        simp, vmap = tsp_to_setp(tsp, default_epsilon(tsp.C))
    return serialize.dumps(simp) + json.dumps(sorted(vmap.items()))


# SHA-256 of golden_text. Generated and reduced documents are part of the
# seeded-output contract, so any change to one byte of them shows here.
GOLDEN = [
    ("original", (6, 8, 3, 0),
     "66ddb11840f777cd97c73039894bd40acf7260784adcb0f150478fdd5bdbd79b"),
    ("original", (6, 8, 3, 1),
     "8c405d5780dfae7f1c48504ecd149490ca4bd45036cf5977708bc5e22b2bbb7d"),
    ("original", (6, 8, 3, 2),
     "3b7ac4cfef8e02f4938f7879928405f36024be9668fa4db5ffb7d9c8c8439d2f"),
    ("original", (40, 120, 10, 3),
     "c22ace74724d9bcaaf0cdc985b188fc0e081a39dd1d954a70c308661b725b75f"),
    ("original", (300, 900, 20, 4),
     "26f4b12baa15af05544071e553cd1e2b01715461b8cc5e29d4ca1eb43059458b"),
    ("original", (1000, 3000, 50, 5),
     "11b2812feb973eec903b4103cebed16e8f659bba96dec395f36cce2ea8ea6a54"),
    ("original", (2000, 6000, 150, 6),
     "a897566748aa4972783da844bbd9604c69131b21ea5951bf2f53e729eb880c57"),
    ("original", (5000, 15000, 150, 7),
     "7139db7d0a3efa2026f4d4c0f7effede2c51f3e10deef788e22f15d6241ff954"),
    ("simplified", (5, 0, False),
     "836141127d870fa8300d8d990daaa69a10d06e8b12f22ed4368c05c87097ddfe"),
    ("simplified", (5, 1, False),
     "41a572cc618021519b6de3220e5cf07e20d0016b174b4ab88d9649878f71b634"),
    ("simplified", (5, 0, True),
     "dcf8d87b4db7bc9e316fbed9b204a8e05e3f4f38a66f9c971779952e6ddc5334"),
    ("simplified", (5, 1, True),
     "4353a894d5d5dd9a094984058876e278a2e09775ba05304d201b32fe6cc5339c"),
    ("simplified", (12, 2, True),
     "2c6ebc02fdcb2ecd5806f66fa3cc300ce3e2dea39f06b60d1925cd6b470776db"),
    ("simplified", (300, 4, True),
     "76bc01c2a744805e987c004c6385f8f600508dd02f3d69eb403e5c844ca9f144"),
    ("tsp", (5, 0),
     "21788efb912318804771c945beac1dc3868b9f553d6f07d72c7ab3cd8f4b1cb3"),
    ("tsp", (5, 1),
     "1f7aa4da83018832c1823e74555de83fb25183d611c2f9bddbba4f0d3fc8c82c"),
    ("tsp", (8, 2),
     "5c239612105c5f9a28455f26642d89f2b60e543ad26b09f3673006d507285fe5"),
    ("simplify", (6, 8, 3, 0),
     "e95c45538c74127ea52ffabf690403c4b8957eb0b16161a1be58a0823b568b67"),
    ("simplify", (6, 8, 3, 1),
     "7196206e92d6018487cb79d20bd7e73d7c563e0e5a610eed9826f26bf3fe5438"),
    ("simplify", (40, 120, 10, 3),
     "2331a2e347a55677a9e5480b43dacff0a6433f0e2038113db605a3b89f061d10"),
    ("simplify", (300, 900, 20, 4),
     "21242e117e8b9ed952b2dad6558a8f57cd768e53be4dbff6ac0509125d9c9ea2"),
    ("simplify", (1000, 3000, 50, 5),
     "c196da4d5bcf1f4d58a8f9280d3703944765d03502eece93cebe069e671cf69b"),
    ("tsp_to_setp", (5, 0),
     "8ae6a673b454e1d19f9467d831ae7a4f31ef8e366422ef88267653183a79cc29"),
    ("tsp_to_setp", (8, 2),
     "a63dccd49ce9ea513361ba8e07abdaa43f916478cc4761be1bf4d77b9bd83a6d"),
]


@pytest.mark.parametrize("kind, args, digest", GOLDEN, ids=["%s-%s" % (k, "-".join(map(str, a))) for k, a, _ in GOLDEN])
def test_golden_digest(kind, args, digest):
    assert hashlib.sha256(golden_text(kind, args).encode()).hexdigest() == digest
