import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setp.core import EulerianTour, OriginalInstance, validate_tour
from setp.graph import (
    Multigraph,
    all_eulerian_tours,
    all_pairs_shortest_paths,
    hierholzer,
    is_eulerian,
    length_matrix,
    metric_closure,
)
from setp.transforms import gen_random_eulerian


def brute_force_shortest(g, dist, s, t):
    """Oracle: minimum over all simple s-t paths by DFS enumeration."""
    best = 0.0 if s == t else np.inf

    def walk(v, seen, acc):
        nonlocal best
        if v == t:
            best = min(best, acc)
            return
        for eid, w in g.adjacency[v]:
            if w not in seen:
                walk(w, seen | {w}, acc + dist[eid])

    if s != t:
        walk(s, {s}, 0.0)
    return best


class TestIsEulerian:
    def test_k3(self):
        assert is_eulerian(Multigraph(range(3), [(0, 1), (1, 2), (0, 2)]))

    def test_k4_odd_degrees(self):
        edges = list(itertools.combinations(range(4), 2))
        assert not is_eulerian(Multigraph(range(4), edges))

    def test_disjoint_triangles(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        assert not is_eulerian(Multigraph(range(6), edges))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Multigraph(range(2), [(0, 0), (0, 1), (0, 1)])


class TestHierholzer:
    def test_k3_smallest_id_rule(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2)])
        tour = hierholzer(g, 0)
        assert tour == EulerianTour(((0, 0), (1, 0), (2, 1)))

    def test_doubled_edge(self):
        g = Multigraph(range(2), [(0, 1), (0, 1)])
        tour = hierholzer(g, 0)
        assert tour == EulerianTour(((0, 0), (1, 1)))

    def test_non_eulerian_rejected(self):
        with pytest.raises(ValueError):
            hierholzer(Multigraph(range(3), [(0, 1), (1, 2)]), 0)

    def test_unknown_start_vertex_rejected(self):
        with pytest.raises(ValueError, match="^start vertex 7 is not a vertex of the graph$"):
            hierholzer(Multigraph(range(3), [(0, 1), (1, 2), (0, 2)]), 7)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graph_tour_valid(self, seed):
        g, dist = gen_random_eulerian(5, 10, seed)
        tour = hierholzer(g, 0)
        inst = OriginalInstance(
            vertices=g.vertices,
            edges=g.edges,
            dist=dist,
            depot=0,
            required=(0,),
            prob=(1.0,),
        )
        assert validate_tour(tour, inst) == []


class TestAllEulerianTours:
    def test_every_tour_valid_and_distinct(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2), (0, 1), (1, 2), (0, 2)])
        inst = OriginalInstance(
            vertices=g.vertices, edges=g.edges, dist=(1.0,) * 6, depot=0,
            required=(0,), prob=(1.0,),
        )
        tours = list(all_eulerian_tours(g, 0))
        assert len(tours) == len(set(tours)) > 1
        for t in tours:
            assert validate_tour(t, inst) == []

    def test_unknown_start_vertex_rejected(self):
        with pytest.raises(ValueError, match="^start vertex 7 is not a vertex of the graph$"):
            list(all_eulerian_tours(Multigraph(range(3), [(0, 1), (1, 2), (0, 2)]), 7))


class TestShortestPaths:
    def test_triangle_shortcut(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2)])
        M = all_pairs_shortest_paths(g, [1.0, 1.0, 5.0])
        assert M[0, 2] == 2.0
        assert M[0, 1] == 1.0

    def test_all_zero_lengths(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2)])
        M = all_pairs_shortest_paths(g, [0.0, 0.0, 0.0])
        assert np.all(M == 0.0)

    @pytest.mark.parametrize("bad, word", [(-1.0, "negative"), (float("nan"), "NaN")])
    def test_negative_or_nan_length_raises(self, bad, word):
        # a NaN edge must not vanish and leave finite distances routed around it
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="%s length on edge 2" % word):
            all_pairs_shortest_paths(g, [1.0, 1.0, bad])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_simple_path_enumeration(self, seed):
        g, dist = gen_random_eulerian(5, 8, seed)
        M = all_pairs_shortest_paths(g, dist)
        for s in g.vertices:
            for t in g.vertices:
                expect = brute_force_shortest(g, dist, s, t)
                assert M[g.index(s), g.index(t)] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_zero_diagonal_triangle_inequality(self, seed):
        g, dist = gen_random_eulerian(6, 9, seed)
        M = all_pairs_shortest_paths(g, dist)
        assert np.allclose(M, M.T)
        assert np.all(np.diag(M) == 0.0)
        k = len(g.vertices)
        for i in range(k):
            for j in range(k):
                for h in range(k):
                    assert M[i, j] <= M[i, h] + M[h, j] + 1e-12


@st.composite
def connected_multigraphs(draw):
    """A connected multigraph on k >= 2 vertices with gaps in its ids, parallel
    edges and zero-length edges, with its lengths and a list of row positions
    (any subset, in any order)."""
    k = draw(st.integers(2, 7))
    ids = sorted(draw(st.sets(st.integers(0, 30), min_size=k, max_size=k)))
    edges = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, k)]
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda uv: uv[0] != uv[1])
    edges += draw(st.lists(pairs, max_size=10))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4))  # parallel copies
    length = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 10.0))
    dist = draw(st.lists(length, min_size=len(edges), max_size=len(edges)))
    sources = draw(st.lists(st.integers(0, k - 1), unique=True))
    return Multigraph(ids, edges), dist, sources


@settings(max_examples=200, deadline=None)
@given(connected_multigraphs())
def test_source_rows_equal_full_closure_rows(case):
    g, dist, sources = case
    rows = all_pairs_shortest_paths(g, dist, sources)
    assert rows.shape == (len(sources), len(g.vertices))
    assert np.array_equal(rows, all_pairs_shortest_paths(g, dist)[sources])


@st.composite
def two_way_arrays(draw):
    """A symmetric dense length array, +inf for "no edge", with zero-length
    off-diagonal edges, a zero or +inf diagonal, and a list of row positions
    (any subset, in any order)."""
    k = draw(st.integers(1, 8))
    length = st.one_of(st.just(0.0), st.just(np.inf), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 10.0))
    i, j = np.triu_indices(k, 1)
    W = np.full((k, k), np.inf)
    W[i, j] = W[j, i] = draw(st.lists(length, min_size=len(i), max_size=len(i)))
    np.fill_diagonal(W, draw(st.sampled_from([0.0, np.inf])))
    return W, draw(st.lists(st.integers(0, k - 1), unique=True))


@settings(max_examples=200, deadline=None)
@given(connected_multigraphs(), two_way_arrays())
def test_directed_search_of_two_way_matrix_equals_undirected_search(case, dense):
    # both matrices hold both arcs of every edge, so relaxing each arc once
    # gives the same bits as scipy's undirected search, which also walks the transpose
    from scipy.sparse.csgraph import csgraph_from_dense, shortest_path
    g, dist, _ = case
    undirected = shortest_path(length_matrix(g, dist), method="D", directed=False)
    assert np.array_equal(all_pairs_shortest_paths(g, dist), undirected)
    W, sources = dense
    undirected = shortest_path(csgraph_from_dense(W, null_value=np.inf), method="D", directed=False, indices=sources)
    assert np.array_equal(metric_closure(W, sources), undirected)
