"""Multigraph algorithms: Eulerian test, tour construction, shortest paths."""

from __future__ import annotations

import numpy as np

from .core import Edge, EulerianTour, OriginalInstance, eulerian_violations


class Multigraph:
    """Undirected multigraph with stable integer edge ids.

    Parallel edges are allowed and distinguished by id; self-loops are
    rejected. Adjacency lists are kept sorted by edge id so that traversal
    algorithms are deterministic.
    """

    def __init__(self, vertices, edges):
        self.vertices: tuple[int, ...] = tuple(sorted(set(int(v) for v in vertices)))
        self.edges: tuple[Edge, ...] = tuple((int(u), int(v)) for u, v in edges)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for eid, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError("self-loop at edge %d (vertex %d)" % (eid, u))
            if u not in adj or v not in adj:
                raise ValueError("edge %d references unknown vertex" % eid)
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        self.adjacency = {v: sorted(lst) for v, lst in adj.items()}

    @classmethod
    def from_instance(cls, inst: OriginalInstance) -> "Multigraph":
        return cls(inst.vertices, inst.edges)

    def index(self, v: int) -> int:
        return self._index[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def is_eulerian(g: Multigraph) -> bool:
    """True iff every nonzero-degree vertex has even degree and they are connected."""
    return not eulerian_violations(g.vertices, g.edges)


def _check_tour_start(g: Multigraph, start: int) -> None:
    """Raise ValueError unless `g` is Eulerian and `start` is one of its vertices."""
    if not is_eulerian(g):
        raise ValueError("graph is not Eulerian")
    if start not in g.adjacency:
        raise ValueError("start vertex %d is not a vertex of the graph" % start)


def hierholzer(g: Multigraph, start: int) -> EulerianTour:
    """Build an Eulerian tour from `start`, taking the smallest unused edge id first.

    Deterministic for a given edge-id ordering. Raises ValueError on
    non-Eulerian input.
    """
    _check_tour_start(g, start)
    if g.degree(start) == 0:
        raise ValueError("start vertex %d has no edges" % start)
    used = [False] * len(g.edges)
    cursor = {v: 0 for v in g.vertices}
    # stack entries: (vertex, step taken to reach it); classic splice-free variant
    stack: list[tuple[int, tuple[int, int] | None]] = [(start, None)]
    out: list[tuple[int, int]] = []
    while stack:
        v, _ = stack[-1]
        lst = g.adjacency[v]
        i = cursor[v]
        while i < len(lst) and used[lst[i][0]]:
            i += 1
        cursor[v] = i
        if i < len(lst):
            eid, w = lst[i]
            used[eid] = True
            direction = 0 if g.edges[eid][0] == v else 1
            stack.append((w, (eid, direction)))
        else:
            _, step = stack.pop()
            if step is not None:
                out.append(step)
    out.reverse()
    return EulerianTour(tuple(out))


def all_eulerian_tours(g: Multigraph, start: int):
    """An iterator over every Eulerian tour of `g` starting and ending at `start`.

    Exhaustive DFS; guarded to graphs of at most 12 edges. The arguments are
    checked when it is called, not when the first tour is asked for.
    """
    m = len(g.edges)
    if m > 12:
        raise ValueError("tour enumeration limited to 12 edges, got %d" % m)
    _check_tour_start(g, start)
    used = [False] * m
    steps: list[tuple[int, int]] = []

    def walk(v):
        if len(steps) == m:
            if v == start:
                yield EulerianTour(tuple(steps))
            return
        for eid, w in g.adjacency[v]:
            if not used[eid]:
                used[eid] = True
                steps.append((eid, 0 if g.edges[eid][0] == v else 1))
                yield from walk(w)
                steps.pop()
                used[eid] = False

    return walk(start)


def all_pairs_shortest_paths(g: Multigraph, dist, sources=None) -> np.ndarray:
    """Shortest-path distances from `sources` (positions in g.vertices; all of
    them by default) to every vertex, one row per source, columns in
    sorted-vertex order: `metric_closure` of `length_matrix(g, dist)`, which
    raises ValueError on a negative or NaN length.

    Unreachable pairs come out as +inf (impossible for Eulerian inputs).
    """
    return metric_closure(length_matrix(g, dist), sources)


def length_matrix(g: Multigraph, dist):
    """The two-way length matrix of `g` as a scipy CSR matrix over positions in
    g.vertices: both arcs of every finite edge, each pair of vertices keeping
    the least of its parallel edges (zero lengths included).

    `dist` maps edge id to a nonnegative length; a negative or NaN length
    raises ValueError.
    """
    from scipy.sparse import csr_matrix  # see metric_closure
    k = len(g.vertices)
    lengths = np.array([dist[eid] for eid in range(len(g.edges))], dtype=float)
    bad = np.flatnonzero(~(lengths >= 0))  # NaN fails too
    if len(bad):
        raise ValueError("%s length on edge %d" % ("NaN" if np.isnan(lengths[bad[0]]) else "negative", bad[0]))
    ends = np.searchsorted(g.vertices, np.reshape(g.edges, (-1, 2)))
    finite = lengths < np.inf
    # both directions of every finite edge, sorted by (row, column, length)
    rows, cols = np.concatenate([ends[finite], ends[finite, ::-1]]).T
    length = np.concatenate([lengths[finite]] * 2)
    order = np.lexsort((length, cols, rows))
    rows, cols, length = rows[order], cols[order], length[order]
    first = np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]  # the least of parallel edges
    indptr = np.r_[0, np.cumsum(np.bincount(rows[first], minlength=k))]
    return csr_matrix((length[first], cols[first], indptr), shape=(k, k))


def metric_closure(W, sources=None) -> np.ndarray:
    """Shortest-path distances of length matrix `W`: a dense array where +inf
    marks "no edge", so zero-length edges survive, or a scipy sparse matrix
    whose stored entries, zeros included, are arcs. Either way W holds both
    arcs of every edge (a symmetric array does, and `length_matrix` builds
    the sparse one) and is searched as a directed graph, so each arc is
    relaxed once, not again from the transpose.

    Returns the rows of `sources` (any sequence of vertex positions, in any
    order), or the whole closure when it is None. Each row is one Dijkstra
    run, so a row does not depend on which other rows are asked for.
    """
    # Imported here: scipy.sparse.csgraph takes about 0.3 s to load, over half
    # of `import setp.cli`, and most commands compute no shortest path.
    from scipy.sparse import issparse
    from scipy.sparse.csgraph import csgraph_from_dense, shortest_path
    G = W if issparse(W) else csgraph_from_dense(W, null_value=np.inf)
    return shortest_path(G, method="D", directed=True, indices=sources)
