"""Reference values the benchmark checks CLI output against.

Nothing here imports `setp`. Costs are computed from the definition of the
a-posteriori tour: serve the realized required edges in the a priori cyclic
order, each along its own edge, and travel between consecutive served edges
along the distance matrix.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


def endpoints(R, seq, orient):
    """Tail and head vertex per cyclic position of an oriented order."""
    R = np.asarray(R, dtype=int)
    seq = np.asarray(seq, dtype=int)
    flip = np.asarray(orient, dtype=bool)
    tail = np.where(flip, R[seq, 1], R[seq, 0])
    head = np.where(flip, R[seq, 0], R[seq, 1])
    return tail, head


def closed_form(D, R, p, seq, orient) -> float:
    """Expected cost, summed position by position.

    Position i contributes its service cost with probability p_i, and the
    hop from its head to the tail of position i+t when i and i+t are served
    and everything between them is skipped.
    """
    D = np.asarray(D, dtype=float)
    tail, head = endpoints(R, seq, orient)
    ps = np.asarray(p, dtype=float)[np.asarray(seq, dtype=int)]
    q = 1.0 - ps
    n = len(ps)
    total = float(ps @ D[tail, head])
    for i in range(n):
        later = (i + np.arange(1, n)) % n
        skipped_before = np.cumprod(np.concatenate(([1.0], q[later][:-1])))[: n - 1]
        total += ps[i] * float((ps[later] * skipped_before * D[head[i], tail[later]]).sum())
        total += ps[i] * float(np.prod(q[later])) * D[head[i], tail[i]]
    return total


def scenario_cost(D, tail, head, served) -> float:
    """Length of the a-posteriori tour for one realization (O(n))."""
    pos = np.flatnonzero(served)
    if len(pos) == 0:
        return 0.0
    nxt = np.roll(pos, -1)
    return float(D[tail[pos], head[pos]].sum() + D[head[pos], tail[nxt]].sum())


def enumeration(D, R, p, seq, orient) -> float:
    """Expected cost as the probability-weighted sum over all 2^n scenarios."""
    D = np.asarray(D, dtype=float)
    tail, head = endpoints(R, seq, orient)
    ps = np.asarray(p, dtype=float)[np.asarray(seq, dtype=int)]
    n = len(ps)
    total = 0.0
    for served in itertools.product((False, True), repeat=n):
        mask = np.array(served)
        prob = float(np.prod(np.where(mask, ps, 1.0 - ps)))
        if prob > 0.0:
            total += prob * scenario_cost(D, tail, head, mask)
    return total


def tsp_optimum(C) -> float:
    """Optimal TSP tour length by enumerating tours with city 0 fixed."""
    C = np.asarray(C, dtype=float)
    m = C.shape[0]
    rest = np.array(list(itertools.permutations(range(1, m))), dtype=int)
    zero = np.zeros((len(rest), 1), dtype=int)
    tours = np.hstack([zero, rest, zero])
    return float(C[tours[:, :-1], tours[:, 1:]].sum(axis=1).min())


def gadget_matrix(C, epsilon):
    """Distance matrix of the TSP gadget: two copies per city, epsilon apart."""
    C = np.asarray(C, dtype=float)
    m = C.shape[0]
    city = np.arange(2 * m) // 2
    D = C[np.ix_(city, city)].copy()
    D[np.arange(0, 2 * m, 2), np.arange(1, 2 * m, 2)] = epsilon
    D[np.arange(1, 2 * m, 2), np.arange(0, 2 * m, 2)] = epsilon
    np.fill_diagonal(D, 0.0)
    return D, [(2 * i, 2 * i + 1) for i in range(m)]


def default_epsilon(lengths) -> float:
    """Depot/gadget edge length the CLI uses: 1e-6 of the smallest positive length."""
    positive = [float(d) for d in lengths if d > 0]
    return 1e-6 * min(positive) if positive else 1e-6


def original_matrix(vertices, edges, dist, depot, required):
    """Simplified form of an original instance, built with per-source Dijkstra.

    One vertex copy per endpoint of each required edge plus two depot copies
    at the end; copies sit at shortest-path distance, a required edge keeps
    its own length and the depot pair is `default_epsilon(dist)` apart.
    """
    index = {v: i for i, v in enumerate(sorted(vertices))}
    best = {}
    for (u, v), d in zip(edges, dist):
        key = (min(index[u], index[v]), max(index[u], index[v]))
        best[key] = min(float(d), best.get(key, np.inf))
    rows, cols = zip(*best.keys())
    graph = csr_matrix((list(best.values()), (rows, cols)), shape=(len(index), len(index)))
    origin = [index[w] for eid in required for w in edges[eid]] + [index[depot]] * 2
    sources, inverse = np.unique(origin, return_inverse=True)
    sp = dijkstra(graph, directed=False, indices=sources)
    D = sp[inverse][:, np.asarray(origin)]
    np.fill_diagonal(D, 0.0)
    for i, eid in enumerate(required):
        D[2 * i, 2 * i + 1] = D[2 * i + 1, 2 * i] = float(dist[eid])
    size = D.shape[0]
    D[size - 2, size - 1] = D[size - 1, size - 2] = default_epsilon(dist)
    return D, [(2 * i, 2 * i + 1) for i in range(size // 2)]
