"""Constructive procedures: depot embedding, instance simplification, the
TSP gadget with its solution bijection, and seeded random generators."""

from __future__ import annotations

import heapq

import numpy as np

from .core import AprioriOrder, OriginalInstance, SimplifiedInstance, TspInstance, canonicalize, validate_tsp
from .graph import Multigraph, all_pairs_shortest_paths, is_eulerian, metric_closure

VertexMap = dict[int, int]


def default_epsilon(lengths) -> float:
    """1e-6 times the smallest positive entry of the array-like `lengths`; 1e-6 if none is."""
    lengths = np.ravel(np.asarray(lengths, dtype=float))
    positive = lengths[lengths > 0]
    return 1e-6 * float(positive.min()) if positive.size else 1e-6


def embed_depot(g: Multigraph, dist, depot: int):
    """Duplicate the depot as a fresh vertex joined by two zero-length edges.

    Returns (graph, dist, new_depot). The new vertex has degree 2, so
    Eulerian-ness is preserved.
    """
    if depot not in g.adjacency:
        raise ValueError("depot %d is not a vertex of the graph" % depot)
    v0 = max(g.vertices) + 1
    edges = list(g.edges) + [(depot, v0), (depot, v0)]
    new_dist = [float(dist[e]) for e in range(len(g.edges))] + [0.0, 0.0]
    return Multigraph(g.vertices + (v0,), edges), tuple(new_dist), v0


def attach_depot_edge(order: AprioriOrder, n: int) -> AprioriOrder:
    """Lift an order over n original required edges to the simplified instance
    produced by `simplify`, whose matching carries the depot edge at index n.

    The a-posteriori tour leaves the depot before the first served edge, so
    the depot edge precedes the order cyclically.
    """
    if order.n != n:
        raise ValueError("order size %d != n = %d" % (order.n, n))
    return canonicalize(AprioriOrder((n,) + order.sequence, (0,) + order.orient))


def simplify(inst: OriginalInstance, epsilon: float | None = None):
    """Reduce an original instance to the order/orientation form.

    Every required-edge endpoint becomes its own vertex (shared endpoints
    split into co-located copies), plus a pair of depot copies joined by a
    probability-1 edge of length `epsilon`. Distances between copies are the
    host graph's shortest-path distances; the matched pair of required edge i
    keeps that edge's own length, so service cost is preserved exactly.

    Returns (SimplifiedInstance, VertexMap) with simplified vertex ids mapped
    back to original vertices. The matching keeps the order of
    `inst.required`, with the depot edge last.
    """
    if epsilon is None:
        epsilon = default_epsilon(inst.dist)
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    g = Multigraph.from_instance(inst)
    origin = [v for eid in inst.required for v in inst.edges[eid]] + [inst.depot, inst.depot]
    lengths = [inst.dist[eid] for eid in inst.required] + [epsilon]
    p = np.append(np.asarray(inst.prob, dtype=float), 1.0)
    # Dijkstra only from the vertices that have copies, not from every vertex
    sources, pos = np.unique([g.index(v) for v in origin], return_inverse=True)
    sp = all_pairs_shortest_paths(g, inst.dist, sources)
    return _split(sp[:, sources], pos, origin, lengths, p)


def _split(M, idx, origin, lengths, p):
    """The simplified instance on copies of M's vertices `idx`, copy x standing
    for original vertex origin[x]. Copies 2i and 2i+1 form required edge i, of
    length lengths[i] and probability p[i]; other copies keep M's distances.
    Returns (SimplifiedInstance, VertexMap)."""
    D = M[np.ix_(idx, idx)]
    # per-source Dijkstra can sum one path in two orders; make a closure exactly symmetric
    D = np.minimum(D, D.T)
    np.fill_diagonal(D, 0.0)
    n = len(lengths)
    k = np.arange(n)
    D[2 * k, 2 * k + 1] = D[2 * k + 1, 2 * k] = np.asarray(lengths, dtype=float)
    R = tuple((2 * i, 2 * i + 1) for i in range(n))
    vmap: VertexMap = {x: int(v) for x, v in enumerate(origin)}
    return SimplifiedInstance(D=D, R=R, p=p), vmap


def tsp_to_setp(tsp: TspInstance, epsilon: float):
    """Replace each city by two vertices at mutual distance epsilon, joined by
    a probability-1 required edge. Returns (SimplifiedInstance, VertexMap);
    raises ValueError unless 0 < epsilon < inf and `core.validate_tsp` finds
    no violation in C."""
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    violations = validate_tsp(tsp)
    if violations:
        raise ValueError("; ".join(violations))
    m = tsp.m
    if m < 3:
        raise ValueError("TSP gadget requires at least 3 cities, got %d" % m)
    city = np.arange(2 * m) // 2
    return _split(tsp.C, city, city, [epsilon] * m, np.ones(m))


def lift_to_tsp_tour(order: AprioriOrder, vmap: VertexMap) -> tuple[int, ...]:
    """Read the city sequence off a gadget-instance order.

    Both endpoints of a gadget edge map to the same city, so orientation
    drops out. Raises ValueError if the map is not gadget-shaped.
    """
    cities = []
    for i in order.sequence:
        a, b = vmap.get(2 * i), vmap.get(2 * i + 1)
        if a is None or a != b:
            raise ValueError("vertex map is not from a TSP gadget (edge %d)" % i)
        cities.append(a)
    if len(set(cities)) != len(cities):
        raise ValueError("vertex map is not from a TSP gadget (repeated city)")
    return tuple(cities)


def inject_tsp_tour(cities, m: int) -> AprioriOrder:
    """Natural injection of a city tour into a gadget-instance order.

    City i corresponds to required edge i; each edge is entered at its even
    copy (orientation 0).
    """
    cities = tuple(int(c) for c in cities)
    if sorted(cities) != list(range(m)):
        raise ValueError("city tour is not a permutation of 0..m-1")
    return canonicalize(AprioriOrder(cities, (0,) * m))


def canonical_city_tour(cities) -> tuple[int, ...]:
    """Canonical form of an undirected cyclic city tour: start at the smallest
    city, traverse toward the smaller of its two neighbors."""
    cities = list(cities)
    k = cities.index(min(cities))
    rot = cities[k:] + cities[:k]
    rev = [rot[0]] + rot[:0:-1]
    return tuple(rot if rot[1] <= rev[1] else rev)


def gen_random_eulerian(v: int, e: int, seed: int):
    """Random connected even-degree multigraph with uniform [0,1] lengths.

    Builds a random spanning tree plus extra edges up to `e`, then pairs the
    odd-degree vertices and duplicates the edges along shortest paths between
    them. The result has at least `e` edges. Returns (Multigraph, dist tuple).

    The pairing takes the odd vertices in a shuffled order; each one taken
    picks the closest of those left as its partner, the least (distance,
    vertex id). Each pair costs one search from the vertex that picks, which
    stops at its partner (`_nearest_left`), so the work stays in the ball the
    search settles rather than O(v + e) per pair. `graph.metric_closure`
    cannot do this: scipy's Dijkstra neither stops at the first target nor
    avoids setting up and returning v-long arrays on every call.
    """
    if v < 3 or e < v:
        raise ValueError("need v >= 3 and e >= v (got v=%d, e=%d)" % (v, e))
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
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
    left = [g.degree(u) % 2 == 1 for u in g.vertices]  # odd, not yet paired; g's vertices are 0..v-1
    odd = [u for u in g.vertices if left[u]]
    if odd:
        # greedy pairing: closest remaining partner, duplicate a shortest path
        rng.shuffle(odd)
        for a in reversed(odd):  # taken from the end, as list.pop() would
            if not left[a]:
                continue
            left[a] = False
            b, sp = _nearest_left(g, dist, a, left)
            left[b] = False
            # Walk back from b to a. Every vertex at distance <= sp[b] is in
            # sp, and sp[u] is the least sp[w] + d over the edges (u, w) of
            # length d, reached at u's predecessor. A vertex missing from sp
            # lies farther than sp[b] >= sp[u], so it cannot reach that
            # least sum and counts as +inf. The lengths come from
            # rng.random, so they are almost surely positive: sp strictly
            # decreases along the walk, which therefore ends at a.
            path = []
            u = b
            while u != a:
                eid, u = min(g.adjacency[u], key=lambda ew: (sp.get(ew[1], np.inf) + dist[ew[0]], ew[0]))
                path.append(eid)
            for eid in reversed(path):
                edges.append(g.edges[eid])
                dist.append(dist[eid])
        g = Multigraph(range(v), edges)
    assert is_eulerian(g)
    return g, tuple(dist)


def _nearest_left(g: Multigraph, dist, a: int, left) -> tuple[int, dict[int, float]]:
    """Dijkstra from `a` over g's edges of lengths `dist`, stopped once the
    nearest vertex u with left[u] is settled: the least (distance, id).

    Returns (that vertex, the settled distances). The search settles every
    vertex at that distance before it stops, since a tie may be settled
    after a larger id. Each distance is the sum d(u) + dist[eid] that
    scipy's Dijkstra forms, so the bits are those of `graph.metric_closure`.
    """
    adjacency, pop, push, inf = g.adjacency, heapq.heappop, heapq.heappush, np.inf
    settled: dict[int, float] = {}
    best = {a: 0.0}
    heap = [(0.0, a)]
    found, reach = len(left), inf
    while heap:
        d, u = pop(heap)
        if d > reach:
            break
        if u in settled:
            continue
        settled[u] = d
        if left[u] and u < found:
            found, reach = u, d
        for eid, w in adjacency[u]:
            dw = d + dist[eid]
            if dw < best.get(w, inf):
                best[w] = dw
                push(heap, (dw, w))
    return found, settled


def gen_random_original(v: int, e: int, n_required: int, seed: int) -> OriginalInstance:
    """Random valid OriginalInstance: random Eulerian graph, embedded depot,
    random required subset with uniform probabilities."""
    g, dist = gen_random_eulerian(v, e, seed)
    m = len(g.edges)  # the edges that may be required: not the two depot edges
    if not 1 <= n_required <= m:
        raise ValueError("n_required must be in 1..%d" % m)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed).spawn(1)[0])
    depot = int(rng.integers(0, v))
    g, dist, v0 = embed_depot(g, dist, depot)
    required = tuple(int(i) for i in sorted(rng.choice(m, size=n_required, replace=False)))
    prob = tuple(float(x) for x in rng.random(n_required))
    return OriginalInstance(
        vertices=g.vertices,
        edges=g.edges,
        dist=dist,
        depot=v0,
        required=required,
        prob=prob,
    )


def gen_random_simplified(n: int, seed: int, metric: bool = False) -> SimplifiedInstance:
    """Random simplified instance over 2n vertices; optional metric closure."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    size = 2 * n
    A = rng.random((size, size))
    D = np.triu(A, 1)
    D = D + D.T
    if metric:
        D = metric_closure(D)
    R = tuple((2 * i, 2 * i + 1) for i in range(n))
    p = rng.random(n)
    return SimplifiedInstance(D=D, R=R, p=p)


def gen_random_tsp(m: int, seed: int) -> TspInstance:
    """Random symmetric TSP cost matrix with uniform [0,1] costs."""
    if m < 3:
        raise ValueError("m must be >= 3")
    rng = np.random.default_rng(seed)
    A = rng.random((m, m))
    C = np.triu(A, 1)
    return TspInstance(C + C.T)
