"""Instance and solution data model for both SETP formulations and the TSP.

Two instance forms are supported: the original form (an Eulerian multigraph
with a depot and a subset of stochastic required edges) and the simplified
form (a distance matrix over 2n vertices whose required edges form a perfect
matching). Solutions to the simplified form are cyclic orders with
orientations; solutions to the original form are Eulerian tours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Edge = tuple[int, int]


@dataclass(frozen=True)
class OriginalInstance:
    """Eulerian multigraph with depot, distances and stochastic required edges.

    Edge ids are positions in `edges`; parallel edges are distinguishable by
    id. `prob[k]` is the service probability of `required[k]`.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    dist: tuple[float, ...]
    depot: int
    required: tuple[int, ...]
    prob: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.required)


@dataclass(frozen=True, eq=False)  # compared by identity: == over its arrays would raise
class SimplifiedInstance:
    """Complete symmetric distance matrix plus a required perfect matching.

    Vertices are 0..2n-1. `R[i]` is the i-th required edge (a vertex pair),
    `p[i]` its service probability. Every vertex occurs in exactly one edge
    of R.
    """

    D: np.ndarray
    R: tuple[Edge, ...]
    p: np.ndarray

    def __post_init__(self):
        # private copies, so that freezing them leaves the caller's arrays writable
        D = np.array(self.D, dtype=float)
        p = np.array(self.p, dtype=float)
        D.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "R", tuple((int(u), int(v)) for u, v in self.R))

    @property
    def size(self) -> int:
        return self.D.shape[0]

    @property
    def n(self) -> int:
        return len(self.R)


class TspInstance:
    """TSP cost matrix over cities 0..m-1, read-only; `validate_tsp` checks it."""

    def __init__(self, C):
        self.C = np.array(C, dtype=float)  # a private copy: freezing it leaves C writable
        self.C.setflags(write=False)

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def tour_cost(self, cities) -> float:
        cities = list(cities)
        return float(sum(self.C[cities[i], cities[(i + 1) % len(cities)]] for i in range(len(cities))))


@dataclass(frozen=True)
class AprioriOrder:
    """Cyclic visiting order of the required edges plus one orientation bit each.

    `sequence` is a permutation of 0..n-1 read cyclically. `orient[k]` applies
    to the edge at position k: 0 traverses (u, v) as u -> v, 1 as v -> u.
    Orders equal up to cyclic rotation denote the same solution; see
    `canonicalize`.
    """

    sequence: tuple[int, ...]
    orient: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sequence", tuple(int(i) for i in self.sequence))
        object.__setattr__(self, "orient", tuple(int(o) for o in self.orient))

    @property
    def n(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class Scenario:
    """One realization of the stochastic data: which required edges need service."""

    served: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "served", tuple(bool(s) for s in self.served))


@dataclass(frozen=True)
class EulerianTour:
    """Closed walk covering every multigraph edge exactly once.

    Each step is (edge id, direction); direction 0 traverses the stored (u, v)
    pair as u -> v, direction 1 as v -> u.
    """

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((int(e), int(d)) for e, d in self.steps))


def step_endpoints(step: tuple[int, int], edges: tuple[Edge, ...]) -> tuple[int, int]:
    """Start and end vertex of a tour step."""
    eid, direction = step
    u, v = edges[eid]
    return (v, u) if direction else (u, v)


def eulerian_violations(vertices, edges) -> list[str]:
    """Odd-degree, not-connected and no-edges violations of a multigraph.

    Self-loops and endpoints outside `vertices` are skipped; an empty list
    means every vertex has even degree and those with edges are connected.
    """
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        for w, x in ((u, v), (v, u)):
            if u != v and w in adj:
                adj[w].append(x)  # x may be unknown: it counts for degree, and the walk stops there
    violations = ["odd degree %d at vertex %d" % (len(adj[v]), v) for v in vertices if len(adj[v]) % 2]
    active = [v for v in vertices if adj[v]]
    if not active:
        return violations + ["graph has no edges"]
    seen = {active[0]}
    stack = [active[0]]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if not seen.issuperset(active):
        violations.append("graph not connected on vertices with edges")
    return violations


def validate_original(inst: OriginalInstance) -> list[str]:
    """Check all OriginalInstance invariants; return one message per violation."""
    violations = []
    vset = set(inst.vertices)
    if len(vset) != len(inst.vertices):
        violations.append("duplicate vertex ids")
    if len(inst.dist) != len(inst.edges):
        violations.append("dist length %d != edge count %d" % (len(inst.dist), len(inst.edges)))
    for eid, (u, v) in enumerate(inst.edges):
        if u == v:
            violations.append("self-loop at edge %d (vertex %d)" % (eid, u))
            continue
        for w in (u, v):
            if w not in vset:
                violations.append("edge %d references unknown vertex %d" % (eid, w))
    violations += eulerian_violations(inst.vertices, inst.edges)
    for eid, d in enumerate(inst.dist):
        if not math.isfinite(d):
            violations.append("non-finite distance %g on edge %d" % (d, eid))
        elif d < 0:
            violations.append("negative distance %g on edge %d" % (d, eid))
    if inst.depot not in vset:
        violations.append("depot %d is not a vertex" % inst.depot)
    elif not any(inst.depot in e for e in inst.edges):
        violations.append("depot %d has no edges" % inst.depot)
    if len(set(inst.required)) != len(inst.required):
        violations.append("duplicate required edge ids")
    for eid in inst.required:
        if not 0 <= eid < len(inst.edges):
            violations.append("required edge id %d out of range" % eid)
    if len(inst.prob) != len(inst.required):
        violations.append("prob length %d != required count %d" % (len(inst.prob), len(inst.required)))
    for k, q in enumerate(inst.prob):
        if not 0.0 <= q <= 1.0:
            violations.append("probability %g out of [0,1] on required edge %d" % (q, k))
    if len(inst.required) == 0:
        violations.append("required edge set is empty")
    return violations


def matrix_violations(M: np.ndarray, name: str) -> list[str]:
    """Check that M is a square, finite, symmetric, nonnegative matrix with
    zero diagonal; `name` is what its entries measure ("distance", "cost")."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return ["%s matrix is not square" % name]
    violations = []
    if not np.all(np.isfinite(M)):
        violations.append("non-finite %s entry" % name)
    if not np.array_equal(M, M.T, equal_nan=True):
        violations.append("%s matrix not symmetric" % name)
    if np.any(np.diag(M) != 0.0):
        violations.append("nonzero diagonal in %s matrix" % name)
    if np.any(M < 0):
        violations.append("negative %s entry" % name)
    return violations


def validate_tsp(inst: TspInstance) -> list[str]:
    """Check a TspInstance cost matrix; return one message per violation."""
    return matrix_violations(inst.C, "cost")


def validate_simplified(inst: SimplifiedInstance) -> list[str]:
    """Check all SimplifiedInstance invariants; return one message per violation."""
    D = inst.D
    violations = [] if inst.n else ["required edge set is empty"]
    violations += matrix_violations(D, "distance")
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        return violations
    size = D.shape[0]
    if size != 2 * inst.n:
        violations.append("matrix size %d != 2 * |R| = %d" % (size, 2 * inst.n))
    cover: dict[int, int] = {}
    for i, (u, v) in enumerate(inst.R):
        for w in (u, v):
            if not 0 <= w < size:
                violations.append("required edge %d endpoint %d out of range" % (i, w))
            cover[w] = cover.get(w, 0) + 1
        if u == v:
            violations.append("degenerate required edge %d (%d,%d)" % (i, u, v))
    for w in range(size):
        c = cover.get(w, 0)
        if c == 0:
            violations.append("vertex %d not covered by R" % w)
        elif c > 1:
            violations.append("vertex %d covered %d times by R" % (w, c))
    if inst.p.ndim != 1:
        return violations + ["probability vector is not one-dimensional"]
    if len(inst.p) != inst.n:
        violations.append("probability vector length %d != |R| = %d" % (len(inst.p), inst.n))
    for i, q in enumerate(inst.p):
        if not 0.0 <= q <= 1.0:
            violations.append("probability %g out of [0,1] on edge %d" % (q, i))
    return violations


def validate_tour(tour: EulerianTour, inst: OriginalInstance) -> list[str]:
    """Check that a tour is a closed Eulerian tour of the instance from its depot."""
    violations = []
    seen = [False] * len(inst.edges)
    for eid, _ in tour.steps:
        if not 0 <= eid < len(inst.edges):
            return ["edge id %d out of range" % eid]
        if seen[eid]:
            violations.append("edge %d used more than once" % eid)
        seen[eid] = True
    missing = [i for i, s in enumerate(seen) if not s]
    if missing:
        violations.append("edges never used: %s" % missing)
    if not tour.steps:
        violations.append("empty tour")
        return violations
    here = inst.depot
    for k, step in enumerate(tour.steps):
        a, b = step_endpoints(step, inst.edges)
        if a != here:
            violations.append("step %d starts at %d, expected %d" % (k, a, here))
        here = b
    if here != inst.depot:
        violations.append("tour ends at %d, not at depot %d" % (here, inst.depot))
    return violations


def canonicalize(order: AprioriOrder) -> AprioriOrder:
    """Rotate a cyclic order so the smallest edge index comes first."""
    k = order.sequence.index(min(order.sequence))
    return AprioriOrder(
        sequence=order.sequence[k:] + order.sequence[:k],
        orient=order.orient[k:] + order.orient[:k],
    )


def induced_order(tour: EulerianTour, inst: OriginalInstance) -> AprioriOrder:
    """Restrict an Eulerian tour to the required edges, keeping order and direction.

    The result is the canonical cyclic order the a-posteriori tour follows.
    Raises ValueError if the tour is not a valid Eulerian tour of the instance.
    """
    problems = validate_tour(tour, inst)
    if problems:
        raise ValueError("invalid Eulerian tour: " + "; ".join(problems))
    pos = {eid: i for i, eid in enumerate(inst.required)}
    seq = []
    orient = []
    for eid, direction in tour.steps:
        if eid in pos:
            seq.append(pos[eid])
            orient.append(direction)
    return canonicalize(AprioriOrder(tuple(seq), tuple(orient)))
