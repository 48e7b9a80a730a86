"""Solvers over the order/orientation solution space: exhaustive search for
small instances, a greedy constructor and 2-opt local search for larger ones,
plus a small exact TSP solver used to certify the reduction gadget."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .core import AprioriOrder, SimplifiedInstance, canonicalize
from .evaluate import CLOSED_FORM, ExpectedCost, _blocks, _oriented_rows, expected_cost_closed_form
from .evaluate import scenario_matrix, weighted_tour_costs

BRUTE_FORCE_GUARD = 9


@dataclass(frozen=True)
class SolveResult:
    order: AprioriOrder
    cost: ExpectedCost
    evaluations: int
    wall_time: float


def brute_force(inst: SimplifiedInstance, max_n: int = BRUTE_FORCE_GUARD) -> SolveResult:
    """Global minimum over all canonical cyclic orders and orientations.

    Edge 0 is fixed at position 0 (rotation symmetry), leaving
    (n-1)! * 2^n candidates: every sequence times every orientation. Each
    block of sequences is scored against all 2^n orientations at once by
    broadcasting, so probability factors are built once per sequence.
    Exact-cost ties are broken by lexicographically smallest (sequence, orient).
    """
    n = inst.n
    if n > max_n:
        raise ValueError("brute force over (n-1)!*2^n candidates exceeds the guard n <= %d" % max_n)
    t0 = time.perf_counter()
    # position 0 as the high bit: with permutations in lexicographic order, each
    # block's row-major (sequence, orient) costs come in lexicographic key order
    orients = scenario_matrix(n)[:, ::-1]
    seqs = np.array([(0,) + rest for rest in itertools.permutations(range(1, n))])
    best_cost = np.inf
    best_key = None
    for s in _blocks(len(seqs), n << n):
        costs = weighted_tour_costs(inst.D, *_oriented_rows(inst, seqs[s, None], orients))
        i, o = divmod(int(np.argmin(costs)), len(orients))  # first minimum = smallest key
        if costs[i, o] < best_cost:  # a later block must be strictly better
            best_cost = float(costs[i, o])
            best_key = (tuple(int(x) for x in seqs[s][i]), tuple(int(x) for x in orients[o]))
    order = AprioriOrder(best_key[0], best_key[1])
    return SolveResult(
        order=order,
        cost=ExpectedCost(value=best_cost, method=CLOSED_FORM),
        evaluations=len(seqs) * len(orients),
        wall_time=time.perf_counter() - t0,
    )


def nearest_neighbor(inst: SimplifiedInstance, start_edge: int = 0) -> AprioriOrder:
    """Greedy chain: from the current head, enter the unvisited edge with the
    closest endpoint; that endpoint becomes its tail. Smallest-index ties."""
    n = inst.n
    if not 0 <= start_edge < n:
        raise ValueError("start_edge out of range")
    D = inst.D
    seq = [start_edge]
    orient = [0]
    head = inst.R[start_edge][1]
    remaining = [i for i in range(n) if i != start_edge]
    while remaining:
        best = None
        for i in remaining:
            u, v = inst.R[i]
            for o, tail in ((0, u), (1, v)):
                key = (D[head, tail], i, o)
                if best is None or key < best:
                    best = key
        _, i, o = best
        remaining.remove(i)
        seq.append(i)
        orient.append(o)
        u, v = inst.R[i]
        head = u if o else v
    return canonicalize(AprioriOrder(tuple(seq), tuple(orient)))


def _moved(seq: np.ndarray, orient: np.ndarray, i: np.ndarray, j: np.ndarray):
    """(sequence, orientation) rows, one per move: positions i..j reversed and
    their orientations flipped. i == j is a single orientation flip."""
    pos = np.arange(len(seq))
    i, j = i[:, None], j[:, None]
    inside = (i <= pos) & (pos <= j)
    src = np.where(inside, i + j - pos, pos)
    return seq[src], orient[src] ^ inside


def local_search(inst: SimplifiedInstance, init: AprioriOrder, budget: int = 1_000_000) -> SolveResult:
    """Best-improvement descent over the 2-opt + orientation-flip neighborhood.

    A sweep scores all single flips, then the 2-opt moves (i, j) in
    lexicographic order (except (0, n-1), which only relabels the cycle), and
    moves to the first neighbor of least cost if it is strictly better.
    Stops at a local optimum or when `budget` cost evaluations are spent.
    Never returns a cost worse than the initial solution.
    """
    t0 = time.perf_counter()
    current = canonicalize(init)
    cost = expected_cost_closed_form(current, inst).value
    evaluations = 1
    n = inst.n
    pi, pj = np.triu_indices(n, 1)
    keep = (pi != 0) | (pj != n - 1)
    move_i = np.concatenate([np.arange(n), pi[keep]])
    move_j = np.concatenate([np.arange(n), pj[keep]])
    improved = True
    while improved and evaluations < budget:
        seq = np.asarray(current.sequence)
        orient = np.asarray(current.orient)
        k = min(len(move_i), budget - evaluations)
        costs = np.empty(k)
        for s in _blocks(k, n):
            rows = _moved(seq, orient, move_i[s], move_j[s])
            costs[s] = weighted_tour_costs(inst.D, *_oriented_rows(inst, *rows))
        evaluations += k
        costs[~(costs < cost)] = np.inf  # only strict improvements compete; NaN never wins
        best = int(np.argmin(costs))
        improved = bool(costs[best] < cost)
        if improved:
            s2, o2 = _moved(seq, orient, move_i[best : best + 1], move_j[best : best + 1])
            current = canonicalize(AprioriOrder(s2[0], o2[0]))
            cost = expected_cost_closed_form(current, inst).value
    return SolveResult(
        order=current,
        cost=ExpectedCost(value=cost, method=CLOSED_FORM),
        evaluations=evaluations,
        wall_time=time.perf_counter() - t0,
    )


def brute_force_tsp(C: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exact TSP by permutation enumeration with city 0 fixed.

    Returns (tour, cost); ties go to the lexicographically smallest tour.
    """
    C = np.asarray(C, dtype=float)
    m = C.shape[0]
    if m > 10:
        raise ValueError("TSP enumeration limited to 10 cities, got %d" % m)
    best_cost = np.inf
    best_tour = None
    for rest in itertools.permutations(range(1, m)):
        tour = (0,) + rest
        cost = sum(C[tour[i], tour[(i + 1) % m]] for i in range(m))
        if cost < best_cost or (cost == best_cost and tour < best_tour):
            best_cost = cost
            best_tour = tour
    return best_tour, float(best_cost)
