"""Cost semantics: scenario cost and the three expected-cost evaluators.

The a-posteriori tour serves the edges that need service in the a priori
cyclic order, travels between them along matrix distances, and skips the
rest. One scenario's cost is an O(n) walk over the served positions.
Expected cost is computed three ways: an O(n^2) closed form, exhaustive
scenario enumeration (the ground-truth oracle), and seeded Monte Carlo;
the last two average scenario costs and share no cost kernel with the
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms
from .core import (AprioriOrder, EulerianTour, OriginalInstance, Scenario, SimplifiedInstance, induced_order,
                   step_endpoints)
from .graph import Multigraph, all_pairs_shortest_paths

ENUMERATION_GUARD = 20
# Cells (rows x row width) per batched call, and (rows x shifts x row width) per
# block of the kernel's shifts: each temporary of a block is at most 1 MB and
# stays in cache, whatever the number of samples, scenarios, candidates or
# positions; larger blocks were never faster.
BATCH_CELLS = 1 << 17

CLOSED_FORM = "closed_form"
ENUMERATION = "enumeration"
MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class ExpectedCost:
    value: float
    method: str
    stderr: float = 0.0


def _blocks(rows: int, width: int):
    """Slices that cover range(rows) in blocks of at most BATCH_CELLS // width
    rows, and at least one row."""
    step = max(1, BATCH_CELLS // width)
    return (slice(lo, min(rows, lo + step)) for lo in range(0, rows, step))


def _oriented_rows(inst: SimplifiedInstance, seqs, orients):
    """Tail vertex, head vertex and service probability at each position.

    `seqs` and `orients` are (sequence, orientation) rows: 1-D for one order
    or 2-D (rows, n) for a batch; the three results have the same shape.
    """
    seqs = np.asarray(seqs, dtype=int)
    flip = np.asarray(orients, dtype=bool)
    ends = np.asarray(inst.R, dtype=int)[seqs]
    a = np.where(flip, ends[..., 1], ends[..., 0])
    b = np.where(flip, ends[..., 0], ends[..., 1])
    return a, b, inst.p[seqs]


def _order_rows(order: AprioriOrder, inst: SimplifiedInstance):
    """`_oriented_rows` of one order, after checking it against the instance."""
    if inst.n == 0:
        raise ValueError("instance has no required edges")
    if order.n != inst.n:
        raise ValueError("order size %d != instance |R| = %d" % (order.n, inst.n))
    if sorted(order.sequence) != list(range(inst.n)):
        raise ValueError("order sequence is not a permutation of 0..n-1")
    return _oriented_rows(inst, order.sequence, order.orient)


def _shifts(x: np.ndarray, s: slice) -> np.ndarray:
    """View [..., j, i] = x[..., t + i], t = s.start + 1 + j, of C-contiguous
    doubled rows x, shaped (..., 2n): the rows shifted left by each shift t
    of the block s, with no copy."""
    return np.ndarray(x.shape[:-1] + (s.stop - s.start, x.shape[-1] // 2), x.dtype, x, x.itemsize * (1 + s.start),
                      x.strides + (x.itemsize,))


def weighted_tour_costs(D: np.ndarray, a: np.ndarray, b: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Expected tour cost of probability rows, in O(n^2) per row.

    `a`, `b` hold tail/head vertex ids per cyclic position and `W` the
    per-position service probabilities, each shaped (n,) or (..., n) with
    leading shapes that broadcast. The cost sums, by linearity, over the
    events "position i served, next served is i+t". The closed form uses it,
    and both searches settle their near-minimum candidates with it; 0/1
    scenario rows go to `scenario_costs`.

    Shift t sums its pair terms ((w_i * w_(i+t)) * run) * D over the n
    positions with `.sum(axis=-1)` (numpy's pairwise sum), run being the run
    product of shift t - 1 times its factor, and the shift sums are added to
    the cost in shift order. The shifts go in `_blocks` of at most
    BATCH_CELLS cells (all of them for one order up to n = 362): the shifted
    rows are views of the doubled rows, and one `cumprod` from the previous
    block's run product and one `cumsum` from its cost keep that order, so
    the blocks do not change a bit.
    """
    W = np.atleast_2d(np.ascontiguousarray(W, dtype=float))
    n = W.shape[-1]
    cost = (W * D[a, b]).sum(axis=-1)
    # C-order rows concatenated with themselves: [..., t:t + n] is the row shifted left by t
    W2 = np.concatenate([W, W], axis=-1)
    a2 = np.ascontiguousarray(np.concatenate([a, a], axis=-1))
    q2 = 1.0 - W2
    run = np.ones_like(W)  # probability that no position strictly between i and i + t is served
    for s in _blocks(n - 1, max(1, cost.size * n)):  # cells of one shift: the rows, broadcast, times their width
        runs = np.cumprod(np.concatenate([run[..., None, :], _shifts(q2, s)], axis=-2), axis=-2)
        S = (W[..., None, :] * _shifts(W2, s) * runs[..., :-1, :]
             * D[b[..., None, :], _shifts(a2, s)]).sum(axis=-1)
        S[..., 0] += cost
        cost = np.cumsum(S, axis=-1, out=S)[..., -1]
        run = runs[..., -1, :]
    # wrap term: position i served and nothing else is
    return cost + (W * run * D[b, a]).sum(axis=-1)


def _step_table(D: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cost of every step of one order, flat, n^2 + 1 floats.

    `a`, `b` hold the tail/head vertex ids of the order, shaped (n,). Entry
    i*n + j is D[a_i, b_i] + D[b_i, a_j]: the service of position i and the
    hop from its head to the tail of position j. The last entry, 0.0, scores
    an unserved position.
    """
    return np.append((D[a, b][:, None] + D[b[:, None], a]).ravel(), 0.0)


def scenario_costs(step: np.ndarray, served: np.ndarray) -> np.ndarray:
    """Tour length of each 0/1 service scenario, in O(n) per scenario.

    `step` is the `_step_table` of one order; `served` is a bool array
    (n, scenarios), position-major, in the same position order. Each served
    position adds its service term and the hop from its head to the tail of
    the next served position, wrapping to the scenario's first; a lone
    served edge hops back to its own tail, an empty scenario is 0.
    """
    n = served.shape[0]
    # int32 positions: the largest index, n*n, fits for n <= 46,340, where D
    # (2n x 2n) would already hold 8.6e9 cells. Masks enter as 0/1 factors, not
    # `where`, which runs several times slower on a broadcast position column.
    pos = np.arange(n, dtype=np.int32)[:, None]
    # first served position at or after each position, n if there is none
    nxt = pos + (n - pos) * ~served
    np.minimum.accumulate(nxt[::-1], axis=0, out=nxt[::-1])
    # next served position after each, wrapping to the scenario's first
    succ = np.concatenate([nxt[1:], nxt[:1]])
    succ += (nxt[:1] - n) * (succ == n)
    hops = step.take((succ + (pos * n - n * n)) * served + n * n)
    # each scenario's terms summed as one contiguous row, in position order
    return np.ascontiguousarray(hops.T).sum(axis=1)


def aposteriori_cost(order: AprioriOrder, s: Scenario, inst: SimplifiedInstance) -> float:
    """Tour length actually driven for one realization."""
    if len(s.served) != inst.n:
        raise ValueError("scenario size %d != instance |R| = %d" % (len(s.served), inst.n))
    a, b, _ = _order_rows(order, inst)
    served = np.asarray(s.served, dtype=bool)[list(order.sequence)]
    return float(scenario_costs(_step_table(inst.D, a, b), served[:, None])[0])


def expected_cost_closed_form(order: AprioriOrder, inst: SimplifiedInstance) -> ExpectedCost:
    """O(n^2) expected cost from per-position service and skip probabilities."""
    value = float(weighted_tour_costs(inst.D, *_order_rows(order, inst))[0])
    return ExpectedCost(value=value, method=CLOSED_FORM)


def scenario_matrix(n: int) -> np.ndarray:
    """All 2^n served indicators as a C-contiguous bool matrix; the row of
    scenario k holds the bits of k, position i = bit i."""
    return np.arange(1 << n)[:, None] >> np.arange(n) & 1 == 1


def _enumerated_scenarios(step: np.ndarray, p: np.ndarray):
    """Probability and tour length of every 0/1 service scenario of one order.

    `step` is the order's `_step_table` and `p` its per-position service
    probabilities. Scenario k serves the positions of the set bits of k. The
    scenarios are built by doubling, in O(1) each: k + 2^i extends k < 2^i
    by serving position i. Each carries its first and last served position
    and the sum of its closed terms, in position order; serving i closes the
    term of the last position, and the wrap from the last served position to
    the first closes a nonempty scenario. Besides the two 2^n float results
    and the 2^n one-byte first and last positions, every temporary holds at
    most `BATCH_CELLS` cells.
    """
    n = len(p)
    step = step[:-1].reshape(n, n)
    probs = np.ones(1 << n)
    costs = np.zeros(1 << n)
    first = np.zeros(1 << n, dtype=np.min_scalar_type(n))
    last = np.zeros_like(first)
    for i, q in enumerate(p):  # after position i, index k < 2^(i+1) holds P(bits 0..i of k)
        h = 1 << i
        for s in _blocks(h, 1):
            t = slice(s.start + h, s.stop + h)
            np.multiply(probs[s], q, out=probs[t])
            probs[s] *= 1.0 - q
            np.add(costs[s], step[last[s], i], out=costs[t])
            first[t] = first[s]
        # the scenario that serves position i alone has no closed term yet
        costs[h], first[h] = 0.0, i
        last[h : h << 1] = i
    for s in _blocks(1 << n, 1):
        costs[s] += step[last[s], first[s]]
    costs[0] = 0.0  # nothing served
    return probs, costs


def expected_cost_enumeration(
    order: AprioriOrder, inst: SimplifiedInstance, max_n: int = ENUMERATION_GUARD
) -> ExpectedCost:
    """Ground truth: sum of probability-weighted costs over all 2^n scenarios,
    each built in O(1) time and about 18 bytes by `_enumerated_scenarios`."""
    n = inst.n
    if n > max_n:
        raise ValueError("enumeration over 2^%d scenarios exceeds the guard n <= %d" % (n, max_n))
    a, b, p = _order_rows(order, inst)
    probs, costs = _enumerated_scenarios(_step_table(inst.D, a, b), p)
    # numpy's pairwise sum: its order, unlike a BLAS dot's, does not depend on the CPU or thread count
    return ExpectedCost(value=float(np.multiply(probs, costs, out=probs).sum()), method=ENUMERATION)


def expected_cost_monte_carlo(
    order: AprioriOrder, inst: SimplifiedInstance, samples: int, seed: int
) -> ExpectedCost:
    """Sample mean of the scenario cost; reproducible for a fixed seed."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    a, b, p = _order_rows(order, inst)
    step = _step_table(inst.D, a, b)
    rng = np.random.default_rng(seed)
    costs = np.empty(samples)
    for s in _blocks(samples, len(p)):
        costs[s] = scenario_costs(step, (rng.random((s.stop - s.start, len(p))) < p).T)
    # a degenerate draw, a single sample included: exact value, no error
    if np.ptp(costs) == 0.0:
        return ExpectedCost(value=float(costs[0]), method=MONTE_CARLO, stderr=0.0)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / np.sqrt(samples))
    return ExpectedCost(value=mean, method=MONTE_CARLO, stderr=stderr)


def _composed_costs(inst: OriginalInstance, epsilon: float | None = None):
    """`expected_cost_original` of one instance as a function of the tour's
    induced order, with the instance simplified once."""
    simp, _ = transforms.simplify(inst, epsilon=epsilon)

    def score(order: AprioriOrder) -> ExpectedCost:
        return expected_cost_closed_form(transforms.attach_depot_edge(order, inst.n), simp)

    return score


def expected_cost_original(tour: EulerianTour, inst: OriginalInstance, epsilon: float | None = None) -> ExpectedCost:
    """Expected cost of an Eulerian tour, via the simplified composition.

    Simplifies the instance, maps the tour to its induced order (with the
    depot edge prepended) and evaluates it in closed form. The depot edge
    contributes at most 2*epsilon to the value.
    """
    return _composed_costs(inst, epsilon)(induced_order(tour, inst))


def _direct_costs(inst: OriginalInstance):
    """`expected_cost_original_direct` of one instance as a function of the
    tour's induced order, with its shortest paths computed once."""
    n = inst.n
    if n > ENUMERATION_GUARD:
        raise ValueError("enumeration over 2^%d scenarios exceeds the guard n <= %d" % (n, ENUMERATION_GUARD))
    g = Multigraph.from_instance(inst)
    sp = all_pairs_shortest_paths(g, inst.dist).tolist()
    depot = g.index(inst.depot)
    p = np.asarray(inst.prob)
    # the scenarios of positive probability, each with its probability
    scenarios = [(S, pr) for S in scenario_matrix(n) if (pr := float(np.prod(np.where(S, p, 1.0 - p)))) > 0.0]

    def score(order: AprioriOrder) -> ExpectedCost:
        stops = []  # (required index, tail, head, service length) in tour order; vertices as sp indices
        for k, d in zip(order.sequence, order.orient):
            tail, head = step_endpoints((inst.required[k], d), inst.edges)
            stops.append((k, g.index(tail), g.index(head), inst.dist[inst.required[k]]))
        total = 0.0
        for S, pr in scenarios:
            cost, here = 0.0, depot
            for k, tail, head, length in stops:
                if S[k]:
                    cost += sp[here][tail]
                    cost += length
                    here = head
            total += pr * (cost + sp[here][depot])
        return ExpectedCost(value=total, method=ENUMERATION)

    return score


def expected_cost_original_direct(tour: EulerianTour, inst: OriginalInstance) -> ExpectedCost:
    """Oracle expectation over all 2^n scenarios, independent of the simplification.

    Each scenario walks the tour on the original graph: it serves its realized
    required edges along the edges themselves in tour order and connects
    depot -> first edge, edge -> edge and last edge -> depot via shortest
    paths. Used as the oracle for the simplified composition.
    """
    return _direct_costs(inst)(induced_order(tour, inst))
