"""Solvers over the order/orientation solution space: exhaustive search for
small instances, a greedy constructor and 2-opt local search for larger ones,
plus a small exact TSP solver used to certify the reduction gadget."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import AprioriOrder, SimplifiedInstance, canonicalize, matrix_violations
from .evaluate import CLOSED_FORM, ExpectedCost, _blocks, _oriented_rows, expected_cost_closed_form
from .evaluate import scenario_matrix, weighted_tour_costs

BRUTE_FORCE_GUARD = 9
TSP_GUARD = 10  # cities of brute_force_tsp, and of verify's bijection suite


@dataclass(frozen=True)
class SolveResult:
    order: AprioriOrder
    cost: ExpectedCost
    evaluations: int
    wall_time: float
    sweeps: int = 0  # neighborhood sweeps of local search
    stop: str = "exhaustive"  # local search: "local_optimum" or "budget"
    settles: int = 0  # local search: sweeps whose move the kernel had to pick


def _orientation_costs(hop: np.ndarray, p: np.ndarray, orients: np.ndarray):
    """Scorer of sequence blocks: (k, n) sequences -> (k, len(orients)) hop
    sums. Column x holds the edge orientations x, so position i of sequence s
    takes orientation x[s_i].

    In edge terms the closed form (Jaillet's a priori sum) is c(x) +
    sum_{e != f} H_s(e, f) * hop[e, f, x_e, x_f]. The hop weight H_s(e, f) =
    p_e * p_f * prod(1 - p_g), over the edges g strictly between e and f in s,
    holds all that depends on the sequence; the service and wrap terms c(x)
    depend on no sequence and, D being symmetric, on no orientation, so they
    are left out. A block's hop sums are H @ M, M[(e, f), x] gathered once.
    """
    n = len(p)
    x = np.asarray(orients, dtype=int).T  # x[e, k]: orientation of edge e in column k
    e = np.arange(n)
    M = hop[e[:, None, None], e[:, None], x[:, None], x].reshape(n * n, -1)  # row e*n + f
    shift = (e + e[:, None]) % n  # shift[t, i] = i + t, cyclic

    def score(seqs: np.ndarray) -> np.ndarray:
        S = seqs[:, shift]  # S[:, t, i]: the edge t positions after position i
        W = p[seqs][:, shift]  # p[S], from one gather of n values a row
        q = 1.0 - W
        # run[:, t - 1, i]: probability that nothing strictly between positions i and i + t is served, a
        # running product over shifts: numpy's cumprod along this middle axis runs one cell at a time
        run = np.ones_like(W[:, 1:])
        for t in range(1, n - 1):
            np.multiply(run[:, t - 1], q[:, t], out=run[:, t])
        H = np.zeros((len(seqs), n, n))
        H[np.arange(len(seqs))[:, None, None], S[:, :1], S[:, 1:]] = W[:, :1] * W[:, 1:] * run
        return H.reshape(len(seqs), n * n) @ M

    return score


def _rounding_bound(n: int, M: np.ndarray) -> float:
    """Bound b on |estimate - (settled value - C)| for every candidate of an
    exact search over n items with distances M, C one constant per search:
    local search's `_reversal_deltas` (C: the current cost), the screen's
    `_orientation_costs` and the Held-Karp prefix-plus-completion sums (C:
    the service and wrap terms).

    Every search keeps the candidates within 3b of its least estimate. A
    candidate that ties the least settled value V estimates at most
    V - C + b, b/16 more when the screen estimates its mirror (two kernel
    values of one exact sum), and a Held-Karp prefix takes the least of its
    completions, no more than the tie's own; no estimate is below V - C - b.
    So every tie lies within 2b + b/16 < 3b of the least estimate. The
    screen keeps a row when the representative of its mirror pair has an
    estimate within the window, then each (sequence, orientation) pair of
    that row by the pair's own estimate: a tie's own is at most V - C + b, so
    both steps keep it. Held-Karp keeps a row by the least estimate over its
    orientations and settles the row in every orientation. The bound also
    decides a local-search sweep whose least delta lies beyond +-b: above
    b every move costs more than the current order, and below -b a move that
    is alone in the window costs less, so the kernel settles neither.

    With u = 2^-53 and M read as max|M|, every value is a sum of products of
    probabilities with distances. A position's weights total at most 2 (its
    service weight, then hop and wrap weights that split its own probability),
    so the absolute terms of one tour total at most 2nM; local search's
    crossing terms are pair terms of two tours, at most 2nM. A term of the
    kernel passes through at most 4n + 3 roundings (run products of up to n - 1
    factors of 1 - w, then n positions and n shifts summed). A term of the
    local screen (`_crossing_deltas`, from outside position x to segment
    position y) passes through at most 3n + 6, whatever order its sums take: no term of a sum of n terms meets more than n - 1
    additions in any summation tree, BLAS blocking and threads included, and a
    fused multiply-add rounds once where two operations would round twice. Its
    skip products span disjoint sets of positions other than x and y, at most
    n roundings in all; the x-sum (a product with D or a suffix sum) and the
    y-sum (a product with the segment weights or a cumulative sum) at most
    n - 1 each; the products that form w_x*G and the segment weights w_y*Q,
    then those with D, the segment weights and the row factor skip[0, i], at
    most 5; the four-part combination and the sum of both directions 3. Two
    kernel values and one screen thus differ by at most
    (22n^2 + 24n)uM <= 64n^2*uM, an eighth of the bound, for every n. Brute
    force's hop weights are products of at most n factors, and H @ M sums
    n(n - 1) hop terms, so a term passes through at most n^2 + n roundings:
    about 2n^3*uM, and (2n^3 + 10n^2 + 6n)uM with the kernel's, which holds
    its rounding of the service and wrap terms the screen leaves out: within
    the bound for n <= 250, far past the n at which (n-1)!*2^n candidates can
    be enumerated. Two kernel values of one exact sum differ by at most
    2(8n^2 + 6n)uM <= 28n^2*uM, and a Held-Karp sum is within n^2*uM of
    exact. The bound scales with M, so a rescaled instance keeps the same
    candidates.
    """
    return n**2 * float(np.abs(M).max()) * 2.0**-44


def _least(inst: SimplifiedInstance, pairs) -> tuple[float, np.ndarray, np.ndarray]:
    """(cost, sequence, orient) of the first least `weighted_tour_costs` value
    over blocks of screened candidates, each (k, n) sequences with their (k, n)
    orientations in the caller's order, settled in calls of at most
    BATCH_CELLS cells. A NaN never wins; no value below inf, or no candidate
    at all, raises ValueError. Every caller's window holds each candidate
    that ties (`_rounding_bound`).
    """
    cost, seq, orient = np.inf, None, None
    for seqs, orients in pairs:
        for s in _blocks(len(seqs), seqs.shape[1]):
            costs = weighted_tour_costs(inst.D, *_oriented_rows(inst, seqs[s], orients[s]))
            i = int(np.argmin(np.where(costs < cost, costs, np.inf)))  # earlier ties and NaN lose
            if costs[i] < cost:
                cost, seq, orient = float(costs[i]), seqs[s][i], orients[s][i]
    if seq is None:
        raise ValueError("no candidate has a cost below inf")
    return cost, seq, orient


def _permutation_rows(m: int) -> np.ndarray:
    """The rows (0,) + rest for every permutation `rest` of 1..m-1, in
    lexicographic order, as an (m-1)! x m int8 array: the order of
    `itertools.permutations(range(1, m))`."""
    perms = np.zeros((1, 0), dtype=np.int8)  # the permutations of range(k), lexicographic, from k = 0
    for k in range(1, m):
        # first element f, then the permutations of range(k - 1) with every value >= f raised by one
        first = np.repeat(np.arange(k, dtype=np.int8), len(perms))[:, None]
        rest = np.tile(perms, (k, 1))
        perms = np.hstack([first, rest + (rest >= first)])
    return np.hstack([np.zeros((len(perms), 1), dtype=np.int8), perms + 1])


def _screened_pairs(inst: SimplifiedInstance, hop: np.ndarray, orients: np.ndarray):
    """Blocks of the screen's near (sequence, orientation) pairs, each sorted.

    The representatives (0, s_1, ..., s_(n-1)) with s_1 < s_(n-1) are
    screened in blocks, over all the given orientations at once, by
    `_orientation_costs`. Those with an orientation within the window of
    `_rounding_bound` of the least hop sum, and their mirrors, are the near
    rows. Block by block these are screened again, and their pairs within
    the window are yielded in lexicographic order, column x of edge
    orientations read as the position orientations x[s_i].
    """
    n = len(inst.p)
    reps = _permutation_rows(n)
    mirror = np.r_[0, n - 1 : 0 : -1]  # columns of the mirror sequence
    if n >= 3:  # for n <= 2 every sequence is its own mirror
        reps = reps[reps[:, 1] < reps[:, -1]]
    score = _orientation_costs(hop, inst.p, orients)
    least = np.concatenate([score(reps[s]).min(axis=1) for s in _blocks(len(reps), n << n)])
    window = least.min() + 3.0 * _rounding_bound(n, hop)
    near = reps[least <= window]
    rows = np.unique(np.concatenate([near, near[:, mirror]]), axis=0)
    place = 1 << np.arange(n)[::-1]  # position 0 as the high bit, as in the rows of `orients`
    for s in _blocks(len(rows), n << n):
        k, x = np.nonzero(score(rows[s]) <= window)
        pos = orients[x[:, None], rows[s][k]]  # pos[j, i]: orientation of edge s_i in column x_j
        pairs = np.lexsort((pos @ place, k))
        yield rows[s][k[pairs]], pos[pairs]


def _held_karp_rows(hop: np.ndarray) -> np.ndarray:
    """Near rows of a closed tour through items 0..m, m >= 2, in lexicographic
    order: every sequence (0, s_1, ..., s_m) with some orientation whose hop
    sum comes within the window (`_rounding_bound`) of the least tour V*.

    hop[e, f, o, of] is the step from item e in orientation o to item f in
    orientation of, with r = hop.shape[2] orientations per item: 2 for the
    edges of an every-p-is-1 instance, 1 for edges whose hops no orientation
    changes. F[mask, j, o0, o] is the least hop sum of a path from item 0 in
    orientation o0 through the items of `mask` (bit j for item j + 1), ending
    at item j + 1 in orientation o (Held & Karp 1962). The table must read
    the same reversed, hop[e, f, o, of] == hop[f, e, r-1-of, r-1-o], as a
    symmetric D makes it: then a path driven backwards with every orientation
    flipped has the same hops, so the least completion of a prefix that ends
    at item j + 1 in o, back to item 0 in o0 through the unplaced items, is
    F[unplaced | j, j, r-1-o0, r-1-o], with no second table. A search extends
    every prefix by one unplaced item at a time and keeps those whose least
    prefix + completion, over the orientations of its first and last item, is
    within the window of V*.
    """
    m, r = len(hop) - 1, hop.shape[2]
    bit = 1 << np.arange(m)
    full = (1 << m) - 1
    F = np.full((1 << m, m, r, r), np.inf)  # inf where j + 1 is not in mask
    F[bit, np.arange(m)] = hop[0, 1:]
    step = hop[1:, 1:].swapaxes(0, 1)  # step[j, i, oi, oj]: item i + 1 to item j + 1
    count = ((np.arange(1 << m)[:, None] & bit) > 0).sum(axis=1)
    for c in range(2, m + 1):
        masks = np.flatnonzero(count == c)
        prev = F[masks[:, None] ^ bit]  # [k, j, i, o0, oi]: paths to item i + 1 that lack item j + 1
        F[masks] = (prev[..., None] + step[:, :, None]).min(axis=(2, 4))
    back = F[:, :, ::-1, ::-1]  # completions: paths read backwards, orientations flipped
    bound = (F[full] + back[bit, np.arange(m)]).min() + 3.0 * _rounding_bound(len(hop), hop)  # back[bit]: closing hop
    seqs, placed = np.zeros((1, 1), dtype=int), np.zeros(1, dtype=int)
    G = np.where(np.eye(r, dtype=bool), 0.0, np.inf)[None]  # G[k, o0, o]: least hop sum of prefix k, ending in o
    for _ in range(m):
        # prefixes in lexicographic order, each extended by an unplaced item j + 1 in item order: the rows stay sorted
        k, j = np.nonzero((placed[:, None] & bit) == 0)
        grown = (G[k, :, :, None] + hop[seqs[k, -1], j + 1, None]).min(axis=2)  # [k, o0, oj]: then item j + 1 in oj
        masks = placed[k] | bit[j]
        keep = (grown + back[(full ^ masks) | bit[j], j]).min(axis=(1, 2)) <= bound
        seqs = np.hstack([seqs[k[keep]], j[keep, None] + 1])
        placed, G = masks[keep], grown[keep]
    return seqs


def brute_force(inst: SimplifiedInstance, max_n: int = BRUTE_FORCE_GUARD) -> SolveResult:
    """Global minimum over all canonical cyclic orders and orientations.

    Edge 0 is fixed at position 0 (rotation symmetry), leaving
    (n-1)! * 2^n candidates: every sequence times every orientation.
    `evaluations` counts them all, as the candidates certified, though far
    fewer reach the kernel. D must be symmetric: then a sequence
    (0, s_1, ..., s_(n-1)) and its mirror (0, s_(n-1), ..., s_1), with every
    orientation flipped, are one cycle driven both ways at the same cost.

    A producer yields every candidate that may tie the least kernel value
    (the window of `_rounding_bound`) in sorted blocks of (sequence,
    orientation) pairs. `_least` re-scores them with `weighted_tour_costs`,
    so the result does not depend on the producer. Exact-cost ties of that
    kernel go to the lexicographically smallest (sequence, orient). When no hop
    D[head_e, tail_f], e != f, depends on the orientations (a `tsp_to_setp`
    gadget), no kernel operand does, D being symmetric: every orientation of
    a sequence scores the same float, so orientation 0 wins, and it is the
    only one screened and settled. The producer depends on p:
    - every p = 0, D finite: every kernel value is exactly 0.0, so the first
      candidate wins: the identity sequence in orientation 0 is the one pair;
    - every p = 1, n >= 3 (the TSP gadget): `_held_karp_rows` in O(2^n n^2),
      each row paired with every orientation, row by row;
    - otherwise `_screened_pairs`: the representatives with s_1 < s_(n-1),
      in blocks, each scored over all orientations at once by one product of
      its hop weights with the hop table (`_orientation_costs`); then only the
      near (sequence, orientation) pairs, each kept by its own screen, are
      settled.
    """
    n = inst.n
    if n > max_n:
        raise ValueError("brute force over (n-1)!*2^n candidates exceeds the guard n <= %d" % max_n)
    if n == 0:
        raise ValueError("brute force needs at least one required edge")
    if not np.array_equal(inst.D, inst.D.T):
        raise ValueError("brute force needs a symmetric distance matrix")
    t0 = time.perf_counter()
    # position 0 as the high bit: orientation rows in lexicographic order
    orients = scenario_matrix(n)[:, ::-1]
    tails, heads, _ = _oriented_rows(inst, np.arange(n)[:, None], [False, True])  # [e, o]: edge e in orientation o
    hop = inst.D[heads[:, None, :, None], tails[:, None, :]]  # hop[e, f, o, of]: edge e in o to edge f in of
    between = hop[~np.eye(n, dtype=bool)]
    if (between == between[:, :1, :1]).all():
        hop, orients = hop[:, :, :1, :1], orients[:1]
    if not inst.p.any() and np.isfinite(inst.D).all():
        pairs = [(np.arange(n)[None], orients[:1])]
    elif n >= 3 and (inst.p == 1.0).all():
        rows = _held_karp_rows(hop)
        pairs = ((np.repeat(rows[s], len(orients), axis=0), np.tile(orients, (s.stop - s.start, 1)))
                 for s in _blocks(len(rows), orients.size))
    else:
        pairs = _screened_pairs(inst, hop, orients)
    cost, seq, orient = _least(inst, pairs)
    return SolveResult(
        order=AprioriOrder(tuple(int(x) for x in seq), tuple(int(x) for x in orient)),
        cost=ExpectedCost(value=cost, method=CLOSED_FORM),
        evaluations=math.factorial(n - 1) << n,
        wall_time=time.perf_counter() - t0,
    )


def nearest_neighbor(inst: SimplifiedInstance, start_edge: int = 0) -> AprioriOrder:
    """Greedy chain: from the current head, enter the unvisited edge with the
    closest endpoint; that endpoint becomes its tail. Smallest-index ties."""
    n = inst.n
    if not 0 <= start_edge < n:
        raise ValueError("start_edge out of range")
    tails, heads, _ = _oriented_rows(inst, np.arange(n)[:, None], [False, True])  # [e, o]: edge e in orientation o
    free = np.ones(n, dtype=bool)
    free[start_edge] = False
    seq = [start_edge]
    orient = [0]
    head = heads[start_edge, 0]
    for _ in range(n - 1):
        left = np.flatnonzero(free)
        # (edge, orientation) rows in index order: the first minimum breaks ties as (D, i, o)
        k, o = divmod(int(np.argmin(inst.D[head, tails[left]])), 2)
        i = int(left[k])
        free[i] = False
        seq.append(i)
        orient.append(o)
        head = heads[i, o]
    return canonicalize(AprioriOrder(tuple(seq), tuple(orient)))


def _moved(seq: np.ndarray, orient: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Canonical (sequence, orientation) rows, one per move: positions i..j
    reversed and their orientations flipped, and rotated by j when i == 0, so
    that the edge at position 0 stays first. i == j is an orientation flip."""
    i, j = i[:, None], j[:, None]
    pos = (np.arange(len(seq)) + np.where(i == 0, j, 0)) % len(seq)
    inside = (i <= pos) & (pos <= j)
    src = np.where(inside, i + j - pos, pos)
    return seq[src], orient[src] ^ inside


def _crossing_deltas(D: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """T[i, j]: change of the pair terms from the positions outside the
    segment i..j into it when that segment is reversed and flipped; 0 for
    i > j.

    For an outside position x and a segment position y, the term x -> y goes
    from G(x->i)*Q(i..y-1)*D[b_x, a_y] to G(x->i)*Q(y+1..j)*D[b_x, b_y],
    times w_x*w_y, where G and Q are the probabilities that no position
    strictly between x and i, or in the range named, is served. Every O(n^3)
    sum is a product of n x n matrices, and the screen holds O(n^2) floats:
    - x < i: G = skip[x+1, i], so into[i, x] = w_x*G sums x by `into @ hop`,
      hop[x] holding D[b_x, b_y] and D[b_x, a_y]. The new terms then sum y by
      a product with new[j, y] = w_y*Q(y+1..j), the old ones by a cumulative
      sum over y of their product with old[i, y] = w_y*Q(i..y-1).
    - x > j: G = skip[x+1, n]*skip[0, i] factors, so x sums as a suffix sum
      of w_x*skip[x+1, n]*hop[x] (`after`), and skip[0, i] multiplies row i.
      The new terms then sum y by a cumulative sum, the old ones by a product
      with `old`.
    """
    n = len(w)
    q = 1.0 - w
    y = np.arange(n + 1)
    upper = y >= y[:, None]  # upper[u, v]: v >= u, the mask of np.triu
    inner = upper[:n, :n]
    # skip[u, v]: probability that none of positions u..v-1 is served, 0 if v < u
    skip = upper.astype(float)
    skip[:n, 1:] *= np.cumprod(np.where(inner, q, 1.0), axis=1)
    into = skip[1:, :n].T * w  # into[i, x] = w_x*G(x->i), 0 unless x < i
    new = skip[1:, 1:].T * w  # new[j, y] = w_y*Q(y+1..j), 0 unless y <= j
    old = skip[:n, :n] * w  # old[i, y] = w_y*Q(i..y-1), 0 unless y >= i
    hop = D[b[:, None], np.concatenate([b, a])]  # [x, y]: D[b_x, b_y], then [x, n + y]: D[b_x, a_y]
    before = into @ hop  # [i, y]: sum over x < i
    del into  # each n x n temporary goes at its last use, and the sums run in place
    after = np.zeros((n, 2 * n))  # [j, y]: sum over x > j of w_x*skip[x+1, n]*hop[x, y]
    tail = after[-2::-1]  # tail[k] sums x = n-1 down to n-1-k
    np.multiply((w * skip[1:, n])[:0:-1, None], hop[:0:-1], out=tail)
    del hop
    np.cumsum(tail, axis=0, out=tail)
    T = np.where(inner, before[:, :n], 0.0) @ new.T
    terms = before[:, n:]  # the old terms, summed over y in place
    np.multiply(terms, old, out=terms)
    T -= np.cumsum(terms, axis=1, out=terms)
    del before, terms
    suffix = after[:, n - 1 :: -1]  # so after[j, i] becomes the sum over y >= i
    np.multiply(new[:, ::-1], suffix, out=suffix)
    np.cumsum(suffix, axis=1, out=suffix)
    T += skip[0, :n, None] * (after[:, :n].T - old @ np.where(inner.T, after[:, n:], 0.0).T)
    return T


def _reversal_deltas(inst: SimplifiedInstance, seq: np.ndarray, orient: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Change of the closed form, up to `_rounding_bound`, of each move
    (i, j), i <= j: positions i..j reversed and their orientations flipped.
    O(n^3) time, in n x n matrix products, and O(n^2) memory for all moves of
    an order.

    D must be symmetric. Then the move keeps every service and wrap term, every
    pair term inside or outside the segment and the skip product over the
    segment; only the pair terms between the n - L outside and the L segment
    positions change. Terms into the segment come from `_crossing_deltas`, and
    terms out of it from the same on the mirrored order (positions reversed,
    tails and heads swapped), where the segment i..j sits at n-1-j..n-1-i.
    """
    n = inst.n
    a, b, w = _oriented_rows(inst, seq, orient)
    into = _crossing_deltas(inst.D, a, b, w)
    out = _crossing_deltas(inst.D, b[::-1], a[::-1], w[::-1])
    return into[i, j] + out[n - 1 - j, n - 1 - i]


def local_search(inst: SimplifiedInstance, init: AprioriOrder, budget: int = 1_000_000) -> SolveResult:
    """Best-improvement descent over the 2-opt + orientation-flip neighborhood.

    A sweep scores all single flips, then the 2-opt moves (i, j) in
    lexicographic order (except (0, n-1), which only relabels the cycle), and
    moves to the first neighbor of least cost if it is strictly better. Each
    move counts as one cost evaluation. Every neighbor is scored as its
    canonical order (`_moved`), and that value becomes the cost: each move
    strictly lowers it, so no order recurs. The moves are screened by
    `_reversal_deltas`, each within b = `_rounding_bound` of its change of
    the kernel value, so the screen alone decides a sweep whose least delta
    lies beyond +-b: above b no move improves, and one near move below -b is
    the move. Otherwise the moves within the window are settled by
    `weighted_tour_costs` (`settles` counts these sweeps), as if the kernel
    scored every neighbor; the cost is the kernel value of the final order.
    Stops at a local optimum or when `budget` cost evaluations are spent,
    never worse than the initial solution. D must be symmetric.
    """
    if not np.array_equal(inst.D, inst.D.T):
        raise ValueError("local search needs a symmetric distance matrix")
    t0 = time.perf_counter()
    current = canonicalize(init)
    cost = None  # the kernel value of (seq, orient), computed once a settle or the result needs it
    seq, orient = np.asarray(current.sequence), np.asarray(current.orient)
    evaluations = 1
    sweeps = settles = 0
    stop = "budget"
    n = inst.n
    pi, pj = np.triu_indices(n, 1)
    keep = (pi != 0) | (pj != n - 1)
    move_i = np.concatenate([np.arange(n), pi[keep]])
    move_j = np.concatenate([np.arange(n), pj[keep]])
    bound = _rounding_bound(n, inst.D)
    while evaluations < budget:
        k = min(len(move_i), budget - evaluations)
        delta = _reversal_deltas(inst, seq, orient, move_i[:k], move_j[:k])
        low = delta.min()
        evaluations += k
        sweeps += 1
        if not bound < low < np.inf:  # above b no move improves; an infinite or NaN delta goes to the kernel
            near = np.flatnonzero(delta <= low + 3.0 * bound)
            s2, o2 = _moved(seq, orient, move_i[near], move_j[near])
            if len(near) == 1 and low < -bound:  # the one near move improves, the one `_least` would pick
                cost, seq, orient = None, s2[0], o2[0]
                continue
            if cost is None:
                cost = expected_cost_closed_form(AprioriOrder(seq, orient), inst).value
            least, s2, o2 = _least(inst, [(s2, o2)])  # all moves when all tie, as with p = 0
            settles += 1
            if least < cost:  # the first least is the first strict minimum when it improves
                cost, seq, orient = least, s2, o2
                continue
        if k == len(move_i):
            stop = "local_optimum"
        break
    order = AprioriOrder(seq, orient)
    if cost is None:  # a row's kernel bits do not depend on its batch
        cost = expected_cost_closed_form(order, inst).value
    return SolveResult(
        order=order,
        cost=ExpectedCost(value=cost, method=CLOSED_FORM),
        evaluations=evaluations,
        wall_time=time.perf_counter() - t0,
        sweeps=sweeps,
        stop=stop,
        settles=settles,
    )


def brute_force_tsp(C: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exact TSP by permutation enumeration with city 0 fixed: (tour, cost),
    ties to the lexicographically smallest tour. ValueError unless
    3 <= m <= TSP_GUARD and `core.matrix_violations` accepts C.
    """
    C = np.asarray(C, dtype=float)
    violations = matrix_violations(C, "cost")
    if violations or not 3 <= len(C) <= TSP_GUARD:
        raise ValueError("; ".join(violations) or "TSP search needs 3 to %d cities, got %d" % (TSP_GUARD, len(C)))
    m = len(C)
    tours = _permutation_rows(m)
    costs = np.zeros(len(tours))
    for i in range(m):  # the additions of sum() over the tour's edges, in the same order
        costs += C[tours[:, i], tours[:, (i + 1) % m]]
    best = int(np.argmin(costs))  # rows in lexicographic order: the first minimum is the smallest tour
    return tuple(int(c) for c in tours[best]), float(costs[best])
