"""Machine-checkable verification suites for the library's structural claims.

Each suite returns (ok, lines) where `lines` are key=value report records
with the observed margins. The suites are shared between the CLI and the
acceptance tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import evaluate, solvers, transforms
from .core import AprioriOrder, OriginalInstance, canonicalize, induced_order
from .graph import Multigraph, all_eulerian_tours


def oracle_suite(size: int = 10, seeds: int = 50):
    """Closed-form vs exhaustive-enumeration agreement on random instances."""
    if not 1 <= size <= evaluate.ENUMERATION_GUARD:
        raise ValueError("size=%d is outside 1..%d (the enumeration guard)" % (size, evaluate.ENUMERATION_GUARD))
    tol = 1e-9
    worst = 0.0
    agree = 0
    for seed in range(seeds):
        inst = transforms.gen_random_simplified(size, seed=seed, metric=(seed % 2 == 0))
        rng = np.random.default_rng(1000 + seed)
        order = canonicalize(AprioriOrder(rng.permutation(size), rng.integers(0, 2, size=size)))
        cf = evaluate.expected_cost_closed_form(order, inst).value
        en = evaluate.expected_cost_enumeration(order, inst).value
        rel = abs(cf - en) / max(1.0, abs(en))
        worst = max(worst, rel)
        agree += rel <= tol
    ok = agree == seeds
    lines = [
        "checks=%d" % seeds,
        "agreements=%d" % agree,
        "max_rel_error=%.3e" % worst,
        "tolerance=%.1e" % tol,
    ]
    return ok, lines


def equivalence_suite(seeds: int = 50):
    """Direct original-form expectation vs the simplified composition, for
    every Eulerian tour of small random instances."""
    worst = 0.0
    tours = 0
    done = 0
    seed = 0
    while done < seeds:
        seed += 1
        inst = _small_original(seed)
        if inst is None:
            continue
        done += 1
        epsilon = transforms.default_epsilon(inst.dist)
        slack = (inst.n + 1) * epsilon + 1e-9
        count, orders = _induced_orders(inst)
        tours += count
        # each evaluator computes the instance's shortest paths once
        direct, composed = evaluate._direct_costs(inst), evaluate._composed_costs(inst, epsilon)
        for order in orders:
            worst = max(worst, abs(direct(order).value - composed(order).value) / slack)
    lines = [
        "instances=%d" % done,
        "tours=%d" % tours,
        "max_gap_over_slack=%.3e" % worst,
    ]
    return worst <= 1.0, lines


def _small_original(seed: int):
    """Random original instance with at most 8 edges, or None."""
    rng = np.random.default_rng(seed)
    v = int(rng.integers(3, 5))
    e = v + int(rng.integers(0, 2))
    n_req = int(rng.integers(1, 4))
    # n_req <= 3 <= e, so the generator always has edges enough to require
    inst = transforms.gen_random_original(v, e, n_req, seed)
    return inst if len(inst.edges) <= 8 else None


def _induced_orders(inst: OriginalInstance):
    """Number of Eulerian tours from the depot, and their distinct induced
    orders in the order first met: both original-form evaluators read a tour
    only through that order, so its tours all score the same."""
    orders = [induced_order(tour, inst) for tour in all_eulerian_tours(Multigraph.from_instance(inst), inst.depot)]
    return len(orders), list(dict.fromkeys(orders))


def reduction_suite(seeds: int = 50, size: int = 8):
    """Gadget optimum vs TSP optimum, and TSP-optimality of the lifted tour, for 4..size cities."""
    guard = solvers.BRUTE_FORCE_GUARD
    if not 4 <= size <= guard:
        raise ValueError("size=%d is outside 4..%d (the brute-force guard)" % (size, guard))
    ok = True
    worst = 0.0
    lifted_optimal = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, size + 1))
        tsp = transforms.gen_random_tsp(m, seed)
        epsilon = transforms.default_epsilon(tsp.C)
        gadget, vmap = transforms.tsp_to_setp(tsp, epsilon)
        setp_opt = solvers.brute_force(gadget)
        _, tsp_opt = solvers.brute_force_tsp(tsp.C)
        gap = abs(setp_opt.cost.value - (tsp_opt + m * epsilon))
        worst = max(worst, gap / (m * epsilon))
        if gap > m * epsilon:
            ok = False
        lifted = transforms.lift_to_tsp_tour(setp_opt.order, vmap)
        if abs(tsp.tour_cost(lifted) - tsp_opt) <= 1e-9 * max(1.0, tsp_opt):
            lifted_optimal += 1
        else:
            ok = False
    lines = [
        "instances=%d" % seeds,
        "lifted_optimal=%d" % lifted_optimal,
        "max_gap_over_m_epsilon=%.3e" % worst,
    ]
    return ok, lines


def bijection_suite(size: int = 6):
    """lift(inject(tour)) is the identity on all undirected tours of 3..size cities."""
    if not 3 <= size <= solvers.TSP_GUARD:
        raise ValueError("size=%d is outside 3..%d (the smallest tour to the TSP guard)" % (size, solvers.TSP_GUARD))
    checked = 0
    ok = True
    for m in range(3, size + 1):
        vmap = {x: x // 2 for x in range(2 * m)}
        for rest in itertools.permutations(range(1, m)):
            if rest[0] > rest[-1]:  # each tour once, canonical: from city 0 toward its smaller neighbor
                continue
            tour = (0,) + rest
            order = transforms.inject_tsp_tour(tour, m)
            back = transforms.canonical_city_tour(transforms.lift_to_tsp_tour(order, vmap))
            checked += 1
            if back != tour:
                ok = False
    return ok, ["tours_checked=%d" % checked, "identity=%s" % ("yes" if ok else "no")]


def eulerian_contrast_suite():
    """Exhibit an Eulerian graph whose Eulerian tours induce different
    expected costs, by enumerating the tours of a bowtie of two triangles."""
    # two triangles sharing vertex 2; depot embedded at vertex 0
    vertices = range(5)
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    dist = [1.0, 2.0, 3.0, 1.5, 2.5, 0.5]
    g = Multigraph(vertices, edges)
    g, dist, v0 = transforms.embed_depot(g, dist, 0)
    inst = OriginalInstance(
        vertices=g.vertices,
        edges=g.edges,
        dist=dist,
        depot=v0,
        required=(1, 4),
        prob=(0.5, 0.5),
    )
    _, orders = _induced_orders(inst)
    direct = evaluate._direct_costs(inst)
    costs = [direct(order).value for order in orders]
    spread = max(costs) - min(costs)
    threshold = 1e-3
    ok = spread > threshold
    lines = [
        "distinct_induced_orders=%d" % len(costs),
        "cost_spread=%.6f" % spread,
        "threshold=%.1e" % threshold,
    ]
    return ok, lines


SUITES = {
    "oracle": oracle_suite,
    "equivalence": equivalence_suite,
    "reduction": reduction_suite,
    "bijection": bijection_suite,
    "eulerian-contrast": eulerian_contrast_suite,
}
