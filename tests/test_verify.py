import inspect

import numpy as np
import pytest

from setp import evaluate, solvers, transforms, verify
from setp.core import induced_order
from setp.graph import Multigraph, all_eulerian_tours, all_pairs_shortest_paths


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_takes_only_cli_options(name):
    # `setp verify` passes --seeds and --size by name, so it reaches every option
    assert set(inspect.signature(verify.SUITES[name]).parameters) <= {"seeds", "size"}


def test_oracle_checks_size_before_generating(monkeypatch):
    # A size past the enumeration guard is refused before its D (2n x 2n floats) is built.
    def refuse(*args, **kwargs):
        raise AssertionError("instance generated before the size check")

    monkeypatch.setattr(transforms, "gen_random_simplified", refuse)
    with pytest.raises(ValueError, match="enumeration guard"):
        verify.oracle_suite(size=evaluate.ENUMERATION_GUARD + 1)


def test_equivalence_scores_each_induced_order_once(monkeypatch):
    # The direct evaluator scores each distinct induced order once, and each
    # evaluator computes an instance's shortest paths once.
    calls = []
    direct = evaluate._direct_costs

    def spy(inst):
        score = direct(inst)

        def scored(order):
            calls.append((inst, order))
            return score(order)
        return scored

    paths = []

    def counted(*args, **kwargs):
        paths.append(args[0])
        return all_pairs_shortest_paths(*args, **kwargs)

    monkeypatch.setattr(evaluate, "_direct_costs", spy)
    monkeypatch.setattr(evaluate, "all_pairs_shortest_paths", counted)
    monkeypatch.setattr(transforms, "all_pairs_shortest_paths", counted)  # simplify's
    ok, lines = verify.equivalence_suite(seeds=5)
    assert ok
    suite_calls = len(paths)
    instances, seed = [], 0
    while len(instances) < 5:  # the suite's instances, generated again under the same spy
        seed += 1
        inst = verify._small_original(seed)
        if inst is not None:
            instances.append(inst)
    generator_calls = len(paths) - suite_calls
    assert generator_calls == 0  # the generator runs bounded searches of its own
    assert suite_calls <= 2 * len(instances)
    tours = 0
    want = []
    for inst in instances:
        walked = list(all_eulerian_tours(Multigraph.from_instance(inst), inst.depot))
        tours += len(walked)
        want += [(inst, order) for order in dict.fromkeys(induced_order(t, inst) for t in walked)]
    assert [order for _, order in calls] == [order for _, order in want]
    assert [inst.edges for inst, _ in calls] == [inst.edges for inst, _ in want]
    assert len(calls) < tours
    assert "tours=%d" % tours in lines


def test_equivalence_margin_is_the_worst_gap():
    ok, lines = verify.equivalence_suite()
    margin = dict(line.split("=") for line in lines)["max_gap_over_slack"]
    assert ok and 0.0 < float(margin) <= 1.0


def _scaled_kernel(monkeypatch):
    kernel = evaluate.weighted_tour_costs
    monkeypatch.setattr(evaluate, "weighted_tour_costs", lambda *args: kernel(*args) * 1.01)


def _swapped_lift(monkeypatch):
    # a rotation or a reversal would not do: canonical_city_tour undoes both
    lift = transforms.lift_to_tsp_tour

    def swapped(order, vmap):
        tour = list(lift(order, vmap))
        tour[0], tour[1] = tour[1], tour[0]
        return tuple(tour)

    monkeypatch.setattr(transforms, "lift_to_tsp_tour", swapped)


def _constant_direct(monkeypatch):
    monkeypatch.setattr(evaluate, "_direct_costs", lambda inst: lambda tour: evaluate.ExpectedCost(1.0, "direct"))


def _identity_held_karp(monkeypatch):
    # the one row of the identity sequence, whatever the optimum
    monkeypatch.setattr(solvers, "_held_karp_rows", lambda hop: np.arange(len(hop))[None])


# For each suite in verify.SUITES: a mutation of what it checks, and the options it runs with.
BROKEN = {
    "oracle": (_scaled_kernel, {"seeds": 3}),
    "equivalence": (_scaled_kernel, {"seeds": 3}),
    "reduction": (_identity_held_karp, {"seeds": 20, "size": 9}),
    "bijection": (_swapped_lift, {}),
    "eulerian-contrast": (_constant_direct, {}),
}


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_fails_on_a_wrong_answer(monkeypatch, name):
    # Each suite's check must bite: with what it checks broken, it reports ok=False.
    # The reduction case breaks brute_force's Held-Karp search, which only its
    # brute_force_tsp oracle, sharing no code with that search, can catch.
    mutate, options = BROKEN[name]
    assert verify.SUITES[name](**options)[0] is True
    mutate(monkeypatch)
    assert verify.SUITES[name](**options)[0] is False
