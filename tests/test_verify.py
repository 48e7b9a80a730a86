import inspect

import pytest

from setp import evaluate, verify
from setp.core import induced_order
from setp.graph import Multigraph, all_eulerian_tours


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_takes_only_cli_options(name):
    # `setp verify` passes --seeds and --size by name, so it reaches every option
    assert set(inspect.signature(verify.SUITES[name]).parameters) <= {"seeds", "size"}


def test_equivalence_scores_each_induced_order_once(monkeypatch):
    calls = []
    direct = evaluate.expected_cost_original_direct

    def spy(tour, inst):
        calls.append((inst, induced_order(tour, inst)))
        return direct(tour, inst)

    monkeypatch.setattr(evaluate, "expected_cost_original_direct", spy)
    ok, lines = verify.equivalence_suite(seeds=5)
    assert ok
    instances = [inst for inst in map(verify._small_original, range(1, 100)) if inst is not None][:5]
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
