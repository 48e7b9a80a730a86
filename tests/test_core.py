import re

import numpy as np
import pytest

from setp import serialize
from setp.core import (
    AprioriOrder,
    EulerianTour,
    OriginalInstance,
    SimplifiedInstance,
    canonicalize,
    induced_order,
    validate_original,
    validate_simplified,
    validate_tour,
)
from setp.evaluate import expected_cost_closed_form, expected_cost_monte_carlo, expected_cost_original_direct
from setp.graph import Multigraph, all_eulerian_tours, hierholzer
from setp.solvers import nearest_neighbor
from setp.transforms import (TspInstance, attach_depot_edge, gen_random_original, gen_random_simplified, inject_tsp_tour,
                             lift_to_tsp_tour)


def k3(depot=0, required=(0,), prob=(1.0,)):
    return OriginalInstance(
        vertices=(0, 1, 2),
        edges=((0, 1), (1, 2), (0, 2)),
        dist=(1.0, 1.0, 1.0),
        depot=depot,
        required=required,
        prob=prob,
    )


class TestValidateOriginal:
    def test_k3_valid(self):
        assert validate_original(k3()) == []

    def test_odd_degree_path(self):
        inst = OriginalInstance(
            vertices=(0, 1, 2),
            edges=((0, 1), (1, 2)),
            dist=(1.0, 1.0),
            depot=0,
            required=(0,),
            prob=(0.5,),
        )
        msgs = validate_original(inst)
        assert any("odd degree" in m and "vertex 0" in m for m in msgs)
        assert any("odd degree" in m and "vertex 2" in m for m in msgs)

    def test_probability_out_of_range(self):
        msgs = validate_original(k3(prob=(1.3,)))
        assert any("probability" in m for m in msgs)

    def test_disconnected(self):
        inst = OriginalInstance(
            vertices=(0, 1, 2, 3, 4, 5),
            edges=((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)),
            dist=(1.0,) * 6,
            depot=0,
            required=(0,),
            prob=(1.0,),
        )
        assert any("connected" in m for m in validate_original(inst))

    def test_negative_distance_and_bad_depot(self):
        inst = OriginalInstance(
            vertices=(0, 1, 2),
            edges=((0, 1), (1, 2), (0, 2)),
            dist=(1.0, -2.0, 1.0),
            depot=9,
            required=(0,),
            prob=(1.0,),
        )
        msgs = validate_original(inst)
        assert any("negative distance" in m for m in msgs)
        assert any("depot" in m for m in msgs)


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(vertices=(0, 1, 2, 2)), "duplicate vertex ids"),
        (dict(dist=(1.0, 1.0)), "dist length 2 != edge count 3"),
        (dict(edges=((0, 1), (1, 2), (0, 2), (2, 2)), dist=(1.0,) * 4), "self-loop at edge 3 (vertex 2)"),
        (dict(edges=((0, 1), (1, 2), (0, 2), (2, 7), (7, 2)), dist=(1.0,) * 5), "edge 3 references unknown vertex 7"),
        (dict(prob=(0.5, 0.5)), "prob length 2 != required count 1"),
    ],
    ids=["duplicate-vertex", "dist-length", "self-loop", "unknown-vertex", "prob-length"],
)
def test_validate_original_names_the_violation(changes, message):
    fields = dict(vertices=(0, 1, 2), edges=((0, 1), (1, 2), (0, 2)), dist=(1.0,) * 3, depot=0, required=(0,),
                  prob=(0.5,))
    assert message in validate_original(OriginalInstance(**{**fields, **changes}))


class TestValidateSimplified:
    def test_minimal_valid(self):
        inst = SimplifiedInstance(D=[[0, 1], [1, 0]], R=[(0, 1)], p=[0.5])
        assert validate_simplified(inst) == []

    def test_broken_matching(self):
        D = np.zeros((4, 4))
        inst = SimplifiedInstance(D=D, R=[(0, 1), (1, 2)], p=[0.5, 0.5])
        msgs = validate_simplified(inst)
        assert any("vertex 1 covered 2 times" in m for m in msgs)
        assert any("vertex 3 not covered" in m for m in msgs)

    def test_asymmetric_matrix(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        inst = SimplifiedInstance(D=D, R=[(0, 1)], p=[0.5])
        assert any("symmetric" in m for m in validate_simplified(inst))

    def test_probability_vector_length(self):
        inst = SimplifiedInstance(D=[[0, 1], [1, 0]], R=[(0, 1)], p=[0.5, 0.5])
        assert validate_simplified(inst) == ["probability vector length 2 != |R| = 1"]

    def test_no_required_edges(self):
        assert validate_simplified(SimplifiedInstance(np.zeros((0, 0)), [], [])) == ["required edge set is empty"]
        # a saved empty D reloads with shape (0,): both faults are named
        msgs = validate_simplified(SimplifiedInstance(np.zeros(0), [], []))
        assert msgs == ["required edge set is empty", "distance matrix is not square"]


def test_simplified_instance_freezes_a_copy():
    D, p = np.zeros((2, 2)), np.full(1, 0.5)
    inst = SimplifiedInstance(D=D, R=[(0, 1)], p=p)
    D[0, 1] = p[0] = 1.0  # the caller's arrays stay writable and are not shared
    assert inst.D[0, 1] == 0.0 and inst.p[0] == 0.5
    assert not inst.D.flags.writeable and not inst.p.flags.writeable


def test_simplified_instances_compare_by_identity():
    # as TspInstance does: a generated == over the arrays raised ValueError, and hash() TypeError
    a = SimplifiedInstance(D=[[0, 1], [1, 0]], R=[(0, 1)], p=[0.5])
    b = SimplifiedInstance(D=a.D, R=a.R, p=a.p)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_tsp_instance_freezes_a_copy():
    C = np.zeros((3, 3))
    inst = TspInstance(C)
    C[0, 1] = 1.0
    assert inst.C[0, 1] == 0.0
    assert not inst.C.flags.writeable


class TestCanonicalize:
    def test_rotation(self):
        order = AprioriOrder((2, 0, 1), (1, 0, 1))
        assert canonicalize(order) == AprioriOrder((0, 1, 2), (0, 1, 1))

    def test_idempotent(self):
        order = canonicalize(AprioriOrder((1, 2, 0, 3), (1, 1, 0, 0)))
        assert canonicalize(order) == order

    def test_all_rotations_same_canonical(self):
        seq = (3, 1, 0, 2)
        orient = (1, 0, 0, 1)
        forms = set()
        for k in range(4):
            rotated = AprioriOrder(seq[k:] + seq[:k], orient[k:] + orient[:k])
            forms.add(canonicalize(rotated))
        assert len(forms) == 1


class TestInducedOrder:
    def test_single_required_edge(self):
        inst = k3(required=(1,), prob=(0.5,))
        tour = EulerianTour(((0, 0), (1, 0), (2, 1)))
        assert validate_tour(tour, inst) == []
        assert induced_order(tour, inst) == AprioriOrder((0,), (0,))

    def test_invalid_tour_rejected(self):
        inst = k3()
        with pytest.raises(ValueError):
            induced_order(EulerianTour(((0, 0), (1, 0))), inst)

    def test_invariant_under_non_required_reordering(self):
        # doubled path 0-1, 1-2 plus edge pair: 4-edge Eulerian graph
        inst = OriginalInstance(
            vertices=(0, 1, 2),
            edges=((0, 1), (0, 1), (1, 2), (1, 2)),
            dist=(1.0, 1.0, 2.0, 2.0),
            depot=0,
            required=(2,),
            prob=(0.7,),
        )
        assert validate_original(inst) == []
        g = Multigraph.from_instance(inst)
        orders = {induced_order(t, inst) for t in all_eulerian_tours(g, inst.depot)}
        # required edge 2 is traversed either 1->2 or 2->1; nothing else matters
        assert orders == {AprioriOrder((0,), (0,)), AprioriOrder((0,), (1,))}

    def test_subsequence_of_tour(self):
        inst = OriginalInstance(
            vertices=(0, 1, 2),
            edges=((0, 1), (1, 2), (0, 2), (0, 1), (1, 2), (0, 2)),
            dist=(1.0,) * 6,
            depot=0,
            required=(1, 5),
            prob=(0.5, 0.5),
        )
        assert validate_original(inst) == []
        g = Multigraph.from_instance(inst)
        for tour in all_eulerian_tours(g, 0):
            steps = [(e, d) for e, d in tour.steps if e in inst.required]
            order = induced_order(tour, inst)
            # canonical rotation of the raw subsequence
            raw = AprioriOrder(
                tuple(inst.required.index(e) for e, _ in steps),
                tuple(d for _, d in steps),
            )
            assert order == canonicalize(raw)


SIMPLIFIED = gen_random_simplified(3, seed=0)
LARGE = gen_random_original(10, 25, 21, seed=0)  # one required edge past the enumeration guard


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: expected_cost_closed_form(AprioriOrder((0, 1), (0, 0)), SIMPLIFIED), ValueError,
         "order size 2 != instance |R| = 3"),
        (lambda: expected_cost_closed_form(AprioriOrder((0, 0, 1), (0, 0, 0)), SIMPLIFIED), ValueError,
         "not a permutation"),
        (lambda: expected_cost_monte_carlo(AprioriOrder((0, 1, 2), (0, 0, 0)), SIMPLIFIED, samples=0, seed=0),
         ValueError, "samples must be >= 1"),
        (lambda: expected_cost_original_direct(hierholzer(Multigraph.from_instance(LARGE), LARGE.depot), LARGE),
         ValueError, "exceeds the guard n <= 20"),
        (lambda: Multigraph(range(2), [(0, 5)]), ValueError, "edge 0 references unknown vertex"),
        (lambda: hierholzer(Multigraph(range(4), [(0, 1), (1, 2), (0, 2)]), 3), ValueError,
         "start vertex 3 has no edges"),
        (lambda: next(all_eulerian_tours(Multigraph(range(2), [(0, 1)] * 14), 0)), ValueError,
         "limited to 12 edges, got 14"),
        (lambda: next(all_eulerian_tours(Multigraph(range(3), [(0, 1), (1, 2)]), 0)), ValueError,
         "graph is not Eulerian"),
        # checked when called, before any tour is asked for
        (lambda: all_eulerian_tours(Multigraph(range(2), [(0, 1)] * 14), 0), ValueError,
         "limited to 12 edges, got 14"),
        (lambda: all_eulerian_tours(Multigraph(range(3), [(0, 1), (1, 2)]), 0), ValueError,
         "graph is not Eulerian"),
        (lambda: all_eulerian_tours(Multigraph(range(3), [(0, 1), (1, 2), (0, 2)]), 7), ValueError,
         "start vertex 7 is not a vertex of the graph"),
        (lambda: nearest_neighbor(SIMPLIFIED, start_edge=SIMPLIFIED.n), ValueError, "start_edge out of range"),
        (lambda: attach_depot_edge(AprioriOrder((0, 1), (0, 0)), 3), ValueError, "order size 2 != n = 3"),
        (lambda: lift_to_tsp_tour(AprioriOrder((0, 1), (0, 0)), {0: 0, 1: 0, 2: 0, 3: 0}), ValueError,
         "repeated city"),
        (lambda: inject_tsp_tour((0, 0, 1), 3), ValueError, "not a permutation of 0..m-1"),
        (lambda: serialize.to_document(3.0), TypeError, "cannot serialize"),
        (lambda: induced_order(EulerianTour(((9, 0),)), k3()), ValueError, "edge id 9 out of range"),
        (lambda: induced_order(EulerianTour(((0, 0), (0, 1), (1, 0), (2, 1))), k3()), ValueError,
         "edge 0 used more than once"),
        (lambda: induced_order(EulerianTour(()), k3()), ValueError, "empty tour"),
        (lambda: induced_order(EulerianTour(((1, 0), (2, 1), (0, 0))), k3()), ValueError,
         "step 0 starts at 1, expected 0"),
    ],
    ids=["closed-form-size", "closed-form-not-permutation", "mc-no-samples", "direct-past-guard",
         "unknown-vertex", "start-without-edges", "tours-past-12-edges", "tours-of-a-path",
         "tours-past-12-edges-at-call", "tours-of-a-path-at-call", "tours-unknown-start-at-call", "start-edge-past-n",
         "depot-edge-size", "lift-repeated-city", "inject-not-permutation", "serialize-float",
         "tour-edge-out-of-range", "tour-edge-twice", "tour-empty", "tour-wrong-start"],
)
def test_library_rejects_bad_arguments(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
