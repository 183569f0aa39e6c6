"""Training-graph construction, prototypes, training, classification."""
from __future__ import annotations

import dataclasses
import math
import random

import pytest

from opfdist import (
    classify,
    classify_batch,
    distance_function,
    find_prototypes,
    graph_from_arrays,
    registry,
    train,
)
from opfdist.errors import DimensionMismatch, SingleClass

import forest_reference
from conftest import (
    kruskal_cross_prototypes,
    oracle_costs,
    pairwise_matrix,
    random_graph_spec,
    weights_distinct,
)


def line_graph():
    """Four 1-D points, two per class: the fully hand-traceable case."""
    return graph_from_arrays(
        [[0.0], [1.0], [3.0], [4.0]], [0, 0, 1, 1], "D3")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_graph_requires_two_samples():
    with pytest.raises(ValueError):
        graph_from_arrays([[1.0]], [0], "D3")


def test_graph_requires_two_classes():
    with pytest.raises(SingleClass):
        graph_from_arrays([[1.0], [2.0]], [0, 0], "D3")


def test_graph_rejects_ragged_features():
    with pytest.raises(DimensionMismatch):
        graph_from_arrays([[1.0], [2.0, 3.0]], [0, 1], "D3")


def test_graph_rejects_empty_feature_vectors():
    with pytest.raises(DimensionMismatch):
        graph_from_arrays([[], []], [0, 1], "D3")


def test_graph_rejects_length_disagreement():
    with pytest.raises(DimensionMismatch):
        graph_from_arrays([[1.0], [2.0]], [0], "D3")


def test_graph_assigns_positional_ids():
    g = line_graph()
    assert [s.id for s in g.samples] == [0, 1, 2, 3]
    assert g.n_features == 1


# ---------------------------------------------------------------------------
# Prototypes
# ---------------------------------------------------------------------------

def test_prototypes_of_line_graph_are_the_boundary_pair():
    assert find_prototypes(line_graph()) == {1, 2}


def test_two_samples_one_per_class_are_both_prototypes():
    g = graph_from_arrays([[0.0], [5.0]], [0, 1], "D3")
    assert find_prototypes(g) == {0, 1}


def test_five_collinear_points_have_one_boundary():
    g = graph_from_arrays(
        [[0.0], [1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 1, 1], "D3")
    assert find_prototypes(g) == {2, 3}


def test_prototypes_match_independent_kruskal_on_distinct_weights():
    rng = random.Random(41)
    kernel = distance_function("D3")
    checked = 0
    while checked < 40:
        features, labels = random_graph_spec(rng)
        matrix = pairwise_matrix(features, kernel)
        if not weights_distinct(matrix):
            continue
        g = graph_from_arrays(features, labels, "D3")
        assert find_prototypes(g) == kruskal_cross_prototypes(matrix, labels)
        checked += 1


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_line_graph_full_training_trace():
    forest = train(line_graph())
    assert forest.prototypes == {1, 2}
    assert forest.cost == (1.0, 0.0, 0.0, 1.0)
    assert forest.predecessor == (1, None, None, 2)
    assert forest.root_label == (0, 0, 1, 1)
    assert forest.ordered_nodes == (1, 2, 0, 3)


def test_two_sample_graph_trains_to_zero_costs():
    g = graph_from_arrays([[0.0], [5.0]], [0, 1], "D3")
    forest = train(g)
    assert forest.prototypes == {0, 1}
    assert forest.cost == (0.0, 0.0)
    assert forest.ordered_nodes == (0, 1)
    assert forest.predecessor == (None, None)


def test_all_prototype_graph_has_all_zero_costs():
    g = graph_from_arrays(
        [[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1], "D3")
    forest = train(g)
    assert forest.prototypes == {0, 1, 2, 3}
    assert forest.cost == (0.0, 0.0, 0.0, 0.0)


def test_prototype_invariants_and_cost_recurrence():
    rng = random.Random(43)
    for code in ("D3", "D7", "D46"):
        kernel = distance_function(code)
        for _ in range(10):
            features, labels = random_graph_spec(rng)
            forest = train(graph_from_arrays(features, labels, code))
            for i in range(len(features)):
                if i in forest.prototypes:
                    assert forest.cost[i] == 0.0
                    assert forest.predecessor[i] is None
                else:
                    p = forest.predecessor[i]
                    assert p is not None
                    d = kernel(forest.samples[p].features,
                               forest.samples[i].features)
                    expected = forest.cost[p] if forest.cost[p] >= d else d
                    assert forest.cost[i] == expected
                    # chain terminates at a prototype
                    seen = set()
                    while p is not None:
                        assert p not in seen
                        seen.add(p)
                        last = p
                        p = forest.predecessor[p]
                    assert last in forest.prototypes


def test_settling_order_is_non_decreasing_in_cost():
    rng = random.Random(47)
    for _ in range(20):
        features, labels = random_graph_spec(rng)
        forest = train(graph_from_arrays(features, labels, "D3"))
        costs = [forest.cost[i] for i in forest.ordered_nodes]
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        assert sorted(forest.ordered_nodes) == list(range(len(features)))


def test_cost_map_equals_bottleneck_oracle_spot_sample():
    rng = random.Random(53)
    for code in ("D3", "D5", "D7", "D15", "D33", "D46", "D47"):
        kernel = distance_function(code)
        for _ in range(8):
            features, labels = random_graph_spec(rng)
            forest = train(graph_from_arrays(features, labels, code))
            matrix = pairwise_matrix(features, kernel)
            expected = oracle_costs(matrix, sorted(forest.prototypes))
            assert list(forest.cost) == expected, code


def test_costs_stay_nonnegative_for_negative_valued_measures():
    rng = random.Random(59)
    for code in ("D5", "D15", "D18", "D26", "D33", "D47"):
        for _ in range(5):
            features, labels = random_graph_spec(rng)
            forest = train(graph_from_arrays(features, labels, code))
            assert all(c >= 0.0 for c in forest.cost), code


def test_training_is_deterministic_and_cache_neutral():
    rng = random.Random(61)
    features, labels = random_graph_spec(rng)
    g = graph_from_arrays(features, labels, "D7")
    a = train(g)
    b = train(g)
    cached = train(g, cache_distances=True)
    uncached = train(g, cache_distances=False)
    assert a == b
    assert cached == uncached == a


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_between_classes_connects_to_nearest_root():
    forest = train(line_graph())
    p = classify(forest, [1.9])
    assert p.label == 0
    assert p.conqueror == 1
    assert p.cost == distance_function("D3")((1.0,), (1.9,))
    assert abs(p.cost - 0.9) < 1e-12


def test_classify_tie_goes_to_earlier_settled_node():
    # Query equal to training node 3: nodes 2 and 3 both offer cost 1.0;
    # node 2 settled first, so it wins and the label follows its tree.
    forest = train(line_graph())
    p = classify(forest, [4.0])
    assert p.label == 1
    assert p.cost == 1.0
    assert p.conqueror == 2


def test_classify_prototype_replica_costs_zero():
    forest = train(line_graph())
    p = classify(forest, [3.0])
    assert p.label == 1
    assert p.cost == 0.0
    assert p.conqueror == 2


def test_classify_rejects_wrong_dimension():
    forest = train(line_graph())
    with pytest.raises(DimensionMismatch):
        classify(forest, [1.0, 2.0])


def test_classify_batch_empty_and_elementwise():
    forest = train(line_graph())
    assert classify_batch(forest, []) == []
    queries = [[1.9], [4.0], [0.0]]
    batched = classify_batch(forest, queries)
    assert batched == [classify(forest, q) for q in queries]


def test_classifying_training_samples_moves_no_higher_than_own_cost():
    forest = train(line_graph())
    for i, s in enumerate(forest.samples):
        p = classify(forest, s.features)
        assert p.cost <= forest.cost[i]
        assert p.label == forest.root_label[i]


def test_early_exit_equals_full_scan():
    rng = random.Random(67)
    for code in ("D3", "D15", "D33", "D46"):
        kernel = distance_function(code)
        for _ in range(10):
            features, labels = random_graph_spec(rng)
            forest = train(graph_from_arrays(features, labels, code))
            for _ in range(20):
                q = [rng.random() for _ in range(5)]
                fast = classify(forest, q, early_exit=True)
                slow = classify(forest, q, early_exit=False)
                assert fast == slow
                label, cost, who = forest_reference.full_scan_reference(
                    forest, kernel, q)
                assert (fast.label, fast.cost, fast.conqueror) == \
                    (label, cost, who)


def test_zero_training_error_on_well_separated_data():
    rng = random.Random(71)
    features = []
    labels = []
    for cls, centre in enumerate(((0.0, 0.0), (10.0, 10.0), (-10.0, 5.0))):
        for _ in range(5):
            features.append([centre[0] + rng.uniform(-0.2, 0.2),
                             centre[1] + rng.uniform(-0.2, 0.2)])
            labels.append(cls)
    forest = train(graph_from_arrays(features, labels, "D3"))
    predictions = classify_batch(forest, features)
    assert [p.label for p in predictions] == labels


# ---------------------------------------------------------------------------
# Numpy paths against the scalar reference
# ---------------------------------------------------------------------------

def _oracle_graphs(code):
    rng = random.Random(73)
    for n in (2, 17, 40):
        labels = [i % 3 for i in range(n)] if n > 2 else [0, 1]
        features = [[rng.uniform(0.0, 2.0) for _ in range(4)]
                    for _ in range(n)]
        yield graph_from_arrays(features, labels, code)
    # tie-heavy: duplicated rows of small integers, so equal keys, costs
    # and offers exercise the lowest-index and earlier-settled tie-breaks
    base = [[float(rng.randint(0, 2)) for _ in range(3)] for _ in range(6)]
    features = [base[i % 6] for i in range(30)]
    labels = [rng.randrange(3) for _ in range(30)]
    yield graph_from_arrays(features, labels, code)


def _assert_python_scalars(model):
    assert all(type(i) is int for i in model.prototypes)
    assert all(type(c) is float for c in model.cost)
    assert all(p is None or type(p) is int for p in model.predecessor)
    assert all(type(r) is int for r in model.root_label)
    assert all(type(i) is int for i in model.ordered_nodes)


def test_train_and_classify_batch_equal_scalar_reference():
    for code in [d.code for d in registry()]:
        kernel = distance_function(code)
        for graph in _oracle_graphs(code):
            want = forest_reference.train(graph)
            for cache in (True, False):
                got = train(graph, cache_distances=cache)
                for field in dataclasses.fields(want):
                    assert getattr(got, field.name) == \
                        getattr(want, field.name), (code, cache, field.name)
                assert repr(got) == repr(want)
                _assert_python_scalars(got)
            dim = graph.n_features
            rng = random.Random(len(graph.samples))
            queries = [s.features for s in graph.samples[:5]] + [
                [float(rng.randint(0, 2)) for _ in range(dim)]
                for _ in range(5)] + [
                [rng.uniform(-0.5, 2.5) for _ in range(dim)] for _ in range(5)]
            for early_exit in (True, False):
                preds = classify_batch(got, queries, early_exit=early_exit)
                for p, q in zip(preds, queries):
                    assert (p.label, p.cost, p.conqueror) == \
                        forest_reference.full_scan_reference(got, kernel, q), code
                    assert type(p.label) is int and type(p.conqueror) is int
                    assert type(p.cost) is float
                assert preds == [classify(got, q) for q in queries], code
