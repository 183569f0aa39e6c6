"""Training-graph construction, prototypes, training, classification."""
from __future__ import annotations

import contextlib
import dataclasses
import errno
import math
import os
import pickle
import random
import re
import tempfile
import threading
import weakref

import numpy as np
import pytest

from opfdist import (
    NormalizationSpec,
    Prediction,
    Sample,
    TrainingGraph,
    accuracy,
    classify,
    classify_batch,
    distance_function,
    find_prototypes,
    graph_from_arrays,
    load_forest,
    make_splits,
    registry,
    resolve,
    run_benchmark,
    save_forest,
    train,
    train_measures,
)
import opfdist.forest
from opfdist.errors import DimensionMismatch, SingleClass

import distance_reference
import forest_reference
from conftest import (
    kernel_paths,
    kruskal_cross_prototypes,
    make_dataset,
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


# (features, labels, error, message); "{}" stands for the id of row 1 or 2
GRAPH_ERRORS = [
    ([], [], ValueError, "a training graph needs at least 2 samples"),
    ([[1.0]], [0], ValueError, "a training graph needs at least 2 samples"),
    ([[], []], [0, 1], DimensionMismatch,
     "feature vectors must have dim >= 1"),
    # the first row's dim is checked before the others'
    ([[], [1.0]], [0, 1], DimensionMismatch,
     "feature vectors must have dim >= 1"),
    ([[1.0], [2.0, 3.0]], [0, 1], DimensionMismatch,
     "sample id {1} has dim 2, expected 1"),
    ([[1.0, 2.0], [3.0, 4.0], [5.0]], [0, 1, 0], DimensionMismatch,
     "sample id {2} has dim 1, expected 2"),
    ([[1.0], [2.0]], [0, 0], SingleClass,
     "training data contains a single class label"),
    ([[1.0], [2.0]], [[0, 1], [1, 0]], DimensionMismatch,
     "labels of shape (2, 2) are not one per sample"),
    # a cast would truncate these, merging classes
    ([[1.0], [2.0], [3.0]], [0, 1.5, 1], ValueError,
     "label 1.5 of sample id {1} is not a whole number"),
    ([[1.0], [2.0], [3.0]], [0, 1, math.nan], ValueError,
     "label nan of sample id {2} is not a whole number"),
    # a NaN row would be a zero-cost prototype; values before labels
    ([[1.0], [math.nan], [2.0]], [0, 1, 0.5], ValueError,
     "non-finite feature value nan in sample id {1}"),
    ([[1.0, 2.0], [3.0, 4.0], [5.0, -math.inf]], [0, 1, 0], ValueError,
     "non-finite feature value -inf in sample id {2}"),
]


@pytest.mark.parametrize("features,labels,error,message", GRAPH_ERRORS)
def test_graph_errors_keep_their_types_and_messages(features, labels, error,
                                                    message):
    def raises(ids):
        text = message.replace("{1}", str(ids[1] if len(ids) > 1 else ""))
        text = text.replace("{2}", str(ids[2] if len(ids) > 2 else ""))
        return pytest.raises(error, match=f"^{re.escape(text)}$")

    with raises(range(len(features))):
        graph_from_arrays(features, labels, "D3")
    ids = [7 * i + 5 for i in range(len(features))]
    with raises(ids):
        TrainingGraph(tuple(Sample(tuple(f), l, i)
                            for f, l, i in zip(features, labels, ids)),
                      resolve("D3"))
    with raises(range(len(features))):
        train_measures(features, labels, ["D3", "D7"])


def test_labels_must_be_one_whole_number_per_row():
    X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    y = np.array([0, 1, 1, 0])
    # whole-number floats are taken as their integers
    assert graph_from_arrays(X, y.astype(float), "D3") \
        == graph_from_arrays(X, y, "D3")
    want = opfdist.forest.fit_and_label(X, y, ["D3"], X)
    assert opfdist.forest.fit_and_label(X, y.astype(float), ["D3"], X)[0][0] \
        == want[0][0]
    for labels, error, message in (
            (np.stack([y, y], axis=1), DimensionMismatch,
             "labels of shape (4, 2) are not one per sample"),
            (y + 0.5, ValueError,
             "label 0.5 of sample id 0 is not a whole number"),
            (np.where(y == 1, np.inf, 0.0), ValueError,
             "label inf of sample id 1 is not a whole number")):
        for fit in (lambda: graph_from_arrays(X, labels, "D3"),
                    lambda: opfdist.forest.fit_and_label(
                        X, labels, ["D3", "D7"], X),
                    lambda: train_measures(X, labels, ["D3"])):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                fit()


@pytest.mark.parametrize("code", ["D3", "D1", "D5", "D45"])
def test_non_finite_queries_raise_naming_the_query_row(code):
    # D3 labels a NaN query at the largest float cost; D1, D5 and D45 give
    # it finite distances, so no cost tells such a query apart
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 1, 0, 1])
    model = train(graph_from_arrays(X, y, code))
    for bad, v in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        Q = np.array([[0.5, 0.5], [0.25, 0.75], [bad, 0.0]])
        message = f"^non-finite feature value {v} in query row "
        with pytest.raises(ValueError, match=message + "2$"):
            classify_batch(model, Q)
        with pytest.raises(ValueError, match=message + "2$"):
            opfdist.forest.fit_and_label(X, y, [code, "D7"], Q)
        with pytest.raises(ValueError, match=message + "0$"):
            classify(model, Q[2])
    # the largest finite values are still labelled
    big = [[1e308, 1e308], [-1e308, 1e308]]
    assert len(classify_batch(model, big)) == 2


def test_graph_from_arrays_checks_lengths_first_and_copies_writeable_input():
    with pytest.raises(DimensionMismatch,
                       match="^features and labels disagree on length$"):
        graph_from_arrays([[1.0], [2.0]], [0], "D3")
    with pytest.raises(DimensionMismatch,
                       match="^features and labels disagree on length$"):
        graph_from_arrays([[1.0]], [], "D3")
    X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    y = np.array([0, 1, 1])
    g = graph_from_arrays(X, y, "D3")
    # the caller's arrays stay theirs, writeable; the graph's are frozen
    assert X.flags.writeable and y.flags.writeable
    assert not np.shares_memory(g.features, X)
    assert not any(a.flags.writeable for a in (g.features, g.labels, g.ids))
    assert (g.features.dtype, g.labels.dtype, g.ids.dtype) == (
        np.float64, np.int64, np.int64)
    X[0, 0] = 9.0
    assert g.features[0, 0] == 0.0
    assert g == graph_from_arrays([[0, 1], [2, 3], [4, 5]], [0, 1, 1], "D3")


# A forest's cached views: the tuple fields it held before its arrays,
# kept for the rows that perfbench reads.
CACHED_VIEWS = ("samples", "cost", "prototypes")


def _views_built(model) -> set[str]:
    return set(CACHED_VIEWS) & set(vars(model))


def test_forest_views_are_python_scalars_built_on_first_read(
        monkeypatch, tmp_path):
    rng = random.Random(101)
    features = [[rng.uniform(-1.0, 2.0) for _ in range(3)]
                for _ in range(40)]
    labels = [i % 3 for i in range(40)]
    for path in kernel_paths():
        monkeypatch.setattr(opfdist.forest.distances, "KERNELS", path)
        graph = graph_from_arrays(features, labels, "D7")
        model, twin = train(graph), train(graph)
        classify_batch(model, features[:9])
        classify_batch(model, features[:9], early_exit=False)
        save_forest(model, NormalizationSpec("none"), tmp_path / "m.opf")
        assert model == twin and hash(model) == hash(twin)
        (other,) = train_measures(features, labels, ["D7"])
        assert other == model
        assert not _views_built(model) and not _views_built(other), path
        # the arrays: read-only, of the documented dtypes
        for name, dtype in (("features", np.float64), ("labels", np.int64),
                            ("ids", np.int64), ("costs", np.float64),
                            ("preds", np.int64), ("root_labels", np.int64),
                            ("order", np.int64)):
            a = getattr(model, name)
            assert a.dtype == dtype and not a.flags.writeable, (path, name)
        # a single query reads the arrays too
        classify(model, features[0])
        assert not _views_built(model), path
        # the views: plain Python scalars, built once and kept
        _assert_python_scalars(model)
        assert {type(v) for s in model.samples for v in s.features} == {float}
        assert {type(v) for s in model.samples for v in (s.label, s.id)} \
            == {int}
        assert type(model.n_features) is int and model.n_features == 3
        assert model.prototypes == set(np.flatnonzero(model.preds < 0))
        assert model.samples == graph.samples
        for name in CACHED_VIEWS:
            assert getattr(model, name) is getattr(model, name), name
        assert _views_built(model) == set(CACHED_VIEWS)


def test_forest_equality_hash_replace_and_pickle_read_the_arrays(
        monkeypatch, tmp_path):
    rng = random.Random(103)
    features = [[rng.choice((-1.0, 0.0, 0.5, 2.0)) for _ in range(2)]
                for _ in range(30)]
    labels = [i % 2 for i in range(30)]
    spec = NormalizationSpec("none")
    for path in kernel_paths():
        monkeypatch.setattr(opfdist.forest.distances, "KERNELS", path)
        model = train(graph_from_arrays(features, labels, "D13"))
        save_forest(model, spec, tmp_path / "m.opf")
        loaded = load_forest(tmp_path / "m.opf")[0]
        fresh = dataclasses.replace(model)
        assert loaded == model and hash(loaded) == hash(model), path
        assert fresh == model and hash(fresh) == hash(model), path
        assert repr(loaded) == repr(model) == repr(fresh), path
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(model, protocol))
            assert back == model and hash(back) == hash(model), protocol
            assert repr(back) == repr(model)
            assert not any(a.flags.writeable for a in (
                back.features, back.costs, back.preds, back.order))
            graph = pickle.loads(pickle.dumps(
                graph_from_arrays(features, labels, "D13"), protocol))
            assert graph == graph_from_arrays(features, labels, "D13")
        assert not _views_built(model) and not _views_built(loaded)
        # -0.0 == 0.0, so a forest that differs only there is equal and
        # hashes alike; repr tells them apart
        zero = np.flatnonzero(model.costs == 0.0)[0]
        signed = model.costs.copy()
        signed[zero] = -0.0
        negative = dataclasses.replace(model, costs=signed)
        assert negative == model and hash(negative) == hash(model)
        assert repr(negative) != repr(model)
        assert dataclasses.replace(model, costs=model.costs + 1.0) != model
        assert dataclasses.replace(model, distance=resolve("D3")) != model
        assert loaded != train(graph_from_arrays(features[::-1], labels,
                                                 "D13"))
        assert model != graph_from_arrays(features, labels, "D13")


def test_scan_equals_scan_arrays_of_the_sample_matrix(monkeypatch):
    rng = random.Random(107)
    features = [[rng.uniform(0.0, 2.0) for _ in range(4)] for _ in range(50)]
    labels = [i % 3 for i in range(50)]
    for path in kernel_paths():
        monkeypatch.setattr(opfdist.forest.distances, "KERNELS", path)
        for code in ("D3", "D33", "D46"):
            model = train(graph_from_arrays(features, labels, code))
            nodes, cost = model._scan
            # the matrix a fit used to rebuild from the Sample rows, in
            # scan order, feature-major
            order = model.order.tolist()
            want_nodes = np.array([model.samples[i].features
                                   for i in order]).T
            want_cost = np.array([model.cost[i] for i in order])
            assert nodes.shape == (4, 50) and cost.shape == (50,)
            assert (nodes.view(np.uint64) == want_nodes.view(np.uint64)).all()
            assert (cost.view(np.uint64) == want_cost.view(np.uint64)).all()


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
    assert forest.preds.tolist() == [1, -1, -1, 2]
    assert forest.root_labels.tolist() == [0, 0, 1, 1]
    assert forest.order.tolist() == [1, 2, 0, 3]


def test_two_sample_graph_trains_to_zero_costs():
    g = graph_from_arrays([[0.0], [5.0]], [0, 1], "D3")
    forest = train(g)
    assert forest.prototypes == {0, 1}
    assert forest.cost == (0.0, 0.0)
    assert forest.order.tolist() == [0, 1]
    assert forest.preds.tolist() == [-1, -1]


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
            preds = forest.preds.tolist()
            for i in range(len(features)):
                if i in forest.prototypes:
                    assert forest.cost[i] == 0.0
                    assert preds[i] == -1
                else:
                    p = preds[i]
                    assert p >= 0
                    d = kernel(forest.samples[p].features,
                               forest.samples[i].features)
                    expected = forest.cost[p] if forest.cost[p] >= d else d
                    assert forest.cost[i] == expected
                    # chain terminates at a prototype
                    seen = set()
                    while p >= 0:
                        assert p not in seen
                        seen.add(p)
                        last = p
                        p = preds[p]
                    assert last in forest.prototypes


def test_settling_order_is_non_decreasing_in_cost():
    rng = random.Random(47)
    for _ in range(20):
        features, labels = random_graph_spec(rng)
        forest = train(graph_from_arrays(features, labels, "D3"))
        order = forest.order.tolist()
        costs = [forest.cost[i] for i in order]
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        assert sorted(order) == list(range(len(features)))


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


def test_training_is_deterministic_and_cache_neutral(monkeypatch):
    rng = random.Random(61)
    features, labels = random_graph_spec(rng)
    g = graph_from_arrays(features, labels, "D7")
    assert 8 * len(g.samples) ** 2 <= opfdist.forest._MATRIX_BYTES
    a = train(g)
    b = train(g)
    # a budget of 0 bytes forces the stack into a temporary file
    monkeypatch.setattr(opfdist.forest, "_MATRIX_BYTES", 0)
    in_file = train(g)
    assert a == b
    assert in_file == a


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


def test_prediction_is_a_slotted_frozen_value():
    p = Prediction(2, 0.5, 7)
    assert not hasattr(p, "__dict__")
    assert p == Prediction(2, 0.5, 7) and p != Prediction(2, 0.5, 8)
    assert hash(p) == hash(Prediction(2, 0.5, 7)) == hash((2, 0.5, 7))
    assert repr(p) == "Prediction(label=2, cost=0.5, conqueror=7)"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(p, protocol))
        assert back == p and repr(back) == repr(p)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.label = 3


def test_classify_rejects_wrong_dimension():
    forest = train(line_graph())
    with pytest.raises(DimensionMismatch):
        classify(forest, [1.0, 2.0])


def test_queries_keep_their_dimension_errors():
    model = train(line_graph())  # d = 1
    for queries, message in (
            ([[1.0], [2.0, 3.0]], "query has dim 2, model expects 1"),
            ([[1.0, 2.0], [3.0]], "query has dim 2, model expects 1"),
            ([[1.0, 2.0], [3.0, 4.0]], "query has dim 2, model expects 1"),
            (np.zeros((3, 0)), "query has dim 0, model expects 1"),
            # a lone vector is not one row per query
            ([1.0, 2.0], "queries of shape (2,) are not one row per query"),
            (np.ones((2, 1, 1)),
             "queries of shape (2, 1, 1) are not one row per query")):
        for call in (lambda: classify_batch(model, queries),
                     lambda: opfdist.forest.fit_and_label(
                         model.features, model.labels, ["D3"], queries)):
            with pytest.raises(DimensionMismatch,
                               match=f"^{re.escape(message)}$"):
                call()
    with pytest.raises(DimensionMismatch,
                       match=r"^query has dim 2, model expects 1$"):
        classify(model, [1.0, 2.0])
    assert classify_batch(model, np.zeros((0, 5))) == []


def test_a_float64_query_matrix_reaches_the_scan_uncopied(monkeypatch):
    rng = np.random.default_rng(31)
    X = rng.random((60, 3))
    labels = np.arange(60) % 2
    model = train(graph_from_arrays(X, labels, "D3"))
    Q = rng.random((40, 3))
    Q.flags.writeable = False
    scanned = []
    real = opfdist.forest._scan_nodes

    def spy(forest, scan, Q, *rest):
        scanned.append(Q)
        return real(forest, scan, Q, *rest)

    monkeypatch.setattr(opfdist.forest, "_scan_nodes", spy)
    # 60 x 40 entries above one chunk: the fold call scans too
    monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", 64)
    got = classify_batch(model, Q)
    assert got == classify_batch(model, Q.tolist())
    tested = opfdist.forest.fit_and_label(X, labels, ["D3"], Q)
    assert tested[0][0] == [p.label for p in got]
    assert [np.shares_memory(q, Q) for q in scanned] == [True, False, True]


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
        assert p.label == forest.root_labels[i]


def _assert_predictions(preds, want_preds, where):
    """Predictions equal to the reference's (label, cost, conqueror), as
    Python scalars."""
    assert len(preds) == len(want_preds), where
    for p, want_pred in zip(preds, want_preds):
        assert (p.label, p.cost, p.conqueror) == want_pred, where
        assert type(p.label) is int and type(p.conqueror) is int, where
        assert type(p.cost) is float, where


def test_early_exit_equals_full_scan():
    rng = random.Random(67)
    for code in ("D3", "D15", "D33", "D46"):
        kernel = distance_reference.distance_function(code)
        for _ in range(10):
            features, labels = random_graph_spec(rng)
            forest = train(graph_from_arrays(features, labels, code))
            queries = [[rng.random() for _ in range(5)] for _ in range(20)]
            want = [forest_reference.full_scan_reference(forest, kernel, q)
                    for q in queries]
            fast = [classify(forest, q, early_exit=True) for q in queries]
            slow = [classify(forest, q, early_exit=False) for q in queries]
            assert fast == slow
            _assert_predictions(fast, want, (code, True))
            _assert_predictions(slow, want, (code, False))


def test_single_queries_make_one_block_call(monkeypatch):
    rng = random.Random(83)
    calls = []
    real = opfdist.forest.distances._pairwise_many

    def spy(path, measures, A, B):
        calls.append((path, len(A), len(B)))
        return real(path, measures, A, B)

    queries = [[rng.random() for _ in range(4)] for _ in range(10)]
    # a wine-sized forest and a larger one: n x 1 entries fit one chunk
    models = {n: train(graph_from_arrays(
        [[rng.random() for _ in range(4)] for _ in range(n)],
        [i % 3 for i in range(n)], "D3")) for n in (89, 200)}
    batches = {n: classify_batch(m, queries) for n, m in models.items()}
    monkeypatch.setattr(opfdist.forest.distances, "_pairwise_many", spy)
    for n, model in models.items():
        assert [classify(model, q) for q in queries] == batches[n]
        # on the numpy block kernels, whatever KERNELS names
        assert calls == [("numpy", n, 1)] * len(queries), n
        calls.clear()


def test_scan_arrays_stay_out_of_equality_repr_and_archive(
        monkeypatch, tmp_path):
    rng = random.Random(89)
    model = train(graph_from_arrays(
        [[rng.random() for _ in range(3)] for _ in range(150)],
        [i % 2 for i in range(150)], "D7"))
    fresh = dataclasses.replace(model)
    spec = NormalizationSpec("none")
    save_forest(fresh, spec, tmp_path / "before.opf")
    builds = []
    real = opfdist.forest._scan_arrays

    def spy(forest):
        builds.append(len(forest.features))
        return real(forest)

    monkeypatch.setattr(opfdist.forest, "_scan_arrays", spy)
    queries = [[rng.random() for _ in range(3)] for _ in range(4)]
    classify_batch(model, queries)
    classify_batch(model, queries)
    classify(model, queries[0])
    # built once, on first use, and kept on the forest, read-only
    assert builds == [150]
    assert not any(a.flags.writeable for a in model._scan)
    assert "_scan" in vars(model) and "_scan" not in vars(fresh)
    assert model == fresh and hash(model) == hash(fresh)
    assert repr(model) == repr(fresh)
    save_forest(model, spec, tmp_path / "after.opf")
    assert (tmp_path / "after.opf").read_bytes() == \
        (tmp_path / "before.opf").read_bytes()


def test_classify_batch_early_exit_skips_entries_in_bounded_chunks(
        monkeypatch):
    rng = random.Random(79)
    centres = ((0.0, 0.0), (10.0, 10.0), (-10.0, 5.0))

    def near(c):
        return [c[0] + rng.uniform(-0.5, 0.5), c[1] + rng.uniform(-0.5, 0.5)]

    features = [near(c) for c in centres for _ in range(20)]
    labels = [i // 20 for i in range(60)]
    forest = train(graph_from_arrays(features, labels, "D3"))
    queries = [near(c) for c in centres for _ in range(10)]
    entries = []
    real = opfdist.forest.distances.pairwise

    def spy(measure, A, B):
        entries.append(len(A) * len(B))
        return real(measure, A, B)

    monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(opfdist.forest.distances, "pairwise", spy)
    fast = classify_batch(forest, queries)
    scanned = sum(entries)
    assert max(entries) <= 64
    entries.clear()
    full = classify_batch(forest, queries, early_exit=False)
    assert max(entries) <= 64
    assert sum(entries) == 60 * 30
    assert scanned < 60 * 30
    assert fast == full
    assert [p.label for p in fast] == [i // 10 for i in range(30)]


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
    # signed and duplicated: D7, D10 and D13 give -0.0 arcs between copies
    # of a row whose features sum below zero, and a node reached first
    # through such an arc from a zero-cost node must cost +0.0, as
    # max(0.0, -0.0) does in the scan (the seed is one where all three
    # measures reach that case; see the test below)
    rng = random.Random(3)
    base = [[rng.uniform(-1.0, 1.0) for _ in range(2)] for _ in range(8)]
    features = [base[i % 8] for i in range(32)]
    yield graph_from_arrays(features, [i % 3 for i in range(32)], code)


def test_signed_oracle_graph_conquers_through_negative_zero_arcs():
    for code in ("D7", "D10", "D13"):
        graph = list(_oracle_graphs(code))[-1]
        want = forest_reference.train(graph)
        kernel = distance_reference.distance_function(code)
        feats = [s.features for s in graph.samples]
        arcs = [kernel(feats[p], feats[t])
                for t, p in enumerate(want.preds.tolist())
                if p >= 0 and want.cost[p] == 0.0]
        assert any(a == 0.0 and math.copysign(1.0, a) < 0.0
                   for a in arcs), code


# A forest's fields: the graph's arrays, its measure and the fit's arrays.
FIELDS = ("features", "labels", "ids", "distance", "costs", "preds",
          "root_labels", "order")


def _assert_same_forest(got, want, where):
    """Field for field, array for array (dtype, shape and values), then
    bit for bit through repr, which, unlike ==, tells -0.0 from 0.0."""
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if name == "distance":
            assert a == b, where
        else:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (where, name)
            assert (a == b).all(), (where, name)
    assert repr(got) == repr(want), where


def _assert_python_scalars(model):
    assert all(type(i) is int for i in model.prototypes)
    assert all(type(c) is float for c in model.cost)


def test_train_and_classify_batch_equal_scalar_reference(monkeypatch):
    budget = opfdist.forest._MATRIX_BYTES
    block = opfdist.forest._BLOCK_ENTRIES
    for path in kernel_paths():
        monkeypatch.setattr(opfdist.forest.distances, "KERNELS", path)
        _assert_train_and_classify_batch_equal_scalar_reference(
            monkeypatch, budget, block)


def _assert_train_and_classify_batch_equal_scalar_reference(monkeypatch,
                                                            budget, block):
    for code in [d.code for d in registry()]:
        kernel = distance_reference.distance_function(code)
        for graph in _oracle_graphs(code):
            want = forest_reference.train(graph)
            want_protos = forest_reference.find_prototypes(
                graph, forest_reference.distance_rows(graph))
            for in_memory in (True, False):
                # a budget of 0 bytes forces the stack into a temporary file
                monkeypatch.setattr(opfdist.forest, "_MATRIX_BYTES",
                                    budget if in_memory else 0)
                assert find_prototypes(graph) == want_protos, (code,
                                                               in_memory)
                got = train(graph)
                _assert_same_forest(got, want, (code, in_memory))
                _assert_python_scalars(got)
            dim = graph.n_features
            rng = random.Random(len(graph.samples))
            queries = [s.features for s in graph.samples[:5]] + [
                [float(rng.randint(0, 2)) for _ in range(dim)]
                for _ in range(5)] + [
                [rng.uniform(-0.5, 2.5) for _ in range(dim)] for _ in range(5)
            ] + [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(5)]
            want_preds = [forest_reference.full_scan_reference(got, kernel, q)
                          for q in queries]
            reprs = set()
            for early_exit in (True, False):
                singles = [classify(got, q, early_exit=early_exit)
                           for q in queries]
                _assert_predictions(singles, want_preds, (code, early_exit))
                reprs.add(repr(singles))
            # repr, unlike ==, tells -0.0 from 0.0
            assert len(reprs) == 1, code
            # chunks of one row; of a few rows, growing as queries close;
            # and one chunk holding every node x query entry
            for entries in (1, 40, len(graph.samples) * len(queries)):
                monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", entries)
                for early_exit in (True, False):
                    preds = classify_batch(got, queries, early_exit=early_exit)
                    _assert_predictions(preds, want_preds,
                                        (code, entries, early_exit))
                    assert preds == singles, (code, entries, early_exit)
                    assert repr(preds) == repr(singles)
            monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", block)


@pytest.mark.parametrize("path", ["stack", "height_1", "file"])
def test_train_measures_equals_scalar_reference(monkeypatch, path):
    for kernels in kernel_paths():
        monkeypatch.setattr(opfdist.forest.distances, "KERNELS", kernels)
        _assert_train_measures_equal_scalar_reference(monkeypatch, path)


def _assert_train_measures_equal_scalar_reference(monkeypatch, path):
    if path == "file":
        monkeypatch.setattr(opfdist.forest, "_MATRIX_BYTES", 0)
    codes = [d.code for d in registry()]
    for graph in _oracle_graphs("D3"):
        if path == "height_1":
            # a budget of one matrix leaves one measure per stack
            monkeypatch.setattr(opfdist.forest, "_MATRIX_BYTES",
                                8 * len(graph.samples) ** 2)
        got = train_measures(graph.features, graph.labels, codes)
        # the one fold call fits the same stacks, and times each measure
        queries = [s.features for s in graph.samples[:3]]
        tested = opfdist.forest.fit_and_label(graph.features, graph.labels,
                                              codes, queries)
        assert len(got) == len(tested) == 47
        assert all(type(t) is float and t >= 0.0
                   for _, t_train, t_test in tested for t in (t_train, t_test))
        for code, model, (labels, _, _) in zip(codes, got, tested):
            want = forest_reference.train(
                TrainingGraph(graph.samples, resolve(code)))
            _assert_same_forest(model, want, (path, code))
            _assert_python_scalars(model)
            assert labels == [p.label for p in classify_batch(want, queries)]


def test_train_measures_splits_stacks_by_byte_budget(monkeypatch):
    graph = next(g for g in _oracle_graphs("D3") if len(g.samples) == 17)
    codes = ["D3", "D7", "D15", "D37", "D46"]
    stacks = []
    real = opfdist.forest._loops

    # every fit picks its Prim and competition here, compiled or numpy
    def spy(chunk, X, stack):
        stacks.append((len(chunk), stack))
        return real(chunk, X, stack)

    want = [train(TrainingGraph(graph.samples, resolve(c))) for c in codes]
    monkeypatch.setattr(opfdist.forest, "_loops", spy)
    # room for two 17 x 17 matrices: stacks of 2, 2, then one alone
    monkeypatch.setattr(opfdist.forest, "_MATRIX_BYTES", 2 * 17 * 17 * 8)
    got = train_measures(graph.features, graph.labels, codes)
    assert [(k, stack.shape) for k, stack in stacks] == [
        (2, (2, 17, 17)), (2, (2, 17, 17)), (1, (2, 17, 17))]
    assert not any(isinstance(stack, np.memmap) for _, stack in stacks)
    assert got == want
    # room for less than one: each measure alone, on a stack in a file
    stacks.clear()
    monkeypatch.setattr(opfdist.forest, "_MATRIX_BYTES", 8 * 17 * 17 - 1)
    got = train_measures(graph.features, graph.labels, codes)
    assert [(k, stack.shape) for k, stack in stacks] == [(1, (1, 17, 17))] * 5
    assert all(isinstance(stack, np.memmap) for _, stack in stacks)
    assert got == want
    assert train_measures(graph.features, graph.labels, []) == []


@pytest.mark.skipif(not hasattr(os, "posix_fallocate"),
                    reason="os.posix_fallocate is not on this platform")
def test_full_disk_raises_before_the_fill_and_leaves_no_file(monkeypatch,
                                                              tmp_path):
    graph = next(g for g in _oracle_graphs("D3") if len(g.samples) == 17)
    fills, files = [], []
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    real = tempfile.TemporaryFile

    def no_space(fd, offset, length):
        raise full

    def opened(*args, **kwargs):
        files.append(real(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(tempfile, "TemporaryFile", opened)
    monkeypatch.setattr(os, "posix_fallocate", no_space)
    monkeypatch.setattr(opfdist.forest, "_fill_stack",
                        lambda *args: fills.append(args))
    monkeypatch.setattr(opfdist.forest, "_MATRIX_BYTES", 0)
    with pytest.raises(OSError) as raised:
        train_measures(graph.features, graph.labels, ["D3", "D7"])
    assert raised.value is full
    assert fills == []
    assert len(files) == 1 and files[0].closed
    assert list(tmp_path.iterdir()) == []


def _adversarial_stacks():
    """(case, stack, k, labels): stacks of finite arcs as the fills can
    give them, each with two extra slots of NaN past its k matrices."""
    fmax = np.finfo(np.float64).max
    kinds = {
        "small_int_ties": (0.0, 1.0, 2.0),
        "signed_zeros": (0.0, -0.0, 1.0),
        "negative_and_fmax": (-fmax, -3.0, -0.0, 0.0, 0.5, 0.5, fmax),
    }
    rng = np.random.default_rng(21)
    for kind, values in kinds.items():
        for k in range(1, 6):
            for n in (2, 3, 9, 33):
                for symmetric in (False, True):
                    stack = np.full((k + 2, n, n), np.nan)
                    arcs = rng.choice(values, (k, n, n))
                    if symmetric:
                        # the upper triangle mirrored, signed zeros kept
                        arcs = np.where(np.tri(n, dtype=bool),
                                        arcs.swapaxes(1, 2), arcs)
                    stack[:k] = arcs
                    labels = rng.integers(0, 3, n)
                    labels[rng.permutation(n)[:2]] = [0, 1]
                    yield (kind, k, n, symmetric), stack, k, labels


def test_compiled_fit_equals_numpy_loops_on_adversarial_stacks(monkeypatch):
    if "compiled" not in kernel_paths():
        pytest.skip("the compiled loops are not in use on this host")
    fit, loops = opfdist.forest._fit, opfdist.forest._loops
    # the stacks come filled: _loops keeps them as they are
    monkeypatch.setattr(opfdist.forest, "_fill_stack",
                        lambda chunk, X, stack: None)
    for case, stack, k, labels in _adversarial_stacks():
        n = stack.shape[1]
        measures = list(registry()[:k])
        graph = graph_from_arrays(np.arange(n)[:, None], labels, measures[0])
        got = {}
        for path in ("numpy", "compiled"):
            monkeypatch.setattr(opfdist.forest.distances, "KERNELS", path)
            prim, _ = loops(measures, graph.features, stack)
            got[path] = (prim(), fit(graph, measures,
                                     *loops(measures, graph.features, stack)))
        (want_parent, want), (parent, forests) = got["numpy"], got["compiled"]
        assert parent.dtype == np.int64, case
        assert (parent == want_parent).all(), case
        for a, b in zip(forests, want, strict=True):
            assert a.prototypes == b.prototypes, case
            assert (a.preds == b.preds).all(), case
            assert (a.root_labels == b.root_labels).all(), case
            assert (a.order == b.order).all(), case
            # repr, unlike ==, tells -0.0 from 0.0; neither path may give
            # a -0.0 cost, since _fit does not mend one
            assert repr(a.cost) == repr(b.cost), case
            assert not np.signbit(a.costs).any(), case
            assert not np.signbit(b.costs).any(), case
            assert a == b and repr(a) == repr(b), case
        assert np.isnan(stack[k:]).all()


def test_multi_block_stack_of_mixed_measures_equals_separate_trains(
        monkeypatch):
    graph = next(g for g in _oracle_graphs("D3") if len(g.samples) == 40)
    # symmetric and asymmetric codes that share sums, and two that share none
    codes = ["D28", "D39", "D3", "D29", "D40", "D36", "D35", "D33", "D37",
             "D17", "D47", "D1"]
    want = [train(TrainingGraph(graph.samples, resolve(c))) for c in codes]
    X = graph.features
    fills = []
    real = opfdist.forest._fill_stack

    def spy(chunk, X, stack):
        real(chunk, X, stack)
        fills.extend(stack[:len(chunk)].copy())

    monkeypatch.setattr(opfdist.forest, "_fill_stack", spy)
    # blocks of 7 rows (the last one 5) and stacks of 5, 5 and 2 matrices
    monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", 7 * 40)
    monkeypatch.setattr(opfdist.forest, "_MATRIX_BYTES", 5 * 40 * 40 * 8)
    got = train_measures(graph.features, graph.labels, codes)
    for code, model, w in zip(codes, got, want):
        _assert_same_forest(model, w, code)
    assert len(fills) == len(codes)
    for code, matrix in zip(codes, fills):
        full = opfdist.forest.distances.pairwise(code, X, X)
        np.fill_diagonal(full, 0.0)
        assert (matrix.view(np.uint64) == full.view(np.uint64)).all(), code


def test_fit_and_label_equals_classify_batch(monkeypatch):
    codes = [d.code for d in registry()]
    fit_and_label = opfdist.forest.fit_and_label
    budget, block = opfdist.forest._MATRIX_BYTES, opfdist.forest._BLOCK_ENTRIES
    scans = []
    real = opfdist.forest._scan_arrays

    def spy(model):
        scans.append(model.distance.code)
        return real(model)

    for graph in _oracle_graphs("D3"):
        rng = random.Random(len(graph.samples))
        dim = graph.n_features
        queries = [s.features for s in graph.samples[:3]] + [
            [rng.uniform(-1.0, 2.5) for _ in range(dim)] for _ in range(6)]
        want = [[p.label for p in classify_batch(f, queries)]
                for f in train_measures(graph.features, graph.labels, codes)]
        n = len(graph.samples)
        monkeypatch.setattr(opfdist.forest, "_scan_arrays", spy)
        # shared rectangles in one stack of 47, then in stacks of 10 (the
        # last of 7); then, above one chunk, each forest's own scan
        for matrix_bytes, entries, scanned in (
                (budget, block, []), (10 * n * 9 * 8, block, []),
                (budget, 7, codes)):
            monkeypatch.setattr(opfdist.forest, "_MATRIX_BYTES", matrix_bytes)
            monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", entries)
            scans.clear()
            got = fit_and_label(graph.features, graph.labels, codes, queries)
            assert [labels for labels, _, _ in got] == want, entries
            assert scans == scanned
            assert all(type(label) is int for labels, _, _ in got
                       for label in labels)
            assert all(type(t) is float and t >= 0.0 for _, t_train, t_test
                       in got for t in (t_train, t_test))
            assert [labels for labels, _, _ in
                    fit_and_label(graph.features, graph.labels, codes, [])
                    ] == [[]] * 47
        monkeypatch.undo()
    assert fit_and_label(graph.features, graph.labels, [], queries) == []
    with pytest.raises(DimensionMismatch):
        fit_and_label(graph.features, graph.labels, codes, [[0.5]])


def test_train_measures_rejects_what_train_rejects():
    with pytest.raises(SingleClass):
        train_measures([[1.0], [2.0]], [0, 0], ["D3", "D7"])


def test_fold_task_drops_each_forest_once_tested(monkeypatch):
    ds = make_dataset(
        [[random.Random(i).uniform(0.0, 2.0) for _ in range(3)]
         for i in range(24)], [i % 3 for i in range(24)], name="toy")
    scans = []
    real = opfdist.forest._scan_arrays

    def spy(model):
        # at most one forest's scan arrays are alive at a time
        assert all(ref() is None for ref in scans)
        nodes, cost = real(model)
        scans.extend([weakref.ref(nodes), weakref.ref(cost)])
        return nodes, cost

    monkeypatch.setattr(opfdist.forest, "_scan_arrays", spy)
    # 12 x 12 rectangles above one chunk are tested forest by forest
    monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", 64)
    matrix = run_benchmark([ds], ["D3", "D7", "D15"], seed=4, runs=1)
    assert not matrix.errors and len(scans) == 2 * 3 * 2
    assert all(ref() is None for ref in scans)


def test_grid_cells_equal_separate_fits_and_all_carry_timings(monkeypatch):
    ds = make_dataset(
        [[random.Random(i).uniform(0.0, 2.0) for _ in range(3)]
         for i in range(24)], [i % 3 for i in range(24)], name="toy")
    codes = [d.code for d in registry()]
    plan = make_splits(ds, seed=4, runs=1)[0]
    want = {}
    for fold in (0, 1):
        train_half = tuple(ds.samples[i] for i in plan.fold_indices(1 - fold))
        test_half = [ds.samples[i] for i in plan.fold_indices(fold)]
        for code in codes:
            model = train(TrainingGraph(train_half, resolve(code)))
            preds = classify_batch(model, [s.features for s in test_half])
            want[("toy", code, 0, fold)] = accuracy(
                [p.label for p in preds], [s.label for s in test_half])
    # 12 x 12 rectangles: shared ones of one chunk, then forest by forest
    for entries in (opfdist.forest._BLOCK_ENTRIES, 64):
        monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", entries)
        matrix = run_benchmark([ds], codes, seed=4, runs=1)
        assert not matrix.errors
        assert set(matrix.timings) == set(matrix.cells)
        assert matrix.cells == want, entries
        assert all(t_train > 0.0 and t_test > 0.0
                   for t_train, t_test in matrix.timings.values())


# ---------------------------------------------------------------------------
# Threads: a batch's query groups; a fill stays on the calling thread
# ---------------------------------------------------------------------------

THREADS = (1, 2, 3)


class _BlockThreads:
    """Spy on the block kernels' one entry point: ``idents`` collects the
    threads that call it.  Inside ``split(threads)``, while more threads
    are alive than when it began, the calling thread's calls wait (up to
    30 s) until another thread has made one, so that a call split over
    threads shows another thread's ident, and one that runs inline only
    the caller's.  The thread count and the caller's CPUs must be the same
    after the call as before it.  With ``fail`` set, each call off the
    caller raises ZeroDivisionError."""

    def __init__(self, monkeypatch):
        self.idents: set[int] = set()
        self.caller = threading.get_ident()
        self.fail = False
        self._helped = threading.Event()
        self._hold = False
        self._alive = threading.active_count()
        real = opfdist.forest.distances._pairwise_many

        def spy(*args):
            me = threading.get_ident()
            self.idents.add(me)
            if me != self.caller:
                self._helped.set()
                if self.fail:
                    raise ZeroDivisionError("raised in a thread")
            elif self._hold and threading.active_count() > self._alive:
                self._helped.wait(timeout=30)
            return real(*args)
        monkeypatch.setattr(opfdist.forest.distances, "_pairwise_many", spy)

    @contextlib.contextmanager
    def split(self, threads: int):
        self.idents.clear()
        self._helped.clear()
        self._hold = threads > 1
        before = self._alive = threading.active_count()
        cpus = opfdist.forest._own_cpus()
        try:
            yield
        finally:
            self._hold = False
        assert threading.active_count() == before
        # a call that pinned its threads gives the caller its CPUs back
        assert opfdist.forest._own_cpus() == cpus
        if threads == 1:
            assert self.idents == {self.caller}
        else:
            assert self.idents - {self.caller}


def test_fill_stays_on_the_calling_thread_with_the_same_stacks(
        monkeypatch):
    rng = np.random.default_rng(22)
    X = rng.uniform(-0.5, 2.0, (40, 4))
    X[20:25] = X[:5]  # duplicated rows: zero and tied arcs
    codes = list(registry())
    # blocks of 7 rows (the last of 5): six row blocks, five of them with
    # left parts for the asymmetric codes
    monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", 7 * 40)
    spy = _BlockThreads(monkeypatch)
    for path in kernel_paths():
        monkeypatch.setattr(opfdist.forest.distances, "KERNELS", path)
        want = np.stack([opfdist.forest.distances.pairwise(c, X, X)
                         for c in codes])
        for matrix in want:
            np.fill_diagonal(matrix, 0.0)
        for threads in THREADS:
            monkeypatch.setattr(opfdist.forest, "_THREADS", threads)
            stack = np.full((len(codes) + 1, 40, 40), np.nan)
            # at any thread budget, the six blocks run inline
            with spy.split(1):
                opfdist.forest._fill_stack(codes, X, stack)
            assert (stack[:-1].view(np.uint64) == want.view(np.uint64)).all(), \
                (path, threads)
            assert np.isnan(stack[-1]).all()


def test_threaded_batch_scan_gives_the_same_predictions(monkeypatch):
    rng = random.Random(97)
    features = [[rng.uniform(0.0, 2.0) for _ in range(4)] for _ in range(60)]
    labels = [i % 3 for i in range(60)]
    queries = features[:5] + [[rng.uniform(-0.5, 2.5) for _ in range(4)]
                              for _ in range(25)]
    # 60 x 30 entries, in chunks of at most 64 // threads
    monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", 64)
    spy = _BlockThreads(monkeypatch)
    for path in kernel_paths():
        monkeypatch.setattr(opfdist.forest.distances, "KERNELS", path)
        for code in ("D3", "D15", "D33", "D46"):
            kernel = distance_reference.distance_function(code)
            model = train(graph_from_arrays(features, labels, code))
            want = [forest_reference.full_scan_reference(model, kernel, q)
                    for q in queries]
            for threads in THREADS:
                monkeypatch.setattr(opfdist.forest, "_THREADS", threads)
                for early_exit in (True, False):
                    with spy.split(threads):
                        got = classify_batch(model, queries,
                                             early_exit=early_exit)
                    _assert_predictions(got, want,
                                        (path, code, threads, early_exit))
                    # a single query stays inline
                    with spy.split(1):
                        assert classify(model, queries[7]) == got[7]


def test_threaded_fit_and_label_gives_the_same_labels_forest_by_forest(
        monkeypatch):
    graph = next(g for g in _oracle_graphs("D3") if len(g.samples) == 40)
    rng = random.Random(40)
    queries = [s.features for s in graph.samples[:3]] + [
        [rng.uniform(-1.0, 2.5) for _ in range(4)] for _ in range(6)]
    codes = [d.code for d in registry()]
    scans = []
    real = opfdist.forest._scan_arrays

    def spy(model):
        scans.append(model.distance.code)
        return real(model)

    monkeypatch.setattr(opfdist.forest, "_scan_arrays", spy)
    # 40 x 9 rectangles above one chunk: each forest is scanned alone
    monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", 64)
    blocks = _BlockThreads(monkeypatch)
    for path in kernel_paths():
        monkeypatch.setattr(opfdist.forest.distances, "KERNELS", path)
        monkeypatch.setattr(opfdist.forest, "_THREADS", 1)
        want = [[p.label for p in classify_batch(f, queries)]
                for f in train_measures(graph.features, graph.labels, codes)]
        for threads in THREADS:
            monkeypatch.setattr(opfdist.forest, "_THREADS", threads)
            scans.clear()
            with blocks.split(threads):
                got = opfdist.forest.fit_and_label(
                    graph.features, graph.labels, codes, queries)
            assert scans == codes
            assert [labels for labels, _, _ in got] == want, (path, threads)


def test_an_exception_in_a_thread_reaches_the_caller(monkeypatch):
    rng = random.Random(98)
    features = [[rng.uniform(0.0, 2.0) for _ in range(3)] for _ in range(30)]
    labels = [i % 2 for i in range(30)]
    model = train(graph_from_arrays(features, labels, "D7"))
    monkeypatch.setattr(opfdist.forest, "_BLOCK_ENTRIES", 64)
    spy = _BlockThreads(monkeypatch)
    spy.fail = True
    # 30 x 30 entries: fit_and_label scans each forest alone, split over
    # the threads like classify_batch
    for run in (lambda: opfdist.forest.fit_and_label(
                    model.features, model.labels, ["D7", "D3"], features),
                lambda: classify_batch(model, features)):
        for threads in (2, 3):
            monkeypatch.setattr(opfdist.forest, "_THREADS", threads)
            with spy.split(threads):
                with pytest.raises(ZeroDivisionError, match="in a thread"):
                    run()
