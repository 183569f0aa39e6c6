"""Optimum-path forest training and classification.

Training treats the samples as a complete graph whose arc weights are
distances.  Prototypes are the endpoints of inter-class edges of a minimum
spanning tree.  Each prototype then competes for every node by offering a
path whose cost is the largest arc along it; the node keeps the cheapest
offer, recording its conquering predecessor and the label of the tree root
that reached it.  A query is classified by the training node that minimizes
max(node cost, distance(node, query)), the first such node in
non-decreasing cost order.

The distance matrix, Prim's algorithm, the competition and
``classify_batch`` run on numpy: arcs come from the measures' block kernels
(``distances.pairwise``), which equal the scalar kernels bit for bit, and
each extraction is a first-occurrence argmin.  Single-query ``classify``
keeps the scalar ordered scan, which may stop early once no remaining node
can improve on the best offer (Papa et al., Pattern Recognition 2012); the
full scan and the batch path return the same cost, label and conqueror, so
``early_exit`` never changes a result.

All tie-breaks are deterministic: minimum extraction prefers the lowest
node index, and a node's conqueror changes only on a strict improvement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import distances
from .errors import DimensionMismatch, SingleClass

# Above this node count the full pairwise matrix is left uncomputed and
# arcs are evaluated on demand (the matrix would dominate memory).
_CACHE_MAX_NODES = 2048
# Row blocks of the matrix and query blocks of classify_batch hold about
# this many entries, which bounds the block kernels' temporaries.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Sample:
    """A training point: immutable features, integer label, stable id.

    ``id`` is carried for traceability back to the source dataset; graph
    algorithms address samples by position.
    """

    features: tuple[float, ...]
    label: int
    id: int


@dataclass(frozen=True)
class TrainingGraph:
    """Complete graph over training samples under one distance measure."""

    samples: tuple[Sample, ...]
    distance: distances.DistanceId

    def __post_init__(self):
        if len(self.samples) < 2:
            raise ValueError("a training graph needs at least 2 samples")
        dim = len(self.samples[0].features)
        if dim < 1:
            raise DimensionMismatch("feature vectors must have dim >= 1")
        for s in self.samples:
            if len(s.features) != dim:
                raise DimensionMismatch(
                    f"sample id {s.id} has dim {len(s.features)}, expected {dim}")
        if len({s.label for s in self.samples}) < 2:
            raise SingleClass("training data contains a single class label")

    @property
    def n_features(self) -> int:
        return len(self.samples[0].features)


def graph_from_arrays(
    features: Sequence[Sequence[float]],
    labels: Sequence[int],
    distance: distances.DistanceId | str,
) -> TrainingGraph:
    """Convenience constructor; sample ids are positional."""
    if len(features) != len(labels):
        raise DimensionMismatch("features and labels disagree on length")
    samples = tuple(
        Sample(tuple(float(v) for v in f), int(l), i)
        for i, (f, l) in enumerate(zip(features, labels))
    )
    return TrainingGraph(samples, distances.resolve(distance))


@dataclass(frozen=True)
class TrainedForest:
    """Result of training: per-node cost, conquering structure, scan order.

    ``predecessor[i]`` is None exactly for prototypes; ``root_label[i]`` is
    the label of the tree that conquered node i; ``ordered_nodes`` lists
    node indices in the (non-decreasing cost) order they were settled.
    """

    samples: tuple[Sample, ...]
    distance: distances.DistanceId
    prototypes: frozenset[int]
    cost: tuple[float, ...]
    predecessor: tuple[int | None, ...]
    root_label: tuple[int, ...]
    ordered_nodes: tuple[int, ...]

    @property
    def n_features(self) -> int:
        return len(self.samples[0].features)


@dataclass(frozen=True)
class Prediction:
    """Classification outcome: label, offered path cost, conquering node."""

    label: int
    cost: float
    conqueror: int


def _feature_matrix(samples: Sequence[Sample]) -> np.ndarray:
    return np.array([s.features for s in samples], dtype=np.float64)


def _row_getter(
    graph: TrainingGraph, cache: bool | None
) -> Callable[[int], np.ndarray]:
    """Return row(i) -> distances from node i to every node (diagonal 0).

    With caching the full matrix is materialized once, in row blocks.
    Symmetric measures fill the upper triangle and mirror it without
    re-evaluating (their kernels are bit-for-bit symmetric under the
    sequential accumulation order); measures in ``ASYMMETRIC_CODES``
    evaluate full rows.  Without caching each row is evaluated on demand.
    """
    measure = graph.distance
    X = _feature_matrix(graph.samples)
    n = len(X)
    if cache is None:
        cache = n <= _CACHE_MAX_NODES
    if not cache:
        def row(i: int) -> np.ndarray:
            r = distances.pairwise(measure, X[i:i + 1], X)[0]
            r[i] = 0.0
            return r
        return row

    symmetric = measure.code not in distances.ASYMMETRIC_CODES
    mat = np.empty((n, n))
    # Up to four row blocks even when the matrix fits in one, so that a
    # symmetric fill skips most of the lower triangle; blocks of at least
    # 16 rows keep small graphs in one kernel call.
    step = max(16, min(_BLOCK_ENTRIES // n, -(-n // 4)))
    below = np.tri(step, k=-1, dtype=bool)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        c0 = r0 if symmetric else 0
        mat[r0:r1, c0:] = distances.pairwise(measure, X[r0:r1], X[c0:])
        if symmetric:
            # rows above this block are done: mirror their columns here,
            # then the upper triangle of the block's own square
            mat[r0:r1, :r0] = mat[:r0, r0:r1].T
            square = mat[r0:r1, r0:r1]
            m = r1 - r0
            square[...] = np.where(below[:m, :m], square.T, square)
    np.fill_diagonal(mat, 0.0)
    return mat.__getitem__


def _mst_parents(n: int, row_of) -> list[int]:
    """Prim's algorithm from node 0; parent[i] = -1 for the root.

    Extraction takes the lowest-index node among minimum keys (argmin
    returns the first minimum); an equal competing key never displaces the
    recorded parent.
    """
    key = np.full(n, np.inf)  # a node in the tree reads +inf
    key[0] = -np.inf
    parent = np.full(n, -1)
    free = np.ones(n, dtype=bool)
    for _ in range(n):
        u = int(key.argmin())
        if key[u] == np.inf:
            u = int(free.argmax())
        free[u] = False
        key[u] = np.inf
        row = row_of(u)
        closer = free & (row < key)
        np.copyto(key, row, where=closer)
        parent[closer] = u
    return parent.tolist()


def find_prototypes(
    graph: TrainingGraph, *, cache_distances: bool | None = None
) -> frozenset[int]:
    """Endpoint pairs of inter-class MST edges.

    Every class present in the graph contributes at least one prototype:
    a spanning tree must connect each class's nodes to the rest of the
    graph through some inter-class edge.
    """
    return _find_prototypes(graph, _row_getter(graph, cache_distances))


def _find_prototypes(graph: TrainingGraph, row_of) -> frozenset[int]:
    parent = _mst_parents(len(graph.samples), row_of)
    labels = [s.label for s in graph.samples]
    protos: set[int] = set()
    for child, par in enumerate(parent):
        if par >= 0 and labels[child] != labels[par]:
            protos.add(child)
            protos.add(par)
    return frozenset(protos)


def train(
    graph: TrainingGraph, *, cache_distances: bool | None = None
) -> TrainedForest:
    """Competition of prototypes over the complete graph.

    Prototypes start with cost 0 and no predecessor; every other node
    starts unreachable.  Nodes are settled in non-decreasing cost order,
    lowest index first among equal costs; settling node s offers each
    remaining node t the cost max(cost[s], d(s, t)) and t switches
    conqueror only when the offer is a strict improvement.
    """
    row_of = _row_getter(graph, cache_distances)
    prototypes = _find_prototypes(graph, row_of)

    n = len(graph.samples)
    cost = np.full(n, np.inf)
    pred = np.full(n, -1)
    root = np.full(n, -1)  # index of the prototype whose tree holds the node
    seeds = sorted(prototypes)
    cost[seeds] = 0.0
    root[seeds] = seeds
    key = cost.copy()  # cost for extraction; a settled node reads +inf

    ordered: list[int] = []
    for _ in range(n):
        s = int(key.argmin())
        cs = key[s]
        if cs == np.inf:
            break
        key[s] = np.inf
        ordered.append(s)
        row = row_of(s)
        offer = np.where(cs >= row, cs, row)
        # a settled node t has cost[t] <= cs <= offer, so it never improves
        better = offer < cost
        np.copyto(cost, offer, where=better)
        np.copyto(key, offer, where=better)
        pred[better] = s
        root[better] = root[s]
    if len(ordered) != n:
        raise AssertionError("complete graph left nodes unreached")

    labels = [s.label for s in graph.samples]
    return TrainedForest(
        samples=graph.samples,
        distance=graph.distance,
        prototypes=prototypes,
        cost=tuple(cost.tolist()),
        predecessor=tuple(None if p < 0 else p for p in pred.tolist()),
        root_label=tuple(labels[r] for r in root.tolist()),
        ordered_nodes=tuple(ordered),
    )


def classify(
    forest: TrainedForest,
    query: Sequence[float],
    *,
    early_exit: bool = True,
) -> Prediction:
    """Label a query by the training node offering the cheapest path.

    Scans nodes in ``ordered_nodes`` order with the scalar kernel.
    ``early_exit=False`` forces the full scan; the result is identical
    because nodes later in the order cannot offer below their own cost.
    """
    if len(query) != forest.n_features:
        raise DimensionMismatch(
            f"query has dim {len(query)}, model expects {forest.n_features}")
    kernel = distances.distance_function(forest.distance)
    samples = forest.samples
    cost = forest.cost
    best = math.inf
    who = -1
    for s in forest.ordered_nodes:
        cs = cost[s]
        if early_exit and cs >= best:
            break
        d = kernel(samples[s].features, query)
        offer = cs if cs >= d else d
        if offer < best:
            best = offer
            who = s
    return Prediction(forest.root_label[who], best, who)


def classify_batch(
    forest: TrainedForest,
    queries: Sequence[Sequence[float]],
    *,
    early_exit: bool = True,
) -> list[Prediction]:
    """Classify queries independently; order preserved.

    The whole batch is scored with the measure's block kernel: for each
    query, the first node in ``ordered_nodes`` order that minimizes
    max(cost, distance) wins, which is what the scan of ``classify``
    returns.  ``early_exit`` is accepted for symmetry with ``classify``;
    it never changes a result.
    """
    queries = list(queries)
    for q in queries:
        if len(q) != forest.n_features:
            raise DimensionMismatch(
                f"query has dim {len(q)}, model expects {forest.n_features}")
    if not queries:
        return []
    order = forest.ordered_nodes
    nodes = _feature_matrix([forest.samples[s] for s in order])
    cost = np.array([forest.cost[s] for s in order])[:, None]
    Q = np.array(queries, dtype=np.float64)
    out: list[Prediction] = []
    step = max(1, _BLOCK_ENTRIES // len(order))
    for q0 in range(0, len(Q), step):
        d = distances.pairwise(forest.distance, nodes, Q[q0:q0 + step])
        offer = np.where(cost >= d, cost, d)
        first = offer.argmin(axis=0)
        best = offer[first, np.arange(len(first))]
        for k, c in zip(first.tolist(), best.tolist()):
            who = order[k]
            out.append(Prediction(forest.root_label[who], c, who))
    return out
