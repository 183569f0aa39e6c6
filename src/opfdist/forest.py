"""Optimum-path forest training and classification.

Training treats the samples as a complete graph whose arc weights are
distances.  Prototypes are the endpoints of inter-class edges of a minimum
spanning tree.  Each prototype then competes for every node by offering a
path whose cost is the largest arc along it; the node keeps the cheapest
offer, recording its conquering predecessor and the label of the tree root
that reached it.  A query is classified by the training node that minimizes
max(node cost, distance(node, query)); the scan runs over nodes in
non-decreasing cost order and may stop early once no remaining node can
improve on the best offer, which provably returns the same cost and label
as the full scan.

All tie-breaks are deterministic: minimum extraction prefers the lowest
node index, and a node's conqueror changes only on a strict improvement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import distances
from .errors import DimensionMismatch, SingleClass

# Above this node count the full pairwise matrix is left uncomputed and
# arcs are evaluated on demand (the matrix would dominate memory).
_CACHE_MAX_NODES = 2048


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


def _row_getter(
    graph: TrainingGraph, cache: bool | None
) -> Callable[[int], list[float]]:
    """Return row(i) -> distances from node i to every node (diagonal 0).

    With caching the full matrix is materialized once.  Symmetric measures
    fill the upper triangle and mirror it without re-evaluating (their
    kernels are bit-for-bit symmetric under the sequential accumulation
    order); measures in ``ASYMMETRIC_CODES`` evaluate both directions.
    """
    kernel = distances.distance_function(graph.distance)
    feats = [s.features for s in graph.samples]
    n = len(feats)
    if cache is None:
        cache = n <= _CACHE_MAX_NODES
    if not cache:
        def row(i: int) -> list[float]:
            fi = feats[i]
            return [0.0 if j == i else kernel(fi, feats[j]) for j in range(n)]
        return row

    symmetric = graph.distance.code not in distances.ASYMMETRIC_CODES
    mat: list[list[float]] = [[0.0] * n for _ in range(n)]
    for i in range(n):
        fi = feats[i]
        row_i = mat[i]
        for j in range(i + 1 if symmetric else 0, n):
            row_i[j] = kernel(fi, feats[j])
        row_i[i] = 0.0  # an asymmetric row evaluated its diagonal too
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                mat[j][i] = mat[i][j]
    return mat.__getitem__


def _mst_parents(graph: TrainingGraph, row_of) -> list[int]:
    """Prim's algorithm from node 0; parent[i] = -1 for the root.

    Extraction takes the lowest-index node among minimum keys; an equal
    competing key never displaces the recorded parent.
    """
    n = len(graph.samples)
    in_tree = [False] * n
    key = [math.inf] * n
    parent = [-1] * n
    key[0] = -math.inf
    for _ in range(n):
        u = -1
        best = math.inf
        for v in range(n):
            if not in_tree[v] and key[v] < best:
                best = key[v]
                u = v
        if u < 0:
            u = next(v for v in range(n) if not in_tree[v])
        in_tree[u] = True
        row = row_of(u)
        for v in range(n):
            if not in_tree[v] and row[v] < key[v]:
                key[v] = row[v]
                parent[v] = u
    return parent


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
    parent = _mst_parents(graph, row_of)
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
    starts unreachable.  Nodes are settled in non-decreasing cost order;
    settling node s offers each remaining node t the cost
    max(cost[s], d(s, t)) and t switches conqueror only when the offer is
    a strict improvement.
    """
    row_of = _row_getter(graph, cache_distances)
    prototypes = _find_prototypes(graph, row_of)

    n = len(graph.samples)
    labels = [s.label for s in graph.samples]
    cost = [math.inf] * n
    pred: list[int | None] = [None] * n
    root_label = [-1] * n
    done = [False] * n
    for p in prototypes:
        cost[p] = 0.0
        root_label[p] = labels[p]

    ordered: list[int] = []
    for _ in range(n):
        s = -1
        best = math.inf
        for v in range(n):
            if not done[v] and cost[v] < best:
                best = cost[v]
                s = v
        if s < 0:
            break
        done[s] = True
        ordered.append(s)
        cs = cost[s]
        rl = root_label[s]
        row = row_of(s)
        for t in range(n):
            if done[t] or cost[t] <= cs:
                continue
            d = row[t]
            offer = cs if cs >= d else d
            if offer < cost[t]:
                cost[t] = offer
                pred[t] = s
                root_label[t] = rl
    if len(ordered) != n:
        raise AssertionError("complete graph left nodes unreached")

    return TrainedForest(
        samples=graph.samples,
        distance=graph.distance,
        prototypes=prototypes,
        cost=tuple(cost),
        predecessor=tuple(pred),
        root_label=tuple(root_label),
        ordered_nodes=tuple(ordered),
    )


def _classify_one(
    forest: TrainedForest,
    kernel: distances.Kernel,
    query: Sequence[float],
    early_exit: bool,
) -> Prediction:
    if len(query) != forest.n_features:
        raise DimensionMismatch(
            f"query has dim {len(query)}, model expects {forest.n_features}")
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


def classify(
    forest: TrainedForest,
    query: Sequence[float],
    *,
    early_exit: bool = True,
) -> Prediction:
    """Label a query by the training node offering the cheapest path.

    ``early_exit=False`` forces the full scan; the result is identical
    because nodes later in the order cannot offer below their own cost.
    """
    kernel = distances.distance_function(forest.distance)
    return _classify_one(forest, kernel, query, early_exit)


def classify_batch(
    forest: TrainedForest,
    queries: Sequence[Sequence[float]],
    *,
    early_exit: bool = True,
) -> list[Prediction]:
    """Classify queries independently; order preserved."""
    kernel = distances.distance_function(forest.distance)
    return [_classify_one(forest, kernel, q, early_exit) for q in queries]
