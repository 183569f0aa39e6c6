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
(``distances.pairwise``), which equal the per-pair kernels bit for bit, and
each extraction is a first-occurrence argmin.  Single-query ``classify``
keeps the scalar ordered scan, which may stop early once no remaining node
can improve on the best offer (Papa et al., Pattern Recognition 2012); the
full scan and the batch path return the same cost, label and conqueror, so
``early_exit`` never changes a result.

``train_measures`` fits several measures on the same samples in one fold:
their matrices fill a (k, n, n) stack and Prim and the competition run
once over it, on (k, n) state arrays whose per-measure rows follow the
same steps as ``train``.  A stack of one measure keeps ``train``'s
row-by-row loops, which are faster for a single matrix.

All tie-breaks are deterministic: minimum extraction prefers the lowest
node index, and a node's conqueror changes only on a strict improvement.
"""

from __future__ import annotations

import math
import time
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
# A stack of matrices trained together holds at most the bytes of one
# float64 matrix at the cache cap (32 MiB).
_STACK_MAX_BYTES = _CACHE_MAX_NODES ** 2 * 8


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


def _fill_matrix(measure: distances.DistanceId, X: np.ndarray,
                 out: np.ndarray) -> None:
    """Write the distances between the rows of ``X`` into ``out`` (n x n,
    zero diagonal), in row blocks.

    Symmetric measures fill the upper triangle and mirror it without
    re-evaluating (their kernels are bit-for-bit symmetric under the
    sequential accumulation order); measures in ``ASYMMETRIC_CODES``
    evaluate full rows.
    """
    n = len(X)
    symmetric = measure.code not in distances.ASYMMETRIC_CODES
    # Up to four row blocks even when the matrix fits in one, so that a
    # symmetric fill skips most of the lower triangle; blocks of at least
    # 16 rows keep small graphs in one kernel call.
    step = max(16, min(_BLOCK_ENTRIES // n, -(-n // 4)))
    below = np.tri(step, k=-1, dtype=bool)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        c0 = r0 if symmetric else 0
        out[r0:r1, c0:] = distances.pairwise(measure, X[r0:r1], X[c0:])
        if symmetric:
            # rows above this block are done: mirror their columns here,
            # then the upper triangle of the block's own square
            out[r0:r1, :r0] = out[:r0, r0:r1].T
            square = out[r0:r1, r0:r1]
            m = r1 - r0
            square[...] = np.where(below[:m, :m], square.T, square)
    np.fill_diagonal(out, 0.0)


def _row_getter(measure: distances.DistanceId,
                X: np.ndarray) -> Callable[[int], np.ndarray]:
    """Return row(i) -> distances from node i to every node (diagonal 0).

    Up to ``_CACHE_MAX_NODES`` nodes the full matrix is materialized once
    by ``_fill_matrix``.  Above it each row is evaluated on demand.
    """
    n = len(X)
    if n > _CACHE_MAX_NODES:
        def row(i: int) -> np.ndarray:
            r = distances.pairwise(measure, X[i:i + 1], X)[0]
            r[i] = 0.0
            return r
        return row
    mat = np.empty((n, n))
    _fill_matrix(measure, X, mat)
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
        # every arc is finite, so after the root each free node has a
        # finite key and the argmin is a free node
        u = int(key.argmin())
        free[u] = False
        key[u] = np.inf
        row = row_of(u)
        closer = free & (row < key)
        np.copyto(key, row, where=closer)
        parent[closer] = u
    return parent.tolist()


def _mst_parents_stack(stack: np.ndarray) -> np.ndarray:
    """``_mst_parents`` of every matrix of a (k, n, n) stack at once, as a
    (k, n) array; each row is what ``_mst_parents`` returns for its
    matrix."""
    k, n, _ = stack.shape
    at = np.arange(k)
    key = np.full((k, n), np.inf)
    key[:, 0] = -np.inf
    parent = np.full((k, n), -1)
    free = np.ones((k, n), dtype=bool)
    for _ in range(n):
        u = key.argmin(axis=1)  # per measure, the lowest index wins
        free[at, u] = False
        key[at, u] = np.inf
        rows = stack[at, u]
        closer = free & (rows < key)
        np.copyto(key, rows, where=closer)
        np.copyto(parent, u[:, None], where=closer)
    return parent


def _prototypes_of(parent: Sequence[int], labels: Sequence[int]
                   ) -> frozenset[int]:
    protos: set[int] = set()
    for child, par in enumerate(parent):
        if par >= 0 and labels[child] != labels[par]:
            protos.add(child)
            protos.add(par)
    return frozenset(protos)


def find_prototypes(graph: TrainingGraph) -> frozenset[int]:
    """Endpoint pairs of inter-class MST edges.

    Every class present in the graph contributes at least one prototype:
    a spanning tree must connect each class's nodes to the rest of the
    graph through some inter-class edge.
    """
    row_of = _row_getter(graph.distance, _feature_matrix(graph.samples))
    return _prototypes_of(_mst_parents(len(graph.samples), row_of),
                          [s.label for s in graph.samples])


def _forest(samples: tuple[Sample, ...], measure: distances.DistanceId,
            labels: Sequence[int], prototypes: frozenset[int],
            cost: np.ndarray, pred: np.ndarray, root: np.ndarray,
            ordered: Sequence[int]) -> TrainedForest:
    """A TrainedForest of Python scalars from one measure's 1-D state."""
    if (cost == np.inf).any():
        raise AssertionError("complete graph left nodes unreached")
    return TrainedForest(
        samples=samples,
        distance=measure,
        prototypes=prototypes,
        cost=tuple(cost.tolist()),
        predecessor=tuple(None if p < 0 else p for p in pred.tolist()),
        root_label=tuple(labels[r] for r in root.tolist()),
        ordered_nodes=tuple(ordered),
    )


def _train_rows(samples: tuple[Sample, ...], measure: distances.DistanceId,
                labels: Sequence[int], row_of) -> TrainedForest:
    """Prim and the competition of one measure, row by row."""
    n = len(samples)
    prototypes = _prototypes_of(_mst_parents(n, row_of), labels)
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
            break  # unreached nodes keep cost +inf, which _forest rejects
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
    return _forest(samples, measure, labels, prototypes, cost, pred, root,
                   ordered)


def _train_stack(samples: tuple[Sample, ...],
                 measures: Sequence[distances.DistanceId],
                 labels: Sequence[int], stack: np.ndarray
                 ) -> list[TrainedForest]:
    """``_train_rows`` of every matrix of a (k, n, n) stack, with Prim and
    the competition run once over (k, n) state arrays."""
    k, n, _ = stack.shape
    at = np.arange(k)
    prototypes = [_prototypes_of(parent, labels)
                  for parent in _mst_parents_stack(stack).tolist()]
    cost = np.full((k, n), np.inf)
    pred = np.full((k, n), -1)
    root = np.full((k, n), -1)
    for j, protos in enumerate(prototypes):
        seeds = sorted(protos)
        cost[j, seeds] = 0.0
        root[j, seeds] = seeds
    key = cost.copy()

    order = np.empty((k, n), dtype=np.intp)
    for step in range(n):
        s = key.argmin(axis=1)
        # a measure whose minimum key is +inf has unreached nodes: its
        # offers are all +inf and change nothing, and _forest rejects it
        cs = key[at, s][:, None]
        key[at, s] = np.inf
        order[:, step] = s
        rows = stack[at, s]
        offer = np.where(cs >= rows, cs, rows)
        better = offer < cost
        np.copyto(cost, offer, where=better)
        np.copyto(key, offer, where=better)
        np.copyto(pred, s[:, None], where=better)
        np.copyto(root, root[at, s][:, None], where=better)
    return [_forest(samples, m, labels, prototypes[j], cost[j], pred[j],
                    root[j], order[j].tolist())
            for j, m in enumerate(measures)]


def train(graph: TrainingGraph) -> TrainedForest:
    """Competition of prototypes over the complete graph.

    Prototypes start with cost 0 and no predecessor; every other node
    starts unreachable.  Nodes are settled in non-decreasing cost order,
    lowest index first among equal costs; settling node s offers each
    remaining node t the cost max(cost[s], d(s, t)) and t switches
    conqueror only when the offer is a strict improvement.
    """
    row_of = _row_getter(graph.distance, _feature_matrix(graph.samples))
    return _train_rows(graph.samples, graph.distance,
                       [s.label for s in graph.samples], row_of)


def train_measures(
    samples: Sequence[Sample],
    measures: Sequence[distances.DistanceId | str],
    *,
    seconds: list[float] | None = None,
) -> list[TrainedForest]:
    """One forest per measure on the same samples, in ``measures`` order.

    Each result equals ``train(TrainingGraph(samples, m))`` field for
    field.  The samples are validated and their feature matrix built
    once.  Up to ``_CACHE_MAX_NODES`` nodes the measures' matrices are
    filled into stacks of at most ``_STACK_MAX_BYTES``, and Prim and the
    competition run once per stack.  A stack of one measure, and every
    measure of a larger graph, goes through ``train``'s row-by-row loops,
    which are faster for a single matrix.

    If ``seconds`` is given, each measure's training seconds are appended
    to it: its own matrix fill plus an equal share of the rest of its
    stack's time (Prim and the competition; the first stack also carries
    the shared validation).
    """
    start = time.perf_counter()
    measures = [distances.resolve(m) for m in measures]
    if not measures:
        return []
    samples = TrainingGraph(tuple(samples), measures[0]).samples
    labels = [s.label for s in samples]
    X = _feature_matrix(samples)
    n = len(X)
    height = 1
    if n <= _CACHE_MAX_NODES:
        height = max(1, min(len(measures), _STACK_MAX_BYTES // (8 * n * n)))
    stack = np.empty((height, n, n)) if height > 1 else None
    forests: list[TrainedForest] = []
    for c0 in range(0, len(measures), height):
        chunk = measures[c0:c0 + height]
        fill = [0.0] * len(chunk)
        if len(chunk) == 1:
            forests.append(
                _train_rows(samples, chunk[0], labels, _row_getter(chunk[0], X)))
        else:
            for j, m in enumerate(chunk):
                t = time.perf_counter()
                _fill_matrix(m, X, stack[j])
                fill[j] = time.perf_counter() - t
            forests.extend(
                _train_stack(samples, chunk, labels, stack[:len(chunk)]))
        if seconds is not None:
            now = time.perf_counter()
            share = (now - start - sum(fill)) / len(chunk)
            seconds.extend(f + share for f in fill)
            start = now
    return forests


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
