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
each extraction is a first-occurrence argmin.  Classification scans nodes
in cost order and may stop once no remaining node can improve on the best
offer (Papa et al., Pattern Recognition 2012).  ``classify_batch`` scans
chunks of nodes against the queries still open, reading their arcs
through ``arcs(r0, r1, active)``, and closes a query once the next
chunk's first cost reaches its best offer; its node features and costs
in scan order are built once per forest, on first use.  Single-query
``classify`` is a batch of one.  The full scan and the early exit return
the same cost, label and conqueror, so ``early_exit`` never changes a
result.

Prim and the competition exist once, on (k, n) state arrays that fit k
measures together: each reads arcs through ``rows(f) -> (k, n)``, where
f = at * n + u names row u of measure ``at``.  A cached (k, n, n) stack of
matrices, as many as fit in ``_MATRIX_BYTES``, is filled one row block
at a time by ``distances.pairwise_many``, so its measures share their
sums, and serves its rows by flat index; a graph whose one matrix exceeds
it (n > 2048) fits each measure alone (k = 1, f = u) on 1 x n rows
evaluated on demand.  ``train`` is ``train_measures`` of one measure.
``classify_measures`` tests the forests of one ``train_measures`` call
the same way, from shared node x query rectangles, where each rectangle
fits one ``classify_batch`` chunk.

All tie-breaks are deterministic: minimum extraction prefers the lowest
node index, and a node's conqueror changes only on a strict improvement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import distances
from .errors import DimensionMismatch, SingleClass

# A stack of float64 matrices trained together holds at most this many
# bytes (32 MiB, one matrix of 2048 nodes).  A graph whose one matrix
# exceeds it is left uncomputed and its arcs are evaluated on demand.
_MATRIX_BYTES = 1 << 25
# Row blocks of the matrix and node x query chunks of classify_batch hold
# about this many entries, which bounds the block kernels' temporaries.
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

    @cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray]:
        """The node features, feature-major (d, n) so that a chunk of all
        nodes reaches the block kernel without a copy, and the node costs,
        both in ``ordered_nodes`` order: what ``classify_batch`` scans.

        Built once, on first use, into the instance dict: not a field, so
        equality, repr and the archive bytes do not see it.  They hold
        (d + 1) x n float64 for as long as the forest lives.  Read-only, as
        every scan shares them; threads racing on the first use build
        equal arrays.
        """
        order = self.ordered_nodes
        nodes = np.ascontiguousarray(
            _feature_matrix([self.samples[s] for s in order]).T)
        cost = np.array([self.cost[s] for s in order])
        nodes.flags.writeable = cost.flags.writeable = False
        return nodes, cost


@dataclass(frozen=True)
class Prediction:
    """Classification outcome: label, offered path cost, conquering node."""

    label: int
    cost: float
    conqueror: int


def _feature_matrix(samples: Sequence[Sample]) -> np.ndarray:
    return np.array([s.features for s in samples], dtype=np.float64)


def _fill_stack(chunk: Sequence[distances.DistanceId], X: np.ndarray,
                stack: np.ndarray) -> None:
    """Write the distances between the rows of ``X`` under the k measures
    of ``chunk`` into ``stack[:k]`` (n x n each, zero diagonal).

    Rows are filled in blocks of about ``_BLOCK_ENTRIES`` entries, so a
    matrix that fits in one block is one block of full rows.  Each block
    is one ``pairwise_many`` call over its columns from the diagonal on,
    in which the measures share their sums.  Measures in
    ``ASYMMETRIC_CODES`` get the columns left of the block from a second
    shared call.  Symmetric measures mirror the rows above instead,
    without re-evaluating (their kernels are bit-for-bit symmetric under
    the sequential accumulation order), and overwrite the lower triangle
    of the block's own square with its upper one.
    """
    n = len(X)
    step = max(1, _BLOCK_ENTRIES // n)
    left = [j for j, m in enumerate(chunk)
            if m.code in distances.ASYMMETRIC_CODES]
    mirror = [j for j in range(len(chunk)) if j not in left]
    below = np.tri(min(step, n), k=-1, dtype=bool)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        rows = X[r0:r1]
        for out, d in zip(stack, distances.pairwise_many(chunk, rows, X[r0:])):
            out[r0:r1, r0:] = d
        if r0 and left:
            parts = distances.pairwise_many([chunk[j] for j in left], rows,
                                            X[:r0])
            for j, d in zip(left, parts):
                stack[j, r0:r1, :r0] = d
        m = r1 - r0
        for j in mirror:
            out = stack[j]
            out[r0:r1, :r0] = out[:r0, r0:r1].T
            square = out[r0:r1, r0:r1]
            square[...] = np.where(below[:m, :m], square.T, square)
    for out in stack[:len(chunk)]:
        np.fill_diagonal(out, 0.0)


def _arc_rows(chunk: Sequence[distances.DistanceId], X: np.ndarray,
              stack: np.ndarray | None):
    """Return ``rows(f) -> (k, n)`` for the k measures of ``chunk``, where
    f = at * n + u names row u of measure ``at``.

    With a stack, the chunk's matrices are filled into its first k slots
    and served by flat index.  Without one (see ``_new_stack``) the chunk
    holds one measure, so f == u, and each row is a 1 x n ``pairwise``
    call with a zeroed diagonal.
    """
    if stack is None:
        (measure,) = chunk

        def rows(f: np.ndarray) -> np.ndarray:
            out = distances.pairwise(measure, X[f], X)
            out[0, f] = 0.0
            return out
        return rows
    _fill_stack(chunk, X, stack)
    flat = stack[:len(chunk)].reshape(-1, len(X))
    return lambda f: flat.take(f, axis=0)


def _new_stack(k: int, n: int) -> np.ndarray | None:
    """An empty stack for up to k of the n x n matrices within
    ``_MATRIX_BYTES``, or None when not even one fits."""
    height = min(k, _MATRIX_BYTES // (8 * n * n))
    return np.empty((height, n, n)) if height >= 1 else None


def _mst_parents(k: int, n: int, rows) -> np.ndarray:
    """Prim's algorithm from node 0 on k complete graphs at once, as a
    (k, n) parent array with -1 at each root; ``rows(f)`` gives the arcs
    from node u of graph ``at`` for f = at * n + u.

    Extraction takes the lowest-index node among minimum keys (argmin
    returns the first minimum); an equal competing key never displaces the
    recorded parent.
    """
    base = np.arange(0, k * n, n)
    key = np.full((k, n), np.inf)  # a node in the tree reads +inf
    key[:, 0] = -np.inf
    parent = np.full((k, n), -1)
    free = np.ones((k, n), dtype=bool)
    closer = np.empty((k, n), dtype=bool)
    flat_key, flat_free = key.reshape(-1), free.reshape(-1)
    for _ in range(n):
        # every arc is finite, so after the root each free node has a
        # finite key and the argmin is a free node
        u = key.argmin(axis=1)
        f = u + base
        flat_free[f] = False
        flat_key[f] = np.inf
        arcs = rows(f)
        np.less(arcs, key, out=closer)
        closer &= free
        np.copyto(key, arcs, where=closer)
        np.copyto(parent, u[:, None], where=closer)
    return parent


def _prototype_mask(parent: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(k, n) mask of the endpoints of inter-class MST edges."""
    cross = (parent >= 0) & (labels[parent] != labels)
    mask = cross.copy()
    at, child = np.nonzero(cross)
    mask[at, parent[at, child]] = True
    return mask


def find_prototypes(graph: TrainingGraph) -> frozenset[int]:
    """Endpoint pairs of inter-class MST edges.

    Every class present in the graph contributes at least one prototype:
    a spanning tree must connect each class's nodes to the rest of the
    graph through some inter-class edge.
    """
    X = _feature_matrix(graph.samples)
    n = len(X)
    rows = _arc_rows([graph.distance], X, _new_stack(1, n))
    labels = np.array([s.label for s in graph.samples])
    mask = _prototype_mask(_mst_parents(1, n, rows), labels)
    return frozenset(np.flatnonzero(mask[0]).tolist())


def _fit(samples: tuple[Sample, ...],
         measures: Sequence[distances.DistanceId], labels: np.ndarray,
         rows) -> list[TrainedForest]:
    """Prim and the competition of k measures at once, on (k, n) state
    arrays; ``rows(f)`` gives row u of measure ``at`` for f = at * n + u."""
    k, n = len(measures), len(samples)
    base = np.arange(0, k * n, n)
    proto = _prototype_mask(_mst_parents(k, n, rows), labels)
    cost = np.where(proto, 0.0, np.inf)
    pred = np.full((k, n), -1)
    key = cost.copy()  # cost for extraction; a settled node reads +inf
    flat_key = key.reshape(-1)
    order = np.empty((k, n), dtype=np.intp)
    offer = np.empty((k, n))
    better = np.empty((k, n), dtype=bool)
    for step in range(n):
        s = key.argmin(axis=1)
        f = s + base
        # a measure whose minimum key is +inf has unreached nodes: its
        # offers are all +inf and change nothing, and the check below
        # rejects it
        cs = flat_key[f][:, None]
        flat_key[f] = np.inf
        order[:, step] = s
        # arcs are never NaN, so this is max(cs, d); a settled node t has
        # cost[t] <= cs <= offer, so it never improves
        np.maximum(rows(f), cs, out=offer)
        np.less(offer, cost, out=better)
        np.copyto(cost, offer, where=better)
        np.copyto(key, offer, where=better)
        np.copyto(pred, s[:, None], where=better)
    if (cost == np.inf).any():
        raise AssertionError("complete graph left nodes unreached")
    # a node's root is its final predecessor's, which was fixed when the
    # predecessor settled: follow flat predecessor links to the prototypes
    up = np.where(proto, base[:, None] + np.arange(n), pred + base[:, None])
    up = up.reshape(-1)
    while (up[up] != up).any():
        up = up[up]
    root = up.reshape(k, n) - base[:, None]
    # on d = -0.0 against cs = +0.0, np.maximum returns cs on x86 builds
    # but is documented as where(x1 >= x2, x1, x2), which keeps d; adding
    # +0.0 turns -0.0 into +0.0, the cost max(cs, d) gives, and leaves
    # every other cost as it is
    cost += 0.0
    return [
        TrainedForest(
            samples=samples,
            distance=m,
            prototypes=frozenset(np.flatnonzero(proto[j]).tolist()),
            cost=tuple(cost[j].tolist()),
            predecessor=tuple(None if p < 0 else p for p in pred[j].tolist()),
            root_label=tuple(labels[root[j]].tolist()),
            ordered_nodes=tuple(order[j].tolist()),
        )
        for j, m in enumerate(measures)]


def train(graph: TrainingGraph) -> TrainedForest:
    """Competition of prototypes over the complete graph.

    Prototypes start with cost 0 and no predecessor; every other node
    starts unreachable.  Nodes are settled in non-decreasing cost order,
    lowest index first among equal costs; settling node s offers each
    remaining node t the cost max(cost[s], d(s, t)) and t switches
    conqueror only when the offer is a strict improvement.
    """
    return train_measures(graph.samples, [graph.distance])[0]


def train_measures(
    samples: Sequence[Sample],
    measures: Sequence[distances.DistanceId | str],
    *,
    seconds: list[float] | None = None,
) -> list[TrainedForest]:
    """One forest per measure on the same samples, in ``measures`` order.

    Each result equals ``train(TrainingGraph(samples, m))`` field for
    field.  The samples are validated and their feature matrix built
    once.  The measures' matrices are filled into stacks of as many
    matrices as fit in ``_MATRIX_BYTES``, sharing their sums, and Prim
    and the competition run once per stack.  When not even one matrix
    fits, each measure is fitted alone, on rows evaluated on demand.

    If ``seconds`` is given, each measure's training seconds are appended
    to it: an equal share of its stack's time, which covers the shared
    matrix fill, Prim and the competition (the first stack also carries
    the shared validation).
    """
    start = time.perf_counter()
    measures = [distances.resolve(m) for m in measures]
    if not measures:
        return []
    samples = TrainingGraph(tuple(samples), measures[0]).samples
    labels = np.array([s.label for s in samples])
    X = _feature_matrix(samples)
    stack = _new_stack(len(measures), len(X))
    height = 1 if stack is None else len(stack)
    forests: list[TrainedForest] = []
    for c0 in range(0, len(measures), height):
        chunk = measures[c0:c0 + height]
        forests.extend(_fit(samples, chunk, labels,
                            _arc_rows(chunk, X, stack)))
        if seconds is not None:
            now = time.perf_counter()
            seconds.extend([(now - start) / len(chunk)] * len(chunk))
            start = now
    return forests


def classify(
    forest: TrainedForest,
    query: Sequence[float],
    *,
    early_exit: bool = True,
) -> Prediction:
    """Label a query by the training node offering the cheapest path:
    ``classify_batch`` of the one query.  ``early_exit=False`` forces the
    full scan; the result is identical because nodes later in the order
    cannot offer below their own cost.
    """
    return classify_batch(forest, [query], early_exit=early_exit)[0]


def classify_batch(
    forest: TrainedForest,
    queries: Sequence[Sequence[float]],
    *,
    early_exit: bool = True,
) -> list[Prediction]:
    """Classify queries independently; order preserved.

    Nodes are scored in ``ordered_nodes`` order with the measure's block
    kernel, one chunk of rows at a time against the queries still open,
    each chunk holding about ``_BLOCK_ENTRIES`` entries.  A query's best
    offer changes only on a strict improvement, so the first node that
    minimizes max(cost, distance) wins.  With ``early_exit`` a query
    closes once its best offer is <= the cost of the next chunk's first
    node; ``early_exit=False`` scores every node.
    Either way the results are the same.
    """
    Q = _query_matrix(forest, queries)
    if not len(Q):
        return []
    nodes, cost = forest._scan

    def arcs(r0: int, r1: int, active: np.ndarray) -> np.ndarray:
        return distances.pairwise(forest.distance, nodes[:, r0:r1].T,
                                  Q[active])
    return _scan_queries(forest, cost, len(Q), arcs, early_exit)


def _query_matrix(forest: TrainedForest,
                  queries: Sequence[Sequence[float]]) -> np.ndarray:
    queries = list(queries)
    for q in queries:
        if len(q) != forest.n_features:
            raise DimensionMismatch(
                f"query has dim {len(q)}, model expects {forest.n_features}")
    return np.array(queries, dtype=np.float64).reshape(len(queries),
                                                       forest.n_features)


def _scan_queries(forest: TrainedForest, cost: np.ndarray, m: int, arcs,
                  early_exit: bool) -> list[Prediction]:
    """The scan of ``classify_batch`` over m queries, with node costs
    ``cost`` in scan order; ``arcs(r0, r1, active)`` gives the distances
    from the nodes at scan positions r0:r1 to the queries ``active``."""
    order = forest.ordered_nodes
    n = len(order)
    best = np.empty(m)
    first = np.empty(m, dtype=np.intp)
    for q0 in range(0, m, _BLOCK_ENTRIES):
        active = np.arange(q0, min(m, q0 + _BLOCK_ENTRIES))
        r0 = 0
        while r0 < n and len(active):
            r1 = min(n, r0 + max(1, _BLOCK_ENTRIES // len(active)))
            d = arcs(r0, r1, active)
            c = cost[r0:r1, None]
            offer = np.where(c >= d, c, d)
            k = offer.argmin(axis=0)
            b = offer[k, np.arange(len(k))]
            if r0 == 0:
                # every offer beats the initial +inf
                best[active] = b
                first[active] = k
            else:
                better = b < best[active]
                won = active[better]
                best[won] = b[better]
                first[won] = k[better] + r0
            r0 = r1
            if early_exit and r0 < n:
                # a later node offers max(cost, d) >= its cost, so a query
                # whose best is <= the next cost can no longer improve
                keep = best[active] > cost[r0]
                if not keep.all():
                    active = active[keep]
    out: list[Prediction] = []
    for k, c in zip(first.tolist(), best.tolist()):
        who = order[k]
        out.append(Prediction(forest.root_label[who], c, who))
    return out


def _rectangle_arcs(rect: np.ndarray):
    """``arcs`` for ``_scan_queries`` from a whole node x query rectangle,
    its rows in scan order."""
    return lambda r0, r1, active: rect[r0:r1, active]


def one_chunk(n_nodes: int, n_queries: int) -> bool:
    """Whether ``classify_batch`` scores an n_nodes x n_queries rectangle
    in one chunk: one kernel call, with no early exit."""
    return n_nodes * n_queries <= _BLOCK_ENTRIES


def classify_measures(
    forests: Sequence[TrainedForest],
    queries: Sequence[Sequence[float]],
    *,
    seconds: list[float] | None = None,
) -> list[list[Prediction]]:
    """``classify_batch`` of each forest, in order, for forests fitted on
    the same samples (one ``train_measures`` call) whose node x query
    rectangle fits one chunk (``one_chunk``); ValueError otherwise.

    Each forest's whole rectangle is then what ``classify_batch`` scores
    in its one kernel call.  Here the rectangles come in stacks of as many
    as fit in ``_MATRIX_BYTES``, each stack from one ``pairwise_many``
    call over the samples and the queries, so the measures share their
    sums; each forest then scans its own rectangle in its node order.
    The predictions equal ``classify_batch``'s.

    If ``seconds`` is given, each forest's test seconds are appended to
    it: an equal share of its stack's time (the first stack also carries
    the shared validation).
    """
    start = time.perf_counter()
    if not forests:
        return []
    samples = forests[0].samples
    if any(f.samples is not samples and f.samples != samples
           for f in forests):
        raise ValueError("forests were fitted on different samples")
    Q = _query_matrix(forests[0], queries)
    n, m = len(samples), len(Q)
    if not one_chunk(n, m):
        raise ValueError(f"a {n} x {m} node x query rectangle exceeds one "
                         f"chunk of {_BLOCK_ENTRIES} entries")
    X = _feature_matrix(samples)
    height = max(1, _MATRIX_BYTES // (8 * max(1, n * m)))
    out: list[list[Prediction]] = []
    for c0 in range(0, len(forests), height):
        chunk = forests[c0:c0 + height]
        rects = distances.pairwise_many([f.distance for f in chunk], X, Q)
        for f, d in zip(chunk, rects):
            order = np.array(f.ordered_nodes)
            out.append(_scan_queries(f, np.array(f.cost)[order], m,
                                     _rectangle_arcs(d[order]), False))
        if seconds is not None:
            now = time.perf_counter()
            seconds.extend([(now - start) / len(chunk)] * len(chunk))
            start = now
    return out
