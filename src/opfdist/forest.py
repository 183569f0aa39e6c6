"""Optimum-path forest training and classification.

Training treats the samples as a complete graph whose arc weights are
distances.  Prototypes are the endpoints of inter-class edges of a minimum
spanning tree.  Each prototype then competes for every node by offering a
path whose cost is the largest arc along it; the node keeps the cheapest
offer, recording its conquering predecessor and the label of the tree root
that reached it.  A query is classified by the training node that minimizes
max(node cost, distance(node, query)), the first such node in
non-decreasing cost order.

A ``TrainingGraph`` and a ``TrainedForest`` hold arrays: a read-only
float64 (n, d) feature matrix and int64 labels and ids, which a forest
shares with its graph, and a forest's read-only (n,) fit arrays
``costs``, ``preds`` (-1 at the prototypes), ``root_labels`` and
``order``, which are all that the package reads.  The ``Sample`` rows
(``samples``), a forest's ``cost`` tuple and its ``prototypes`` frozenset
are views built on first read, for ``perfbench/``.

The distance matrix and ``classify_batch`` read their arcs from the
measures' block kernels (``distances.pairwise``), which equal the
per-pair kernels bit for bit.  Classification scans nodes
in cost order and may stop once no remaining node can improve on the best
offer (Papa et al., Pattern Recognition 2012).  ``classify_batch`` scans
chunks of nodes against the queries still open, reading their arcs
through ``arcs(r0, r1, active)``, and closes a query once the next
chunk's first cost reaches its best offer; its node features and costs
in scan order are built once per forest, on first use.  Single-query
``classify`` is a batch of one, on the numpy block kernels.  The full
scan and the early exit return the same cost, label and conqueror, so
``early_exit`` never changes a result.

A fit runs Prim and then the competition for k measures together, on
one path.  A (k, n, n) stack of matrices, as many as fit in
``_MATRIX_BYTES``, is filled one row block at a time by
``distances.pairwise_many``, so its measures share their sums; where not
even one matrix fits (n > 2048), the stack holds one, in an unlinked
temporary file (``_new_stack``).  One function, ``_loops``, fills the
stack and picks the loops that run over it, ``prim(stack, k)`` and
``compete(stack, k, proto)``:

* where ``distances.KERNELS`` reads "compiled": the C Prim and
  competition of ``kernels``, one measure after another;
* otherwise: the numpy loops ``_mst_parents`` and ``_compete``, on (k, n)
  state arrays that step the k measures together.

The numpy loops are the reference: both take the first minimum key,
change a node only on a strict improvement, and offer the settling
node's cost unless the arc is greater (so a -0.0 arc offers +0.0, and
no cost is -0.0); both thus give the same forests, bit for bit.  The
prototype mask, the roots and the unreached check run on numpy either
way (``_fit``), and ``find_prototypes`` uses the same Prim.  ``train``
fits its graph's arrays under one measure, as ``train_measures`` fits
one measure of many.

A batch's scan is made of independent query groups.  Where it spans
more than one ``_BLOCK_ENTRIES`` chunk, the calling thread and threads
made for the call take its groups (``_each``), ``_THREADS`` in all, and
the threads are joined before it returns; the compiled loops and most
numpy loops run without the GIL.  ``_THREADS`` counts the CPUs the
process may run on (``_cpus``), and a grid worker gets its share of them
(``evaluation.run_benchmark``).  Each query's scan is computed as on one
thread, so the bits do not change.  Single queries, the fill of a stack,
Prim and the competition run on the calling thread alone.

``fit_and_label`` is a benchmark fold's one call: each measure's
``classify_batch`` labels of the test queries, with its train and test
seconds.  It hides the chunk rule: where a node x query rectangle fits
one chunk, the forests are tested from shared rectangles; otherwise
each is scanned from arrays built for it alone.

All tie-breaks are deterministic: minimum extraction prefers the lowest
node index, and a node's conqueror changes only on a strict improvement.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import time
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from . import distances
from .errors import DimensionMismatch, SingleClass

# A stack of float64 matrices trained together holds at most this many
# bytes (32 MiB, one matrix of 2048 nodes) in memory.  A graph whose one
# matrix exceeds it fits on a stack of one in a temporary file.
_MATRIX_BYTES = 1 << 25
# Row blocks of the matrix and node x query chunks of classify_batch hold
# about this many entries, which bounds the block kernels' temporaries.
_BLOCK_ENTRIES = 1 << 16


def _own_cpus() -> set[int]:
    """The CPUs the calling thread may run on, where the platform can pin
    threads (empty elsewhere)."""
    try:
        return os.sched_getaffinity(0)
    except AttributeError:
        return set()


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    return len(_own_cpus()) or os.cpu_count() or 1


# The threads a batch scan that spans more than one chunk splits its
# query groups over (``_each``): the process's CPUs, or a grid worker's
# share of them (``evaluation.run_benchmark``).
_THREADS = _cpus()


def _each(fn, items: Sequence) -> None:
    """Call ``fn(item)`` for every item, in any order: inline where there
    is one item or ``_THREADS`` is 1; otherwise the calling thread and up
    to ``_THREADS`` - 1 threads made for this call take the items one at a
    time, and the threads are joined before it returns.  The first
    exception that ``fn`` raises stops the taking and is raised here.

    Where ``_THREADS`` is all the calling thread's CPUs (not a grid
    worker's share), each thread is pinned to a CPU of its own for the
    call, the caller to the first, and the caller's CPUs are restored
    after it; callers on several threads at once thus share that first
    CPU.  On a 2-vCPU x86_64 VM the scheduler often kept a call's threads
    on one CPU for seconds on end: in such a spell, a batch of 500 queries
    on a 2000-node D3 forest beat the one-thread scan in 377 of 441 calls
    pinned (median 24.9 against 36.5 ms), and in 178 of 441 unpinned
    (37.5 ms).
    """
    threads = min(_THREADS, len(items))
    if threads <= 1:
        for item in items:
            fn(item)
        return
    todo, done = iter(items), object()
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work(cpu: int | None) -> None:
        if cpu is not None:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {cpu})
        while not errors:
            with lock:
                item = next(todo, done)
            if item is done:
                return
            try:
                fn(item)
            except BaseException as exc:  # raised in the caller below
                errors.append(exc)
    mask = _own_cpus()
    cpus = sorted(mask) if len(mask) == _THREADS else [None] * threads
    helpers = [threading.Thread(target=work, args=(cpu,))
               for cpu in cpus[1:threads]]
    for t in helpers:
        t.start()
    try:
        work(cpus[0])
    finally:
        for t in helpers:
            t.join()
        if cpus[0] is not None:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, mask)
    if errors:
        raise errors[0]


@dataclass(frozen=True)
class Sample:
    """A training point: immutable features, integer label, stable id.

    ``id`` is carried for traceability back to the source dataset; graph
    algorithms address samples by position.  A dataset, a graph and a
    forest hold their samples as arrays and give them as ``Sample`` rows
    on request (``samples``), which ``perfbench/wine.py`` reads.
    """

    features: tuple[float, ...]
    label: int
    id: int


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: an array that is
    already read-only and aligned is kept, a freshly converted one is
    frozen in place, and anything else (a caller's writeable array or a
    view of one, an unaligned buffer) is copied first."""
    a = np.asarray(values, dtype)
    if not a.flags.aligned or (a.flags.writeable
                               and (a is values or a.base is not None)):
        a = a.copy()
    a.flags.writeable = False
    return a


def _finite_rows(X: np.ndarray, ids: Sequence[int],
                 kind: str = "sample id") -> None:
    """Raise ValueError naming the id (a ``kind``) of the first row of the
    (n, d) matrix X that holds a NaN or an infinity."""
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        v = X[i][~np.isfinite(X[i])][0].item()
        raise ValueError(f"non-finite feature value {v!r} in {kind} {ids[i]}")


def _matrix(rows: Sequence[Sequence[float]], ids: Sequence[int]) -> np.ndarray:
    """The feature rows of a training graph as one read-only (n, d)
    float64 array.  Fewer than 2 rows or a NaN or infinite value raise
    ValueError, and d = 0 or a row whose length differs from the first's
    raise DimensionMismatch, naming the row's id."""
    if len(rows) < 2:
        raise ValueError("a training graph needs at least 2 samples")
    try:
        X = _frozen(rows, np.float64)
    except ValueError:
        # numpy refuses ragged rows: name the first, after the first row's
        # own dim, as a row-by-row check would
        dim = len(rows[0])
        if dim < 1:
            raise DimensionMismatch("feature vectors must have dim >= 1") \
                from None
        for row, i in zip(rows, ids):
            if len(row) != dim:
                raise DimensionMismatch(
                    f"sample id {i} has dim {len(row)}, expected {dim}"
                ) from None
        raise
    if X.ndim != 2:
        raise DimensionMismatch(
            f"features of shape {X.shape} are not one row per sample")
    if X.shape[1] < 1:
        raise DimensionMismatch("feature vectors must have dim >= 1")
    _finite_rows(X, ids)
    return X


def _int_labels(labels) -> tuple[np.ndarray, np.ndarray]:
    """``labels`` as a read-only int64 array, and the mask of those that
    the cast changed: the labels that are not whole numbers (NaN included)."""
    given = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # NaN and inf cast unwarned
        cast = _frozen(given, np.int64)
    return cast, cast != given


class _Arrays:
    """What a dataset, a graph and a forest share: read-only ``features``
    (n, d) float64 and ``labels`` and ``ids`` (n,) int64.  Equality, hash,
    repr and pickling read the fields; the ``Sample`` rows are a view,
    built on first read."""

    def _values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        # -0.0 == +0.0, so both hash as +0.0: adding +0.0 turns one into
        # the other and leaves every other value as it is
        return hash(tuple(
            (v.shape, (v + 0.0 if v.dtype.kind == "f" else v).tobytes())
            if isinstance(v, np.ndarray) else v for v in self._values()))

    def __repr__(self):
        # lists of Python scalars: full precision, and -0.0 shows its sign
        return f"{type(self).__name__}(" + ", ".join(
            f"{f.name}={v.tolist() if isinstance(v, np.ndarray) else v!r}"
            for f, v in zip(fields(self), self._values())) + ")"

    def __reduce__(self):
        return type(self), tuple(self._values())

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def samples(self) -> tuple[Sample, ...]:
        # read by perfbench/wine.py's folds and perfbench/synthetic.py
        return tuple(map(Sample, map(tuple, self.features.tolist()),
                         self.labels.tolist(), self.ids.tolist()))


@dataclass(frozen=True, eq=False, repr=False, init=False)
class TrainingGraph(_Arrays):
    """Complete graph over training samples under one distance measure.

    ``TrainingGraph(samples, distance)`` converts the ``Sample`` rows once
    and keeps them as its ``samples`` (``perfbench/wine.py`` fits its
    traced folds so); ``graph_from_arrays`` builds one from a feature
    matrix and labels without making rows.  Either way it needs at least 2
    samples (ValueError) of one dim d >= 1 (DimensionMismatch), one label
    per sample (DimensionMismatch), each a whole number (ValueError naming
    the sample id), and at least two labels (SingleClass).
    """

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    distance: distances.DistanceId

    def __init__(self, samples: Sequence[Sample],
                 distance: distances.DistanceId | str):
        samples = tuple(samples)
        ids = [s.id for s in samples]
        self._init(_matrix([s.features for s in samples], ids),
                   [s.label for s in samples], ids, distance)
        object.__setattr__(self, "samples", samples)

    def _init(self, X: np.ndarray, labels, ids, distance) -> None:
        given = labels
        labels, bad = _int_labels(labels)
        if labels.shape != X.shape[:1]:
            raise DimensionMismatch(
                f"labels of shape {labels.shape} are not one per sample")
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"label {np.asarray(given)[i].item()!r} of "
                             f"sample id {ids[i]} is not a whole number")
        if not (labels != labels[0]).any():
            raise SingleClass("training data contains a single class label")
        for name, value in (("features", X), ("labels", labels),
                            ("ids", _frozen(ids, np.int64)),
                            ("distance", distances.resolve(distance))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return _graph, tuple(self._values())


def _graph(X, labels, ids, distance) -> TrainingGraph:
    """A TrainingGraph of the validated (n, d) matrix X (``_matrix``)."""
    graph = TrainingGraph.__new__(TrainingGraph)
    graph._init(_frozen(X, np.float64), labels, ids, distance)
    return graph


def graph_from_arrays(
    features: Sequence[Sequence[float]],
    labels: Sequence[int],
    distance: distances.DistanceId | str,
) -> TrainingGraph:
    """A graph of the rows of ``features`` (one ``np.asarray``) and their
    labels; sample ids are positional."""
    if len(features) != len(labels):
        raise DimensionMismatch("features and labels disagree on length")
    n = len(features)
    return _graph(_matrix(features, range(n)), labels, np.arange(n), distance)


@dataclass(frozen=True, eq=False, repr=False)
class TrainedForest(_Arrays):
    """Result of training: per-node cost, conquering structure, scan order.

    Besides the graph's arrays, a forest holds the fit's read-only (n,)
    arrays: ``costs`` (float64), ``preds`` (int64, the conquering
    predecessor, -1 exactly at the prototypes), ``root_labels`` (int64,
    the label of the tree that conquered each node) and ``order`` (int64,
    node indices in the non-decreasing cost order they were settled).

    ``cost`` (a tuple), ``prototypes`` (a frozenset) and ``samples`` are
    views of plain Python scalars, each built on first read and then
    kept, for ``perfbench/``; nothing in the package reads them.
    """

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    distance: distances.DistanceId
    costs: np.ndarray
    preds: np.ndarray
    root_labels: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        for name, dtype in (("features", np.float64), ("labels", np.int64),
                            ("ids", np.int64), ("costs", np.float64),
                            ("preds", np.int64), ("root_labels", np.int64),
                            ("order", np.int64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    @cached_property
    def cost(self) -> tuple[float, ...]:
        # read by perfbench/common.py's scan fraction
        return tuple(self.costs.tolist())

    @cached_property
    def prototypes(self) -> frozenset[int]:
        # read by perfbench/synthetic.py and perfbench/wine.py's checks
        return frozenset(np.flatnonzero(self.preds < 0).tolist())

    @cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray]:
        """``_scan_arrays`` of this forest, for ``classify_batch``.

        Built once, on first use, into the instance dict: not a field, so
        equality, repr and the archive bytes do not see it.  They hold
        (d + 1) x n float64 for as long as the forest lives.  Read-only, as
        every scan shares them; threads racing on the first use build
        equal arrays.
        """
        nodes, cost = _scan_arrays(self)
        nodes.flags.writeable = cost.flags.writeable = False
        return nodes, cost


@dataclass(frozen=True, slots=True)
class Prediction:
    """Classification outcome: label, offered path cost, conquering node."""

    label: int
    cost: float
    conqueror: int


def _scan_arrays(forest: TrainedForest) -> tuple[np.ndarray, np.ndarray]:
    """What ``classify_batch`` scans: the node features, feature-major
    (d, n) so that a chunk of all nodes reaches the block kernel without a
    copy, and the node costs, both in ``order``."""
    order = forest.order
    return forest.features.T.take(order, axis=1), forest.costs[order]


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

    The fill runs on the calling thread.  Its blocks' kernel calls are
    independent, and split over two threads a 2000-node D3 fill took
    about 40% less time on a 2-vCPU x86_64 VM; but the fit's time then
    followed the speed of both vCPUs, which drift apart there by tens of
    percent, and the interquartile range of perfbench noise-fit's
    ``cells_per_s`` reached about 1.5/s in two of five sets of runs,
    against 0.4-0.8/s with the fill on one thread.
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


def _new_stack(k: int, n: int) -> np.ndarray:
    """An empty stack for up to k of the n x n matrices within
    ``_MATRIX_BYTES``; where not even one fits, a stack of one mapped from
    a ``tempfile.TemporaryFile``, unlinked at creation so that a crash
    leaves nothing.  ``os.posix_fallocate`` reserves its blocks where the
    platform has it: a full disk raises OSError here, not a SIGBUS in the
    fill.  ``ru_maxrss`` counts the file's pages that are mapped."""
    height = min(k, _MATRIX_BYTES // (8 * n * n))
    if height >= 1:
        return np.empty((height, n, n))
    with tempfile.TemporaryFile() as f:  # the map keeps its own handle
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(f.fileno(), 0, 8 * n * n)
        return np.memmap(f, np.float64, shape=(1, n, n))


def _mst_parents(stack: np.ndarray, k: int) -> np.ndarray:
    """Prim's algorithm from node 0 on the first k matrices of the
    (height, n, n) ``stack`` at once, as a (k, n) parent array with -1 at
    each root: the reference of ``kernels``' C ``prim``.

    Extraction takes the lowest-index node among minimum keys (argmin
    returns the first minimum); an equal competing key never displaces the
    recorded parent.
    """
    n = stack.shape[1]
    rows = stack[:k].reshape(-1, n)  # row u of matrix j is row j * n + u
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
        arcs = rows.take(f, axis=0)
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


def _loops(chunk: Sequence[distances.DistanceId], X: np.ndarray,
           stack: np.ndarray):
    """Prim and the competition of the k measures of ``chunk`` on the rows
    of ``X``, as ``prim() -> parent`` and ``compete(proto) -> (cost, pred,
    order)``, all (k, n).

    The chunk's matrices are filled into the first k slots of ``stack``
    (``_fill_stack``, in memory or in a file alike), and the pair bound to
    ``(stack, k)`` is the compiled one of ``kernels`` where
    ``distances.KERNELS`` reads "compiled", else its reference,
    ``_mst_parents`` and ``_compete``.
    """
    _fill_stack(chunk, X, stack)
    pair = (distances._FIT if distances.KERNELS == "compiled"
            else (_mst_parents, _compete))
    return tuple(partial(loop, stack, len(chunk)) for loop in pair)


def find_prototypes(graph: TrainingGraph) -> frozenset[int]:
    """Endpoint pairs of inter-class MST edges.

    Every class present in the graph contributes at least one prototype:
    a spanning tree must connect each class's nodes to the rest of the
    graph through some inter-class edge.
    """
    X = graph.features
    prim, _ = _loops([graph.distance], X, _new_stack(1, len(X)))
    mask = _prototype_mask(prim(), graph.labels)
    return frozenset(np.flatnonzero(mask[0]).tolist())


def _compete(stack: np.ndarray, k: int, proto: np.ndarray):
    """The competition on the first k matrices of ``stack`` at once from
    their (k, n) prototype mask, as (k, n) costs, predecessors (-1 at the
    prototypes) and settling order: the reference of ``kernels``' C
    ``compete``."""
    n = stack.shape[1]
    rows = stack[:k].reshape(-1, n)
    base = np.arange(0, k * n, n)
    cost = np.where(proto, 0.0, np.inf)
    pred = np.full((k, n), -1)
    key = cost.copy()  # cost for extraction; a settled node reads +inf
    flat_key = key.reshape(-1)
    order = np.empty((k, n), dtype=np.intp)
    better = np.empty((k, n), dtype=bool)
    for step in range(n):
        s = key.argmin(axis=1)
        f = s + base
        # a measure whose minimum key is +inf has unreached nodes: its
        # offers are all +inf and change nothing, and _fit rejects it
        cs = flat_key[f][:, None]
        flat_key[f] = np.inf
        order[:, step] = s
        # max(cs, d) as opf_compete takes it: cs unless d is greater, so
        # that d = -0.0 offers cs = +0.0; a settled node t has cost[t] <=
        # cs <= offer, so it never improves
        d = rows.take(f, axis=0)
        offer = np.where(d > cs, d, cs)
        np.less(offer, cost, out=better)
        np.copyto(cost, offer, where=better)
        np.copyto(key, offer, where=better)
        np.copyto(pred, s[:, None], where=better)
    return cost, pred, order


def _fit(graph: TrainingGraph, measures: Sequence[distances.DistanceId],
         prim, compete) -> list[TrainedForest]:
    """The forests of k measures on the graph's nodes from their Prim and
    competition (``_loops``); the prototype mask, the unreached check and
    the roots run here, on (k, n) arrays, whichever loops ran.  The
    forests share the graph's arrays, and each holds its own row of the
    fit's (k, n) arrays."""
    k, n = len(measures), len(graph.labels)
    base = np.arange(0, k * n, n)
    proto = _prototype_mask(prim(), graph.labels)
    cost, pred, order = compete(proto)
    if (cost == np.inf).any():
        raise AssertionError("complete graph left nodes unreached")
    # a node's root is its final predecessor's, which was fixed when the
    # predecessor settled: follow flat predecessor links to the prototypes
    up = np.where(proto, base[:, None] + np.arange(n), pred + base[:, None])
    up = up.reshape(-1)
    while (up[up] != up).any():
        up = up[up]
    root = graph.labels[up.reshape(k, n) - base[:, None]]
    # frozen whole, so that each forest's rows are read-only views
    for a in (cost, pred, root, order):
        a.flags.writeable = False
    return [TrainedForest(graph.features, graph.labels, graph.ids, m,
                          cost[j], pred[j], root[j], order[j])
            for j, m in enumerate(measures)]


def train(graph: TrainingGraph) -> TrainedForest:
    """Competition of prototypes over the complete graph.

    Prototypes start with cost 0 and no predecessor; every other node
    starts unreachable.  Nodes are settled in non-decreasing cost order,
    lowest index first among equal costs; settling node s offers each
    remaining node t the cost max(cost[s], d(s, t)) and t switches
    conqueror only when the offer is a strict improvement.
    """
    (fits,) = _fit_stacks(graph, [graph.distance])
    return fits[0]


def _fit_stacks(graph: TrainingGraph,
                measures: Sequence[distances.DistanceId]):
    """Yield the forests of each stack of ``measures`` on the graph's
    nodes, in order: as many as fit in ``_MATRIX_BYTES``, or one at a time
    in a file when not even one matrix fits (``_new_stack``)."""
    X = graph.features
    stack = _new_stack(len(measures), len(X))
    for c0 in range(0, len(measures), len(stack)):
        chunk = measures[c0:c0 + len(stack)]
        yield _fit(graph, chunk, *_loops(chunk, X, stack))


def train_measures(
    features: Sequence[Sequence[float]],
    labels: Sequence[int],
    measures: Sequence[distances.DistanceId | str],
) -> list[TrainedForest]:
    """One forest per measure on the ``graph_from_arrays`` graph of
    ``features`` and ``labels``, in ``measures`` order.

    Each result equals ``train(graph_from_arrays(features, labels, m))``
    field for field.  The rows are validated and converted once.  The
    measures' matrices are filled into stacks of as many matrices as fit
    in ``_MATRIX_BYTES``, sharing their sums, and Prim and the competition
    run once per stack.  When not even one matrix fits, the same path
    fits one measure at a time on a stack in a temporary file.
    """
    measures = [distances.resolve(m) for m in measures]
    if not measures:
        return []
    graph = graph_from_arrays(features, labels, measures[0])
    return [f for fits in _fit_stacks(graph, measures) for f in fits]


def classify(
    forest: TrainedForest,
    query: Sequence[float],
    *,
    early_exit: bool = True,
) -> Prediction:
    """Label a query by the training node offering the cheapest path:
    ``classify_batch`` of the one query, on the numpy block kernels.
    ``early_exit=False`` forces the full scan; the result is identical
    because nodes later in the order cannot offer below their own cost.
    """
    # The compiled loops answer a wine query about 3x faster.  The
    # benchmark's closed-loop client keeps every answer and latency, so it
    # then keeps 3x as many, which grew wine-grid's peak RSS by about 35%:
    # single queries stay on numpy until that client keeps only what it
    # checks (ROADMAP items 1 and 9).  Both paths give the same bits.
    (prediction,) = _classify(forest, [query], early_exit, _numpy_pairwise)
    return prediction


def _numpy_pairwise(measure, A, B) -> np.ndarray:
    return distances._pairwise_many("numpy", [measure], A, B)[0]


def classify_batch(
    forest: TrainedForest,
    queries: Sequence[Sequence[float]],
    *,
    early_exit: bool = True,
) -> list[Prediction]:
    """Classify queries independently; order preserved.

    Nodes are scored in ``order`` with the measure's block
    kernel, one chunk of rows at a time against the queries still open,
    each chunk holding about ``_BLOCK_ENTRIES`` entries.  A query's best
    offer changes only on a strict improvement, so the first node that
    minimizes max(cost, distance) wins.  With ``early_exit`` a query
    closes once its best offer is <= the cost of the next chunk's first
    node; ``early_exit=False`` scores every node.
    Either way the results are the same.  Where the nodes x queries span
    more than one chunk, the queries are split into contiguous groups
    over the threads, each scanned in chunks of ``_BLOCK_ENTRIES`` //
    threads entries (see the module docstring).
    """
    return _classify(forest, queries, early_exit, distances.pairwise)


def _classify(forest: TrainedForest, queries: Sequence[Sequence[float]],
              early_exit: bool, pairwise) -> list[Prediction]:
    """The predictions of ``_scan_nodes`` of the queries over the forest's
    ``_scan``, with the block kernel ``pairwise(measure, A, B)``."""
    Q = _query_matrix(forest, queries)
    if not len(Q):
        return []
    first, best = _scan_nodes(forest, forest._scan, Q, early_exit, pairwise)
    who = forest.order[first]
    return list(map(Prediction, forest.root_labels[who].tolist(),
                    best.tolist(), who.tolist()))


def _scan_nodes(forest: TrainedForest, scan: tuple[np.ndarray, np.ndarray],
                Q: np.ndarray, early_exit: bool, pairwise):
    """``_scan_queries`` of the query rows Q over ``scan``, the forest's
    ``_scan_arrays``, with the block kernel ``pairwise(measure, A, B)``."""
    nodes, cost = scan
    return _scan_queries(cost, len(Q), lambda r0, r1, active: pairwise(
        forest.distance, nodes[:, r0:r1].T, Q[active]), early_exit)


def _query_matrix(forest: TrainedForest,
                  queries: Sequence[Sequence[float]]) -> np.ndarray:
    """The queries as one (m, d) float64 ``np.asarray``: a float64 matrix,
    read-only or not, is not copied.  A lone vector, ragged rows and rows
    of another width than the model's raise DimensionMismatch, and a NaN
    or an infinity raises ValueError naming the query row.

    A non-finite query is not always labelled at the largest cost: of the
    47 measures, 15 (D1 and D5 among them) give some rows holding a NaN
    or an infinity finite distances.  So every query is tested, with one
    ``isfinite`` pass (about 1 us for one query) before the row that
    fails is looked for."""
    d = forest.n_features
    try:
        Q = np.asarray(queries, dtype=np.float64)
    except ValueError:
        # numpy refuses ragged rows: name the first of another width
        for q in queries:
            if len(q) != d:
                raise DimensionMismatch(
                    f"query has dim {len(q)}, model expects {d}") from None
        raise
    if len(Q) and Q.shape[1:] != (d,):
        raise DimensionMismatch(
            f"query has dim {Q.shape[1]}, model expects {d}" if Q.ndim == 2
            else f"queries of shape {Q.shape} are not one row per query")
    Q = Q.reshape(len(Q), d)  # no queries at all: (0, d)
    if not np.isfinite(Q).all():
        _finite_rows(Q, range(len(Q)), "query row")
    return Q


def _scan_queries(cost: np.ndarray, m: int, arcs,
                  early_exit: bool) -> tuple[np.ndarray, np.ndarray]:
    """The scan of ``classify_batch`` over m queries, with node costs
    ``cost`` in scan order; ``arcs(r0, r1, active)`` gives the distances
    from the nodes at scan positions r0:r1 to the queries ``active``.
    Returns each query's winning scan position and its offer.

    Where the n x m entries span more than one chunk, the queries are
    split into contiguous groups, four per thread of ``_each``, which the
    threads take as they free up: a thread that starts late or is
    preempted then holds the others back less.  (On a 2-vCPU VM, the
    first threaded batch of ``_each``'s docstring after 1 s of one-thread
    work beat the one-thread scan in 31 of 36 calls, against 23 of 36
    with one group per thread.)  Each group's chunks hold
    ``_BLOCK_ENTRIES`` // threads entries, so that the threads together
    hold no more than one chunk.  A query's result does not depend on the
    chunks its scan went through.
    """
    best = np.empty(m)
    first = np.empty(m, dtype=np.intp)
    threads = min(_THREADS, m) if len(cost) * m > _BLOCK_ENTRIES else 1
    scan = partial(_scan_group, cost, arcs, early_exit,
                   max(1, _BLOCK_ENTRIES // threads), best, first)
    if threads == 1:  # a single query's path, kept free of _each's cost
        scan(0, m)
    else:
        groups = min(m, 4 * threads)
        bounds = [m * g // groups for g in range(groups + 1)]
        _each(lambda group: scan(*group), list(zip(bounds, bounds[1:])))
    return first, best


def _scan_group(cost: np.ndarray, arcs, early_exit: bool, entries: int,
                best: np.ndarray, first: np.ndarray, lo: int,
                hi: int) -> None:
    """``_scan_queries`` of the queries lo:hi, in chunks of about
    ``entries`` entries, into ``best`` and ``first``."""
    n = len(cost)
    for q0 in range(lo, hi, entries):
        active = np.arange(q0, min(hi, q0 + entries))
        r0 = 0
        while r0 < n and len(active):
            r1 = min(n, r0 + max(1, entries // len(active)))
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


def _labels(forest: TrainedForest, Q: np.ndarray,
            rect: np.ndarray | None) -> list[int]:
    """The labels ``classify_batch`` gives the query rows Q.  Given the
    forest's whole node x query rectangle ``rect`` (rows in sample order),
    which is one chunk of its scan: each query's first minimum offer over
    the rows in ``order``.  Otherwise its early-exit scan
    (``_scan_nodes``) over ``_scan_arrays``, which live only in this
    call."""
    order = forest.order
    if rect is None:
        first, _ = _scan_nodes(forest, _scan_arrays(forest), Q, True,
                               distances.pairwise)
    else:
        # the scan's one chunk: each query's first minimum offer
        c, d = forest.costs[order, None], rect[order]
        first = np.where(c >= d, c, d).argmin(axis=0)
    return forest.root_labels[order[first]].tolist()


def fit_and_label(
    features: Sequence[Sequence[float]],
    labels: Sequence[int],
    measures: Sequence[distances.DistanceId | str],
    queries: Sequence[Sequence[float]],
) -> list[tuple[list[int], float, float]]:
    """For each measure, in order: the labels that ``classify_batch`` of
    its forest on the ``graph_from_arrays`` graph of ``features`` and
    ``labels`` gives ``queries``, its train seconds and its test seconds.

    The forests are fitted in the stacks of ``train_measures``.  Where a
    node x query rectangle fits one ``classify_batch`` chunk, which
    ``classify_batch`` would score whole, the rectangles come in stacks
    within ``_MATRIX_BYTES``, each from one ``pairwise_many`` call in
    which the measures share their sums.  Otherwise each forest is
    scanned as ``classify_batch`` scans it, with early exit, from scan
    arrays built for it alone and dropped once it is tested.

    A measure's seconds are an equal share of its stack's time: the
    matrix fill, Prim and the competition (the first stack also carries
    the validation), then its stack of rectangles or its own scan.
    """
    start = time.perf_counter()
    measures = [distances.resolve(m) for m in measures]
    if not measures:
        return []
    graph = graph_from_arrays(features, labels, measures[0])
    X, forests, train_s = graph.features, [], []
    for fits in _fit_stacks(graph, measures):
        now = time.perf_counter()
        forests += fits
        train_s += [(now - start) / len(fits)] * len(fits)
        start = now
    Q = _query_matrix(forests[0], queries)
    entries = len(X) * len(Q)
    whole = entries <= _BLOCK_ENTRIES
    height = max(1, _MATRIX_BYTES // (8 * max(1, entries))) if whole else 1
    tested, test_s = [], []
    for c0 in range(0, len(forests), height):
        chunk = forests[c0:c0 + height]
        rects = (distances.pairwise_many([f.distance for f in chunk], X, Q)
                 if whole else [None])
        tested += [_labels(f, Q, r) for f, r in zip(chunk, rects)]
        now = time.perf_counter()
        test_s += [(now - start) / len(chunk)] * len(chunk)
        start = now
    return list(zip(tested, train_s, test_s))
