"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately use different algorithms than the library
(Floyd-Warshall instead of the priority-queue sweep, Kruskal instead of
Prim, full enumeration instead of the rank knapsack) so that agreement
between the two routes is meaningful evidence of correctness.
"""
from __future__ import annotations

import csv
import hashlib
import math
import random
import struct
from pathlib import Path

import pytest

from opfdist import Dataset

WINE_CSV = Path(__file__).resolve().parent.parent / "data" / "wine.csv"


# ---------------------------------------------------------------------------
# Block kernel paths
# ---------------------------------------------------------------------------

def kernel_paths():
    """The paths of the block kernels to test here: the numpy block form,
    and the compiled loops where they built and matched."""
    from opfdist import distances
    return [p for p in ("numpy", "compiled") if p in distances._BLOCKS]


# ---------------------------------------------------------------------------
# Minimax bottleneck-path oracle
# ---------------------------------------------------------------------------

def pairwise_matrix(features, kernel):
    """Full directed distance matrix with a zero diagonal."""
    n = len(features)
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i][j] = kernel(features[i], features[j])
    return m


def floyd_warshall_minimax(matrix):
    """All-pairs minimum-over-paths of the maximum arc weight."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    for i in range(n):
        m[i][i] = 0.0
    for k in range(n):
        row_k = m[k]
        for i in range(n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(n):
                via = mik if mik >= row_k[j] else row_k[j]
                if via < row_i[j]:
                    row_i[j] = via
    return m


def oracle_costs(matrix, prototypes):
    """Expected cost map: cheapest bottleneck path from any prototype.

    Roots enter the competition with cost 0, and that handicap takes part
    in every path maximum, so a negative bottleneck never drags a cost
    below zero.  Only comparisons and max() are involved, which is why the
    test can demand exact float equality with the trained forest.
    """
    closed = floyd_warshall_minimax(matrix)
    n = len(matrix)
    return [
        min(max(0.0, closed[p][t]) for p in prototypes)
        for t in range(n)
    ]


def kruskal_cross_prototypes(matrix, labels):
    """Endpoints of between-class MST edges, by Kruskal with union-find.

    Only meaningful when all edge weights are distinct (unique MST); the
    caller must check ``weights_distinct`` first.
    """
    n = len(matrix)
    edges = sorted(
        (matrix[i][j], i, j) for i in range(n) for j in range(i + 1, n)
    )
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    protos = set()
    for _, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            if labels[i] != labels[j]:
                protos.add(i)
                protos.add(j)
    return frozenset(protos)


def weights_distinct(matrix):
    seen = set()
    n = len(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] in seen:
                return False
            seen.add(matrix[i][j])
    return True


# ---------------------------------------------------------------------------
# Random training graphs
# ---------------------------------------------------------------------------

def random_graph_spec(rng, n_features=5):
    """(features, labels) with 4..12 samples, 2..4 classes, every class
    represented at least once, features uniform in [0, 1]."""
    n = rng.randint(4, 12)
    n_classes = rng.randint(2, min(4, n))
    labels = list(range(n_classes)) + [
        rng.randrange(n_classes) for _ in range(n - n_classes)
    ]
    rng.shuffle(labels)
    features = [
        [rng.random() for _ in range(n_features)] for _ in range(n)
    ]
    return features, labels


# ---------------------------------------------------------------------------
# Exhaustive signed-rank enumeration
# ---------------------------------------------------------------------------

def midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        r = (i + j + 2) / 2.0
        for t in range(i, j + 1):
            ranks[order[t]] = r
        i = j + 1
    return ranks


def exhaustive_signed_rank_p(differences):
    """Two-sided p by enumerating all 2**n sign assignments.

    Zero differences are dropped and tied magnitudes share mid-ranks,
    mirroring the documented behaviour of ``wilcoxon_signed_rank``.
    Doubled ranks keep everything in integers, so comparisons are exact.
    Returns None when every difference is zero (the library defines that
    case as p = 1 with statistic 0).
    """
    nonzero = [d for d in differences if d != 0.0]
    n = len(nonzero)
    if n == 0:
        return None
    doubled = [int(round(2.0 * r)) for r in midranks([abs(d) for d in nonzero])]
    w_plus = sum(r for d, r in zip(nonzero, doubled) if d > 0)
    w_minus = sum(r for d, r in zip(nonzero, doubled) if d < 0)
    w_obs = w_plus if w_plus <= w_minus else w_minus
    count = 0
    for mask in range(1 << n):
        w = 0
        for i in range(n):
            if mask >> i & 1:
                w += doubled[i]
        if w <= w_obs:
            count += 1
    p = 2.0 * count / (1 << n)
    return p if p < 1.0 else 1.0


# ---------------------------------------------------------------------------
# Synthetic datasets
# ---------------------------------------------------------------------------

def separated_dataset(rng, per_class=6):
    """Three classes whose members are nearly identical within a class and
    far apart across classes: three coordinates are constant per class and
    three carry a relative perturbation of at most 0.1%.

    Class scales are small (1, 2, 4) so even the exponential measures keep
    their cross-class gaps.
    """
    features = []
    labels = []
    for cls, scale in enumerate((1.0, 2.0, 4.0)):
        for _ in range(per_class):
            noise = [scale * (1.0 + 0.001 * rng.random()) for _ in range(3)]
            features.append([scale, scale, scale] + noise)
            labels.append(cls)
    return features, labels


def class_separation_holds(features, labels, kernel, asymmetric):
    """True when every ordered inter-class distance strictly exceeds every
    ordered intra-class distance (with i != j)."""
    n = len(features)
    max_intra = -math.inf
    min_inter = math.inf
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if not asymmetric and j < i:
                continue
            d = kernel(features[i], features[j])
            if labels[i] == labels[j]:
                if d > max_intra:
                    max_intra = d
            else:
                if d < min_inter:
                    min_inter = d
    return min_inter > max_intra


def make_dataset(features, labels, name="synthetic", *, n_classes=None,
                 class_names=None):
    """A Dataset of the rows ``features``; ``n_classes`` defaults to the
    number of distinct labels."""
    if n_classes is None:
        n_classes = len(set(labels))
    return Dataset(name=name, features=features, labels=labels,
                   n_classes=n_classes, class_names=class_names)


def cut_writes(monkeypatch, message):
    """Make each file opened for writing keep the first 20 bytes (or
    characters) of its first write and then raise ``OSError(message)``,
    as a writer killed midway would.  ``monkeypatch.undo()`` ends it."""
    real_open = open

    class CutFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:20])
            raise OSError(message)

    def cut_open(file, mode="r", *args, **kw):
        fh = real_open(file, mode, *args, **kw)
        return CutFile(fh) if "w" in mode else fh

    monkeypatch.setattr("builtins.open", cut_open)


def resealed(blob, edit):
    """The archive ``blob`` with ``edit(payload)`` applied and a valid
    length and checksum, so only the structural checks can reject it."""
    payload = bytearray(blob[48:])
    edit(payload)
    return (blob[:8] + struct.pack("<Q", len(payload))
            + hashlib.sha256(payload).digest() + bytes(payload))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def read_wine_table():
    """Features and labels of the bundled UCI wine table, in file order.

    ``data/wine.csv`` (178 x 13, labels 0-2) is ``sklearn.datasets.
    load_wine`` written out by ``scripts/fetch_datasets.py``; floats are
    stored as ``repr`` so they read back bit for bit.
    """
    with open(WINE_CSV, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    features = [[float(v) for v in row[:-1]] for row in rows]
    labels = [int(row[-1]) for row in rows]
    return features, labels


@pytest.fixture(scope="session")
def wine_dataset():
    features, labels = read_wine_table()
    return make_dataset(features, labels, name="wine")


@pytest.fixture()
def rng():
    return random.Random(20260815)
