"""Scalar reference for OPF training and classification.

Plain-Python loops over the hand-written kernels of ``distance_reference``,
not the library's: the list-of-lists distance matrix (upper triangle
mirrored for symmetric measures), Prim's algorithm, the prototype
competition and the full classification scan.  The library's numpy paths
must reproduce these field for field and bit for bit.
"""
from __future__ import annotations

import math

from opfdist import ASYMMETRIC_CODES, TrainedForest

from distance_reference import distance_function


def distance_rows(graph):
    """Full matrix of d(x_i, x_j) with a zero diagonal, as a list of rows.

    Symmetric measures evaluate the upper triangle and mirror it, which is
    how the library orients every off-diagonal entry.
    """
    kernel = distance_function(graph.distance.code)
    feats = [s.features for s in graph.samples]
    n = len(feats)
    symmetric = graph.distance.code not in ASYMMETRIC_CODES
    mat = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if symmetric else 0, n):
            if j != i:
                mat[i][j] = kernel(feats[i], feats[j])
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                mat[j][i] = mat[i][j]
    return mat


def mst_parents(mat):
    """Prim's algorithm from node 0; parent[i] = -1 for the root.

    Extraction takes the lowest-index node among minimum keys; an equal
    competing key never displaces the recorded parent.
    """
    n = len(mat)
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
        row = mat[u]
        for v in range(n):
            if not in_tree[v] and row[v] < key[v]:
                key[v] = row[v]
                parent[v] = u
    return parent


def find_prototypes(graph, mat):
    labels = [s.label for s in graph.samples]
    protos = set()
    for child, par in enumerate(mst_parents(mat)):
        if par >= 0 and labels[child] != labels[par]:
            protos.add(child)
            protos.add(par)
    return frozenset(protos)


def train(graph):
    """The competition loop: settle the cheapest node (lowest index first),
    offer max(cost[s], d(s, t)), switch only on a strict improvement."""
    mat = distance_rows(graph)
    prototypes = find_prototypes(graph, mat)
    n = len(graph.samples)
    labels = [s.label for s in graph.samples]
    cost = [math.inf] * n
    pred = [None] * n
    root_label = [-1] * n
    done = [False] * n
    for p in prototypes:
        cost[p] = 0.0
        root_label[p] = labels[p]
    ordered = []
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
        row = mat[s]
        for t in range(n):
            if done[t] or cost[t] <= cs:
                continue
            d = row[t]
            offer = cs if cs >= d else d
            if offer < cost[t]:
                cost[t] = offer
                pred[t] = s
                root_label[t] = rl
    assert len(ordered) == n
    # a forest records its prototypes as the nodes without a predecessor
    assert {t for t in range(n) if pred[t] is None} == prototypes
    return TrainedForest(
        features=[s.features for s in graph.samples],
        labels=labels,
        ids=[s.id for s in graph.samples],
        distance=graph.distance,
        costs=cost,
        preds=[-1 if p is None else p for p in pred],
        root_labels=root_label,
        order=ordered,
    )


def full_scan_reference(forest, kernel, query):
    """Classification without the early exit, written independently:
    scan every node in order, keep the first strict minimum."""
    best = math.inf
    who = -1
    for s in forest.ordered_nodes:
        cs = forest.cost[s]
        d = kernel(forest.samples[s].features, query)
        offer = cs if cs >= d else d
        if offer < best:
            best = offer
            who = s
    return forest.root_label[who], best, who
