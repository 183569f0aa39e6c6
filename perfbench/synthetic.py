"""noise-fit: one large fit under D3 on seeded uniform noise.

It trains on uniform [0,1)^50 points with 3 random labels (n_train = 2000,
just under the 2048-node cap for a cached matrix, so the program builds its
largest matrix), writes and reloads the model, batch-classifies 500
held-out points and serves single queries from the reloaded archive.  The
n^2*d matrix, Prim and the competition dominate; early exit prunes little
on noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from opfdist import dataio, distances, evaluation, forest

import tracing
from common import (Ledger, closed_loop, predictions_digest, probe_metrics,
                    query_metrics, scan_frac_min, timed_imports)

CODE = "D3"
N_TRAIN = 2000
N_BATCH = 500           # held-out queries per classify_batch pass
N_QUERIES = 2000        # held-out points generated (the client cycles)
SETUP_REPEATS = 3
# A fit costs about 10 s and a batch pass about 5 s, so a run makes few;
# a closed-loop slice of the client follows each step, so the samples are
# spread over the run.
STEPS = ("fit", "batch", "fit", "batch")
SLICE_MIN = 500         # closed-loop queries per slice, at least
FULL_SCAN_CHECKS = 100  # queries re-run with early_exit=False per run


@dataclass(frozen=True)
class Inputs:
    features: list
    labels: list
    queries: list       # held-out points; the batch passes use the first ones
    truth: list


def noise_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    x = rng.random((N_TRAIN, 50))
    y = rng.integers(0, 3, N_TRAIN)
    q = rng.random((N_QUERIES, 50))
    truth = rng.integers(0, 3, N_QUERIES)
    return Inputs(x.tolist(), y.tolist(), q.tolist(), truth.tolist())


def fit(inputs: Inputs):
    return forest.train(forest.graph_from_arrays(inputs.features,
                                                 inputs.labels, CODE))


def round_trip(model, path):
    """Write the model with save_forest and read it back."""
    dataio.save_forest(model, dataio.NormalizationSpec("none"), path)
    return dataio.load_forest(path)[0]


def check_digest(ledger, batch, expected):
    """Batch predictions against the digest recorded for the default seed
    (``expected`` is None for other seeds)."""
    ledger.digests["noise-fit"] = predictions_digest(batch)
    if expected is not None:
        ledger.check("noise-fit: predictions differ from the recorded digest",
                     ledger.digests["noise-fit"] == expected)


def noise_untraced(ctx, expected):
    ledger = Ledger()
    pace = ctx.pace
    setups = []
    for _ in range(SETUP_REPEATS):
        with pace.measure() as m:
            inputs = noise_inputs(ctx.seed)
        setups.append(m)
    batch_queries = inputs.queries[:N_BATCH]

    # Fit, write and reload; the client and the batch passes are served
    # from the reloaded archive.  A closed-loop slice follows every fit and
    # every batch pass.
    start = time.perf_counter()
    fits, batch_times, latencies, single = [], [], [], []

    def loop_slice(k, served):
        lat, preds = closed_loop(
            forest.classify, [(served, q) for q in inputs.queries],
            offset=len(single), min_count=SLICE_MIN,
            deadline=start + ctx.seconds * (k + 1) / len(STEPS),
            ledger=ledger, pace=pace)
        latencies.extend(lat)
        single.extend(preds)

    for k, step in enumerate(STEPS):
        if step == "fit":
            with pace.measure() as m:
                model = fit(inputs)
            fits.append(m)
            loaded = round_trip(model, ctx.work / "noise.opf")
            ledger.ops(1)
            ledger.check("noise-fit: reloaded forest differs", loaded == model)
        else:
            with pace.measure() as m:
                batch = forest.classify_batch(loaded, batch_queries)
                evaluation.accuracy([p.label for p in batch],
                                    inputs.truth[:N_BATCH])
            batch_times.append(m)
            ledger.ops(len(batch))
        loop_slice(k, loaded)
    imports = timed_imports(ctx, SETUP_REPEATS)

    ledger.check("noise-fit: single-query predictions differ from batch",
                 single[:N_BATCH] == batch)
    # The in-memory forest's full scan against the archive's early exit.
    queries = batch_queries[:FULL_SCAN_CHECKS]
    ledger.check("noise-fit: in-memory full scan differs from the reloaded "
                 "archive's early exit",
                 forest.classify_batch(model, queries, early_exit=False)
                 == batch[:FULL_SCAN_CHECKS])
    check_digest(ledger, batch, expected if ctx.default_seed else None)
    nominal = pace.nominal
    train_s = tracing.median(map(nominal, fits))
    batch_s = tracing.median(map(nominal, batch_times))
    metrics = {
        "setup_s": tracing.median(map(nominal, imports))
        + tracing.median(map(nominal, setups)),
        "cells_per_s": 1.0 / (train_s + batch_s),
        "train_s": train_s,
        "batch_queries_per_s": N_BATCH / batch_s,
        **query_metrics(latencies),
    }
    return metrics, ledger, None


def noise_traced(ctx, expected):
    ledger = Ledger()
    inputs = noise_inputs(ctx.seed)
    batch_queries = inputs.queries[:N_BATCH]

    tracer = tracing.Tracer()
    with tracer.span("forest.graph", "fit"):
        graph = forest.graph_from_arrays(inputs.features, inputs.labels, CODE)
    with tracer.span("forest.train", "fit"):
        model = forest.train(graph)
    path = ctx.work / "noise.opf"
    with tracer.span("dataio.save_forest", "fit"):
        dataio.save_forest(model, dataio.NormalizationSpec("none"), path)
    with tracer.span("dataio.load_forest", "fit"):
        loaded, _ = dataio.load_forest(path)
    ledger.check("noise-fit: reloaded forest differs", loaded == model)
    # Tracing overhead: the batch pass untraced, then traced.
    t0 = time.perf_counter()
    plain = forest.classify_batch(model, batch_queries)
    untraced_wall = time.perf_counter() - t0
    with tracer.span("forest.classify", "batch"):
        batch = forest.classify_batch(model, batch_queries)
    traced_wall = tracer.spans[-1].duration

    ledger.ops(1 + 2 * len(batch))
    ledger.check("noise-fit: traced predictions differ", batch == plain)
    metrics = probe(tracer, graph, model, batch_queries, batch, ledger)
    check_digest(ledger, batch, expected if ctx.default_seed else None)
    metrics.update({
        "dataio.save_forest_s": tracer.total("dataio.save_forest"),
        "dataio.load_forest_s": tracer.total("dataio.load_forest"),
        "dataio.archive_bytes": path.stat().st_size,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return metrics, ledger, tracer


# --- shared probes ----------------------------------------------------------------


def probe(tracer, graph, model, queries, early, ledger) -> dict:
    """Time the layers of one fit that the run did not time directly: the
    pairwise kernel pass, prototypes alone and the full-scan classify.
    ``early`` holds the run's early-exit predictions for ``queries``."""
    feats = [s.features for s in graph.samples]
    n = len(feats)
    kernel = distances.distance_function(CODE)
    with tracer.span("distances.pairwise.Lp", "fit"):
        for i in range(n):
            fi = feats[i]
            for j in range(i + 1, n):
                kernel(fi, feats[j])
    with tracer.span("forest.prototypes", "fit"):
        protos = forest.find_prototypes(graph)
    with tracer.span("forest.classify_full", "queries"):
        full = forest.classify_batch(model, queries, early_exit=False)
    ledger.check("find_prototypes differs from train", protos == model.prototypes)
    ledger.check("full scan differs from early exit", full == early)

    pairs = tracing.pair_evals(n, CODE in distances.ASYMMETRIC_CODES)
    out = probe_metrics(tracer, pairs, len(model.prototypes) / n,
                        scan_frac_min(model, early))
    out["distances.pair_evals"] = pairs
    return out
