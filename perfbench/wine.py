"""wine-grid: the paper's protocol on the bundled wine table.

All 47 measures x RUNS repetitions of stratified 2-fold, min_max_01,
through ``opfdist.cli.main(["bench", ...])`` at parallelism 2.  Many
measures over a small n: per-cell orchestration and the 47 kernels cost
more here than the n^2 matrix or Prim.

The traced run drives the same layers itself, one pool task per measure,
and must reproduce the command's reports byte for byte.  Its forest and
distances probes (pairwise kernel pass, prototypes, full-scan classify)
run on the cells of repetition 0 only, to keep the run short.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor

from opfdist import cli, dataio, distances, evaluation, forest

import tracing
from common import (Ledger, closed_loop, probe_metrics, query_metrics,
                    scan_frac_min, timed_imports)

RUNS = 5            # the paper uses 25; 5 keeps one grid call near 10 s
PARALLELISM = 2
NORMALIZATION = "min_max_01"
DATASET = "wine"
SETUP_REPEATS = 3
API_PASSES = 6      # per run, half before and half after the grid call
# Files whose bytes must not change between calls, commits or parallelism.
COMPARED = ("summary.csv", "summary_raw.csv", "cells.csv", "wilcoxon.csv",
            "rank.csv")
CONFIG = """\
seed: {seed}
runs: {runs}
normalization: {normalization}
alpha: 0.05
distances: all
datasets:
  - path: {path}
    name: {name}
    label_column: label
    has_header: true
"""


def codes() -> list[str]:
    return [e.code for e in distances.registry()]


def load(ctx):
    return dataio.load_csv(ctx.root / "data" / "wine.csv", "label", True,
                           name=DATASET)


def write_config(ctx):
    config = ctx.work / "wine.yaml"
    config.write_text(CONFIG.format(seed=ctx.seed, runs=RUNS,
                                    normalization=NORMALIZATION,
                                    path=ctx.root / "data" / "wine.csv",
                                    name=DATASET), encoding="utf-8")
    return config


def run_grid(config, out) -> tuple[int, float]:
    """One ``opfdist bench`` call; its console output is discarded."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(["bench", "--config", str(config), "--out", str(out),
                       "--parallelism", str(PARALLELISM)])
    return rc, time.perf_counter() - t0


def digests(out) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in COMPARED}


def check_grid(ledger, rc, out, expected) -> dict[str, str]:
    """Account one grid call's cells and compare its reports with the
    digests recorded for the default seed (``expected`` None otherwise)."""
    cells = len(codes()) * RUNS * 2
    if rc != 0:
        ledger.ops(cells, failed=cells)
        ledger.mismatches.append(f"opfdist bench exited {rc}")
        return {}
    failures = (out / "failures.csv").read_text(encoding="utf-8").splitlines()[1:]
    ledger.ops(cells, failed=len(failures) * RUNS * 2)
    got = digests(out)
    ledger.digests["wine-grid"] = got
    if expected is not None:
        for name in COMPARED:
            ledger.check(f"{name} sha256 differs from the recorded digest",
                         got[name] == expected[name])
    return got


def split_run0(ds, seed):
    """Repetition 0 as the grid sees it: train on fold 1, test on fold 0,
    normalized on the training half."""
    plan = evaluation.make_splits(ds, seed, 1)[0]
    train = [ds.samples[i] for i in plan.fold_indices(1)]
    test = [ds.samples[i] for i in plan.fold_indices(0)]
    spec = dataio.fit_normalization(train, NORMALIZATION)
    return (dataio.apply_to_samples(spec, train),
            dataio.apply_to_samples(spec, test))


def untraced(ctx, expected):
    ledger = Ledger()
    pace = ctx.pace
    setups = []
    for _ in range(SETUP_REPEATS):
        with pace.measure() as m:
            ds = load(ctx)
            config = write_config(ctx)
            train, test = split_run0(ds, ctx.seed)
        setups.append(m)

    # The repetition-0 cell of every measure through the library API.
    feats = [s.features for s in train]
    labels = [s.label for s in train]
    queries = [s.features for s in test]
    truth = [s.label for s in test]
    # The client sends every (forest, row) pair once per pass, shuffled so
    # the costly measures' queries are spread over the whole pass.
    order = [(m, q) for m in range(len(codes())) for q in range(len(queries))]
    random.Random(ctx.seed).shuffle(order)

    # API passes (train the 47 forests, batch-classify, one closed-loop
    # pass over every pair) before and after the grid call, so the samples
    # are spread over the run and one slow or fast spell of the host moves
    # few of them.
    start = time.perf_counter()
    train_times, batch_times, latencies = [], [], []

    def api_pass(k):
        with pace.measure() as t_train:
            models = [forest.train(forest.graph_from_arrays(feats, labels, c))
                      for c in codes()]
        with pace.measure() as t_batch:
            batch = [forest.classify_batch(m, queries) for m in models]
        train_times.append(t_train)
        batch_times.append(t_batch)
        ledger.ops(len(models) * (1 + len(queries)))
        pairs = [(models[m], queries[q]) for m, q in order]
        lat, single = closed_loop(
            forest.classify, pairs, min_count=len(pairs),
            deadline=start + ctx.seconds * (k + 1) / API_PASSES, ledger=ledger,
            pace=pace)
        latencies.extend(lat)
        return models, batch, single

    for k in range(API_PASSES // 2):
        api_pass(k)
    out = ctx.work / "grid"
    with pace.measure() as grid:
        rc, _ = run_grid(config, out)
    check_grid(ledger, rc, out, expected if ctx.default_seed else None)
    cells = {(c, r, f): acc for _, c, r, f, acc
             in dataio.read_cells_csv(out / "cells.csv")}
    for k in range(API_PASSES // 2, API_PASSES):
        models, batch, single = api_pass(k)
    imports = timed_imports(ctx, SETUP_REPEATS)

    for code, m, preds in zip(codes(), models, batch):
        acc = evaluation.accuracy([p.label for p in preds], truth)
        ledger.check(f"{code} API accuracy differs from cells.csv",
                     acc == cells.get((code, 0, 0)))
        ledger.check(f"{code} full scan differs from early exit",
                     forest.classify_batch(m, queries, early_exit=False) == preds)
    expect = [batch[m][q] for m, q in order]
    ledger.check("single-query predictions differ from batch",
                 all(p == expect[i % len(expect)] for i, p in enumerate(single)))

    nominal = pace.nominal
    metrics = {
        "setup_s": tracing.median(map(nominal, imports))
        + tracing.median(map(nominal, setups)),
        "cells_per_s": len(codes()) * RUNS * 2 / nominal(grid),
        "train_s": tracing.median(map(nominal, train_times)),
        "batch_queries_per_s": len(codes()) * len(queries)
        / tracing.median(map(nominal, batch_times)),
        **query_metrics(latencies),
    }
    return metrics, ledger, None


# --- traced run -------------------------------------------------------------


def _split_cell(dataset, plan, test_fold, tracer, request):
    folds = (plan.fold_indices(0), plan.fold_indices(1))
    train = [dataset.samples[i] for i in folds[1 - test_fold]]
    test = [dataset.samples[i] for i in folds[test_fold]]
    with tracer.span("dataio.normalize", request):
        spec = dataio.fit_normalization(train, NORMALIZATION)
        train = dataio.apply_to_samples(spec, train)
        test = dataio.apply_to_samples(spec, test)
    return train, test


def traced_column(args):
    """Pool task: one measure's column, each public call in a span."""
    dataset, code, seed = args
    tracer = tracing.Tracer()
    accs = {}
    entry = distances.resolve(code)
    with tracer.span("evaluation.column", code):
        with tracer.span("evaluation.splits", code):
            plans = evaluation.make_splits(dataset, seed, RUNS)
        for plan in plans:
            for test_fold in (0, 1):
                req = f"{code}/{plan.run_index}/{test_fold}"
                train, test = _split_cell(dataset, plan, test_fold, tracer, req)
                with tracer.span("forest.graph", req):
                    graph = forest.TrainingGraph(tuple(train), entry)
                with tracer.span("forest.train", req):
                    model = forest.train(graph)
                with tracer.span("forest.classify", req):
                    preds = forest.classify_batch(model, [s.features for s in test])
                with tracer.span("evaluation.accuracy", req):
                    accs[(plan.run_index, test_fold)] = evaluation.accuracy(
                        [p.label for p in preds], [s.label for s in test])
    fits = [tracing.pair_evals(len(dataset.samples) - len(plan.fold_indices(f)),
                               code in distances.ASYMMETRIC_CODES)
            for plan in plans for f in (0, 1)]
    return code, accs, sum(fits), tracer.export()


def probe_column(args):
    """Pool task: repetition 0 of one measure with the forest probes."""
    dataset, code, seed = args
    tracer = tracing.Tracer()
    entry = distances.resolve(code)
    kernel = distances.distance_function(entry)
    asym = code in distances.ASYMMETRIC_CODES
    plan = evaluation.make_splits(dataset, seed, 1)[0]
    cells = []
    for test_fold in (0, 1):
        req = f"{code}/0/{test_fold}"
        train, test = _split_cell(dataset, plan, test_fold, tracing.Tracer(), req)
        feats = [s.features for s in train]
        n = len(feats)
        with tracer.span(f"distances.pairwise.{entry.taxonomy.value}", req):
            for i in range(n):
                fi = feats[i]
                for j in range(0 if asym else i + 1, n):
                    if j != i:
                        kernel(fi, feats[j])
        with tracer.span("forest.graph", req):
            graph = forest.TrainingGraph(tuple(train), entry)
        with tracer.span("forest.prototypes", req):
            protos = forest.find_prototypes(graph)
        with tracer.span("forest.train", req):
            model = forest.train(graph)
        queries = [s.features for s in test]
        with tracer.span("forest.classify", req):
            early = forest.classify_batch(model, queries)
        with tracer.span("forest.classify_full", req):
            full = forest.classify_batch(model, queries, early_exit=False)
        cells.append({
            "pairs": tracing.pair_evals(n, asym),
            "prototype_frac": len(model.prototypes) / n,
            "scan_frac": scan_frac_min(model, early),
            "protos_agree": protos == model.prototypes,
            "full_agrees": full == early,
        })
    return code, cells, tracer.export()


def _warm_pool(ctx_mp):
    pool = ProcessPoolExecutor(max_workers=PARALLELISM, mp_context=ctx_mp)
    # Start both workers (and their imports) before anything is timed.
    list(pool.map(time.sleep, [0.2] * PARALLELISM))
    return pool


def traced(ctx, expected):
    ledger = Ledger()
    tracer = tracing.Tracer()
    with tracer.span("dataio.load", "setup"):
        ds = load(ctx)
    config = write_config(ctx)

    cli_out = ctx.work / "cli"
    rc, cli_wall = run_grid(config, cli_out)
    cli_digests = check_grid(ledger, rc, cli_out,
                             expected if ctx.default_seed else None)
    cli_cells = {(c, r, f): acc for _, c, r, f, acc
                 in dataio.read_cells_csv(cli_out / "cells.csv")}

    mp = multiprocessing.get_context("spawn")
    pool = _warm_pool(mp)
    try:
        tasks = [(ds, code, ctx.seed) for code in codes()]
        t0 = time.perf_counter()
        matrix = evaluation.BenchmarkMatrix((DATASET,), tuple(codes()), RUNS)
        pair_total = 0
        for code, accs, pairs, spans in pool.map(traced_column, tasks):
            tracer.adopt(spans)
            pair_total += pairs
            for (r, f), acc in accs.items():
                matrix.cells[(DATASET, code, r, f)] = acc
        with tracer.span("evaluation.stats", "grid"):
            summary = evaluation.summarize(matrix)
            stats = evaluation.friedman_nemenyi(matrix, 0.05)
        out = ctx.work / "traced"
        with tracer.span("dataio.write_reports", "grid"):
            written = dataio.write_reports(summary, stats, out,
                                           datasets=matrix.datasets,
                                           classifiers=matrix.classifiers,
                                           matrix=matrix)
        traced_wall = time.perf_counter() - t0

        probe = tracing.Tracer()
        probe_cells = []
        for code, cells, spans in pool.map(probe_column, tasks):
            probe.adopt(spans)
            probe_cells += [dict(c, code=code) for c in cells]
    finally:
        pool.shutdown(wait=True)

    ledger.ops(len(matrix.cells))
    ledger.check("traced accuracies differ from the command's cells.csv",
                 {(c, r, f): a for (_, c, r, f), a in matrix.cells.items()}
                 == cli_cells)
    ledger.check("traced reports differ from the command's reports",
                 digests(out) == cli_digests)
    for c in probe_cells:
        ledger.check(f"{c['code']} full scan differs from early exit",
                     c["full_agrees"])
        ledger.check(f"{c['code']} find_prototypes differs from train",
                     c["protos_agree"])

    columns = tracer.by_request("evaluation.column")
    load_s = tracer.total("dataio.load")
    stats_s = tracer.total("evaluation.stats")
    reports_s = tracer.total("dataio.write_reports")
    layer_total = (load_s + sum(columns.values()) / PARALLELISM
                   + stats_s + reports_s)
    metrics = {
        "dataio.load_s": load_s,
        "dataio.normalize_s": tracer.total("dataio.normalize"),
        "dataio.normalize_calls": sum(
            1 for s in tracer.spans if s.name == "dataio.normalize"),
        "dataio.write_reports_s": reports_s,
        "dataio.report_bytes": sum(p.stat().st_size for p in written),
        "distances.pair_evals": pair_total,
        "evaluation.splits_s": tracer.total("evaluation.splits"),
        "evaluation.column_s": sum(columns.values()),
        "evaluation.column_max_s": max(columns.values()),
        "evaluation.worker_utilization":
            sum(columns.values()) / (cli_wall * PARALLELISM),
        "evaluation.stats_s": stats_s,
        "evaluation.wilcoxon_tests": len(stats.wilcoxon),
        "cli.overhead_s": cli_wall - layer_total,
        "trace.overhead_s": traced_wall - cli_wall,
    }
    metrics.update(probe_metrics(
        probe, sum(c["pairs"] for c in probe_cells),
        sum(c["prototype_frac"] for c in probe_cells) / len(probe_cells),
        sum(c["scan_frac"] for c in probe_cells) / len(probe_cells)))
    # Probe spans repeat grid span names; keep them apart in the trace.
    tracer.adopt([(i, f"probe.{name}", start, end, parent, req)
                  for i, name, start, end, parent, req in probe.export()])
    return metrics, ledger, tracer
