"""Pieces every workload uses: operation accounting, the closed-loop
single-query client, the batch pass and the process memory reading."""

from __future__ import annotations

import hashlib
import resource
import subprocess
import sys
import time
import traceback
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

from opfdist import distances

import tracing
from pace import SLICE_EVERY_S, Pace, chunk_scale


CHUNK = 100   # queries per chunk of a closed loop's throughput and median


@dataclass(frozen=True)
class Context:
    """What one benchmark run was asked to do."""

    root: Path       # checkout root (holds src/ and data/)
    work: Path       # scratch directory of this run, removed at exit
    seed: int
    seconds: float
    default_seed: bool
    pace: Pace       # reference slices that scale end-to-end timings


class Ledger:
    """Counts operations and failures; ``error_rate`` is failed/attempted.

    A failed operation is a failed grid column (each of its cells), a
    classify call that raised, or an output check that did not match.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.digests: dict[str, object] = {}

    def ops(self, count: int, failed: int = 0) -> None:
        self.attempted += count
        self.failed += failed

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(what)
        return ok

    def exception(self, what: str) -> None:
        """Record the exception being handled as one failed operation."""
        self.failed += 1
        self.mismatches.append(f"{what}: exception")
        traceback.print_exc(file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def predictions_digest(preds) -> str:
    """sha256 over (label, exact cost, conqueror) of each prediction."""
    h = hashlib.sha256()
    for p in preds:
        h.update(f"{p.label},{p.cost!r},{p.conqueror}\n".encode("ascii"))
    return h.hexdigest()


IMPORT_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import opfdist; from opfdist import cli")


def timed_imports(ctx: Context, count: int) -> list[dict]:
    """``count`` times, start a fresh interpreter that imports opfdist and
    its cli (which pulls in yaml) from the checkout; returns the span
    (``Pace.measure``) of each whole child, which has ended by then.

    Workloads call this after their last closed loop, so the children
    disturb no other measurement and the loop's slices lie near them."""
    spans = []
    for _ in range(count):
        with ctx.pace.measure() as span:
            subprocess.run([sys.executable, "-c", IMPORT_CODE,
                            str(ctx.root / "src")], check=True,
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        spans.append(span)
    return spans


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def closed_loop(classify, pairs, *, min_count, deadline, ledger, pace,
                offset=0):
    """One client, next query only after the previous answer.

    Cycles through ``pairs`` of (model, query), starting at ``offset``, in
    chunks of CHUNK queries.  Runs at least ``min_count`` queries and keeps
    going until ``deadline`` (a perf_counter value), in whole chunks.  After
    every ``SLICE_EVERY_S`` of query time (and at the end of each chunk) it
    runs one ``pace`` reference slice, outside the timed calls.  Returns
    per-query seconds, each scaled to the nominal host speed by the slices
    of its chunk, and the predictions (None where a call raised).
    """
    latencies: list[float] = []
    preds = []
    n = len(pairs)
    clock = time.perf_counter
    i = 0
    while i < min_count or clock() < deadline:
        chunk, slices, since = [], [], 0.0
        for _ in range(CHUNK):
            model, q = pairs[(offset + i) % n]
            t0 = clock()
            try:
                p = classify(model, q)
            except Exception:
                ledger.exception(f"classify query {i}")
                p = None
            t = clock() - t0
            chunk.append(t)
            preds.append(p)
            i += 1
            since += t
            if since >= SLICE_EVERY_S:
                slices.append(pace.slice())
                since = 0.0
        if since > 0.0 or not slices:
            slices.append(pace.slice())
        factor = chunk_scale(slices)
        latencies += [t * factor for t in chunk]
    ledger.ops(len(latencies))
    return latencies, preds


def query_metrics(latencies: list[float]) -> dict[str, float]:
    """Throughput, median and p99 of a closed loop's per-query latencies
    (already scaled to the nominal host speed).

    Throughput and median are medians over consecutive CHUNK-query chunks
    (of each chunk's rate and median), so a slow or fast spell of the host
    moves few chunks.  The p99 is over all queries and is reported only
    when the tail rule (at least ten samples above it) allows p99, which
    the workloads guarantee by running at least 1000 queries.
    """
    lat = sorted(latencies)
    tail = tracing.tail_percentile(len(lat))
    if tail is None or tail < 990:
        raise ValueError(f"{len(lat)} queries are too few for a p99")
    chunks = [latencies[i:i + CHUNK]
              for i in range(0, len(latencies) - CHUNK + 1, CHUNK)]
    return {
        "queries_per_s": tracing.median(len(c) / sum(c) for c in chunks),
        "query_p50_ms": tracing.median(tracing.median(c) for c in chunks) * 1e3,
        "query_p99_ms": tracing.percentile(lat, 990) * 1e3,
    }


def scan_frac_min(model, preds) -> float:
    """Mean share of training nodes whose cost lies below each query's
    final offer: a lower bound on the early-exit scan, from public fields."""
    costs = sorted(model.cost)
    return sum(bisect_left(costs, p.cost) for p in preds) / (len(costs) * len(preds))


def probe_metrics(tracer: tracing.Tracer, pairs: int, prototype_frac: float,
                  scan_frac: float) -> dict:
    """forest.* and distances.* figures from probe spans: the pairwise pass
    (``distances.pairwise.<Taxonomy>``, over ``pairs`` kernel calls),
    ``forest.prototypes``, ``forest.train``, ``forest.classify`` and
    ``forest.classify_full`` over the same fits and queries."""
    pairwise = {t.value: tracer.total(f"distances.pairwise.{t.value}")
                for t in distances.Taxonomy}
    pair_s = sum(pairwise.values())
    protos_s = tracer.total("forest.prototypes")
    early_s = tracer.total("forest.classify")
    full_s = tracer.total("forest.classify_full")
    out = {f"distances.pairwise_s.{t}": v for t, v in pairwise.items()}
    out.update({
        "distances.ns_per_pair": pair_s / pairs * 1e9,
        "forest.graph_s": tracer.total("forest.graph"),
        "forest.prototypes_s": protos_s,
        "forest.prim_s": protos_s - pair_s,
        "forest.compete_s": tracer.total("forest.train") - protos_s,
        "forest.prototype_frac": prototype_frac,
        "forest.classify_s": early_s,
        "forest.classify_full_s": full_s,
        "forest.early_exit_gain": full_s / early_s,
        "forest.scan_frac_min": scan_frac,
    })
    return out
