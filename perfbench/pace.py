"""Host pace: a fixed pure-Python reference slice, run between the
benchmark's own operations, so timings can be scaled to one nominal host
speed.

The single-thread speed of a shared VM drifts by tens of percent, both
within a second and over minutes, and independently on each CPU.  opfdist
is plain Python (float loops over tuples, list indexing, calls), and so is
the reference slice, so both slow down together.  A timing divided by the
slice's time at the same moment and multiplied by ``NOMINAL_S`` reads as
seconds on a host that runs the slice in exactly ``NOMINAL_S``.  A faster
or slower program still moves the scaled figure; a faster or slower host
does not.

A closed-loop client runs one slice after every ``SLICE_EVERY_S`` of
queries, and each chunk of queries is scaled by the slices run inside it,
which tracks the pace within a second.  A span that cannot be split (a
fit, a batch pass, a grid call, the import) is scaled by the median slice
within ``WINDOW_S`` of it, which tracks the drift over tens of seconds;
the workloads run closed-loop queries next to each such span so that
window holds enough slices.

The slice, its inputs and ``NOMINAL_S`` are fixed: changing any of them
changes every scaled figure.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

NOMINAL_S = 0.0004      # one slice on the reference host at its usual speed
SLICE_EVERY_S = 0.002   # closed-loop query time between two slices
WINDOW_S = 10.0         # slices this close to a span set its pace...
MIN_WINDOW_SLICES = 100  # ...if there are this many, else the whole run's

_rng = random.Random(20220208)
_VECTORS = [tuple(_rng.random() for _ in range(16)) for _ in range(64)]
_QUERIES = [tuple(_rng.random() for _ in range(16)) for _ in range(2)]


def _slice() -> float:
    """Nearest of 64 vectors to each of 2 queries, Euclidean, by scan."""
    total = 0.0
    for q in _QUERIES:
        best = math.inf
        for v in _VECTORS:
            d = math.sqrt(sum((a - b) * (a - b) for a, b in zip(q, v)))
            if d < best:
                best = d
        total += best
    return total


def _median(values: list[float]) -> float:
    vals = sorted(values)
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0


class Pace:
    """Times of the reference slice (``slices``) and the perf_counter
    value at the end of each (``stamps``)."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.stamps: list[float] = []

    def slice(self) -> float:
        """Run the reference slice once; returns its seconds."""
        t0 = time.perf_counter()
        _slice()
        t1 = time.perf_counter()
        self.slices.append(t1 - t0)
        self.stamps.append(t1)
        return t1 - t0

    @property
    def ratio(self) -> float:
        """Median slice over NOMINAL_S: above 1 means a slower host than
        the reference."""
        return _median(self.slices) / NOMINAL_S if self.slices else math.nan

    def ratio_near(self, start: float, end: float) -> float:
        """Like ``ratio``, over the slices within WINDOW_S of [start, end]
        when there are at least MIN_WINDOW_SLICES of them."""
        near = [s for s, t in zip(self.slices, self.stamps)
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < MIN_WINDOW_SLICES:
            return self.ratio
        return _median(near) / NOMINAL_S

    @contextmanager
    def measure(self):
        """Time the block; the yielded dict gets ``start``, ``end`` and
        ``raw`` (wall seconds).  Pass it to ``nominal`` once the slices
        after it are in."""
        span: dict[str, float] = {"start": time.perf_counter()}
        yield span
        span["end"] = time.perf_counter()
        span["raw"] = span["end"] - span["start"]

    def nominal(self, span: dict[str, float]) -> float:
        """A measured span in seconds at the nominal pace around it."""
        return span["raw"] / self.ratio_near(span["start"], span["end"])


def chunk_scale(slice_times: list[float]) -> float:
    """Factor from wall to nominal seconds for work interleaved with
    reference slices that took ``slice_times``."""
    return NOMINAL_S * len(slice_times) / sum(slice_times)
