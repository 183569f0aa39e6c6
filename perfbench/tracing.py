"""Spans recorded around calls into opfdist, and the arithmetic the
benchmark reports: self time, the tail-percentile rule, pair counts.

Everything here is plain Python with no opfdist import, so the self-tests
in ``selftest.py`` can check it on tiny inputs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the enclosing span's id (None at the
    top); spans of one request (a grid cell, a query) share ``request``."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; nothing is written until the run ends.

    Timestamps come from ``time.perf_counter``, which on Linux reads the
    system-wide monotonic clock, so spans recorded in worker processes can
    be merged with ``adopt`` and compared with the parent's.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, request: str = ""):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, request))

    def adopt(self, spans: list[tuple]) -> None:
        """Merge spans exported by another tracer (``export``), renumbering
        their ids so they cannot collide with ours."""
        offset = self._next_id
        top = 0
        for span_id, name, start, end, parent, request in spans:
            self.spans.append(Span(
                span_id + offset, name, start, end,
                None if parent is None else parent + offset, request))
            top = max(top, span_id + 1)
        self._next_id += top

    def export(self) -> list[tuple]:
        """Spans as plain tuples, picklable across processes."""
        return [(s.span_id, s.name, s.start, s.end, s.parent, s.request)
                for s in self.spans]

    def write(self, path) -> None:
        """All spans as JSON lines, with each span's self time."""
        st = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "request": s.request,
                    "self_s": st[s.span_id]}) + "\n")

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def by_request(self, name: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.name == name:
                out[s.request] += s.duration
        return dict(out)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end))
                   for a, b in children.get(s.span_id, ())
                   if min(b, s.end) > max(a, s.start)]
        out[s.span_id] = s.duration - _covered(clipped)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    st = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += st[s.span_id]
    return dict(out)


# Percentiles are given in tenths of a percent so the rank arithmetic is
# exact: 999 is p99.9.
PERCENTILES_PERMILLE = (500, 900, 990, 999)
TAIL_MIN_BEYOND = 10


def rank_of(permille: int, n: int) -> int:
    """1-based nearest-rank position of a percentile among n samples."""
    return max(1, -(-permille * n // 1000))


def tail_percentile(n: int) -> int | None:
    """Highest percentile (per mille) with at least TAIL_MIN_BEYOND samples
    above its rank, or None when even the median has too few."""
    best = None
    for pm in PERCENTILES_PERMILLE:
        if n - rank_of(pm, n) >= TAIL_MIN_BEYOND:
            best = pm
    return best


def percentile(sorted_values: list[float], permille: int) -> float:
    return sorted_values[rank_of(permille, len(sorted_values)) - 1]


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def pair_evals(n: int, asymmetric: bool) -> int:
    """Kernel evaluations one fit makes on n training nodes when the
    distance matrix is cached (n <= 2048): each unordered pair once, or
    each ordered pair for a measure that is not symmetric."""
    return n * (n - 1) if asymmetric else n * (n - 1) // 2

