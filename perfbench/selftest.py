"""Self-tests of the benchmark's own arithmetic on tiny inputs.

Run before every measurement; ``run.py --selftest`` runs only these.
"""

from __future__ import annotations

import pace
import tracing


def _percentile_rule(problems: list[str]) -> None:
    # p99 needs 1000 samples for ten above it; p99.9 needs 10000.
    cases = {9: None, 20: 500, 99: 500, 100: 900, 999: 900, 1000: 990,
             2000: 990, 9999: 990, 10000: 999}
    for n, want in cases.items():
        got = tracing.tail_percentile(n)
        if got != want:
            problems.append(f"tail_percentile({n}) = {got}, want {want}")
    values = [float(v) for v in range(1, 1001)]
    for pm, want in ((500, 500.0), (990, 990.0), (999, 999.0)):
        got = tracing.percentile(values, pm)
        if got != want:
            problems.append(f"percentile(1..1000, {pm}) = {got}, want {want}")
    if tracing.median([3.0, 1.0, 2.0, 10.0]) != 2.5:
        problems.append("median of an even count is not the midpoint")


def _self_time(problems: list[str]) -> None:
    S = tracing.Span
    spans = [
        S(0, "root", 0.0, 10.0, None, "r"),
        S(1, "a", 1.0, 4.0, 0, "r"),
        S(2, "b", 3.0, 6.0, 0, "r"),      # overlaps a: union 1..6
        S(3, "a.inner", 1.5, 2.5, 1, "r"),
        S(4, "late", 9.0, 12.0, 0, "r"),  # runs past its parent: 9..10 counts
    ]
    want = {0: 10.0 - 5.0 - 1.0, 1: 3.0 - 1.0, 2: 3.0, 3: 1.0, 4: 3.0}
    got = tracing.self_times(spans)
    for span_id, value in want.items():
        if abs(got[span_id] - value) > 1e-12:
            problems.append(f"self time of span {span_id} = {got[span_id]}, "
                            f"want {value}")
    by_name = tracing.self_time_by_name(spans)
    if abs(by_name["a"] - 2.0) > 1e-12:
        problems.append(f"self time by name a = {by_name['a']}, want 2.0")

    tracer = tracing.Tracer()
    with tracer.span("outer", "q"):
        with tracer.span("inner", "q"):
            pass
    other = tracing.Tracer()
    with other.span("outer", "w"):
        pass
    tracer.adopt(other.export())
    ids = [s.span_id for s in tracer.spans]
    inner = next(s for s in tracer.spans if s.name == "inner")
    outer = next(s for s in tracer.spans if s.name == "outer" and s.request == "q")
    if len(set(ids)) != len(ids):
        problems.append("adopted spans reuse span ids")
    if inner.parent != outer.span_id:
        problems.append("a nested span does not point at its parent")
    if not (outer.start <= inner.start <= inner.end <= outer.end):
        problems.append("a nested span lies outside its parent")


def _pair_evals(problems: list[str]) -> None:
    for n, asym, want in ((2, False, 1), (2, True, 2), (4, False, 6),
                          (4, True, 12), (89, False, 3916),
                          (2000, False, 1999000)):
        got = tracing.pair_evals(n, asym)
        if got != want:
            problems.append(f"pair_evals({n}, asymmetric={asym}) = {got}, "
                            f"want {want}")
    # Brute force: count the (i, j) pairs a cached fit evaluates.
    for n in range(2, 7):
        sym = sum(1 for i in range(n) for j in range(i + 1, n))
        asym = sum(1 for i in range(n) for j in range(n) if i != j)
        if (tracing.pair_evals(n, False), tracing.pair_evals(n, True)) != (sym, asym):
            problems.append(f"pair_evals disagrees with enumeration at n={n}")


def _pace_scale(problems: list[str]) -> None:
    n = pace.NOMINAL_S
    for slices, want in (([n], 1.0), ([2 * n, 2 * n], 0.5),
                         ([n, 3 * n], 0.5), ([n / 2], 2.0)):
        got = pace.chunk_scale(slices)
        if abs(got - want) > 1e-12:
            problems.append(f"pace.chunk_scale({slices}) = {got}, "
                            f"want {want}")
    # Spans that cannot be split go by the median slice near them, or of
    # the whole run when too few slices are near.
    p = pace.Pace()
    k = pace.MIN_WINDOW_SLICES
    w = pace.WINDOW_S
    p.slices = [n] * k + [3 * n] * (k + 1)
    p.stamps = [0.0] * k + [100.0] * (k + 1)
    for start, end, want in ((0.0, 1.0, 4.0), (95.0, 100.0, 4.0 / 3),
                             (2 * w, 3 * w, 4.0 / 3), (-w, 0.0, 4.0)):
        got = p.nominal({"start": start, "end": end, "raw": 4.0})
        if abs(got - want) > 1e-12:
            problems.append(f"Pace.nominal of 4 s over [{start}, {end}] = "
                            f"{got}, want {want}")
    p.slices, p.stamps = p.slices[:k - 1], p.stamps[:k - 1]
    if abs(p.nominal({"start": 0.0, "end": 1.0, "raw": 4.0}) - 4.0) > 1e-12:
        problems.append("Pace.nominal with too few slices near is not "
                        "scaled by the whole run")
    p = pace.Pace()
    p.slice()
    with p.measure() as m:
        pass
    if len(p.slices) != 1 or not m["raw"] >= 0:
        problems.append("Pace.slice or Pace.measure records the wrong thing")


def run() -> list[str]:
    """Every failed expectation as a line of text; empty when all hold."""
    problems: list[str] = []
    _percentile_rule(problems)
    _self_time(problems)
    _pair_evals(problems)
    _pace_scale(problems)
    return problems
