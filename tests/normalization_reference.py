"""Scalar reference for min-max normalization.

The per-value loops that min-max normalization ran over Python floats
before it became array code.  The
library's ``fit_normalization`` and ``normalize`` must reproduce them bit
for bit, signed zeros and NaN included.
"""
from __future__ import annotations


def fit(rows):
    """(minima, maxima) of the rows: a bound is replaced only on a strict
    ``<`` or ``>``, so between -0.0 and +0.0 the first one seen stays."""
    lo = list(rows[0])
    hi = list(rows[0])
    for row in rows[1:]:
        for j, v in enumerate(row):
            if v < lo[j]:
                lo[j] = v
            if v > hi[j]:
                hi[j] = v
    return tuple(lo), tuple(hi)


def apply(lo, hi, v):
    """One vector mapped into [0, 1]; a constant feature maps to 0."""
    out = []
    for x, a, b in zip(v, lo, hi):
        if b == a:
            out.append(0.0)
            continue
        t = (x - a) / (b - a)
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        out.append(t)
    return tuple(out)
