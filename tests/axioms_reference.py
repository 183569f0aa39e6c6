"""Per-pair reference for ``opfdist.check_axioms``.

The loops below scan every pair and triple in sample-index order and
stop at the first counterexample per axiom, evaluating each arc with the
hand-written reference kernels of ``distance_reference``.  The library
takes its matrix from one ``pairwise`` call and finds each first
counterexample with numpy masks; its reports, message text included,
must equal these.
"""
from __future__ import annotations

from opfdist.distances import AxiomCheck, AxiomReport

import distance_reference


def _fmt_vec(v):
    return "(" + ", ".join(f"{c:.6g}" for c in v) + ")"


def check_axioms(code, samples, tolerance=1e-9):
    n = len(samples)
    fn = distance_reference.distance_function(code)
    d = [[fn(samples[i], samples[j]) for j in range(n)] for i in range(n)]

    non_neg = AxiomCheck(True)
    for i in range(n):
        if not non_neg.passed:
            break
        for j in range(n):
            if d[i][j] < -tolerance:
                non_neg = AxiomCheck(False, (
                    f"d(x, y) = {d[i][j]!r} < 0 for x={_fmt_vec(samples[i])}, "
                    f"y={_fmt_vec(samples[j])}"))
                break

    identity = AxiomCheck(True)
    for i in range(n):
        if abs(d[i][i]) > tolerance:
            identity = AxiomCheck(False, (
                f"d(x, x) = {d[i][i]!r} for x={_fmt_vec(samples[i])}"))
            break

    symmetry = AxiomCheck(True)
    for i in range(n):
        if not symmetry.passed:
            break
        for j in range(i + 1, n):
            if abs(d[i][j] - d[j][i]) > tolerance:
                symmetry = AxiomCheck(False, (
                    f"d(x, y) = {d[i][j]!r} but d(y, x) = {d[j][i]!r} for "
                    f"x={_fmt_vec(samples[i])}, y={_fmt_vec(samples[j])}"))
                break

    triangle = AxiomCheck(True)
    for i in range(n):
        if not triangle.passed:
            break
        for j in range(n):
            if not triangle.passed:
                break
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if d[i][j] > d[i][k] + d[k][j] + tolerance:
                    triangle = AxiomCheck(False, (
                        f"d(x, z) = {d[i][j]!r} exceeds d(x, y) + d(y, z) = "
                        f"{d[i][k] + d[k][j]!r} for x={_fmt_vec(samples[i])}, "
                        f"y={_fmt_vec(samples[k])}, z={_fmt_vec(samples[j])}"))
                    break

    return AxiomReport(code, non_neg, identity, symmetry, triangle)
