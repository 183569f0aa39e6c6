"""Catalogue of 47 distance measures, each as a scalar and a block kernel.

Each measure is implemented exactly as its printed formula, including the
exponential variants of the entropy family (Jeffreys, Jensen, Jensen-Shannon,
K-Divergence, Kullback-Leibler, Topsoe use e^t where classical definitions
use logarithms).  Several measures therefore violate one or more metric
axioms on purpose; ``check_axioms`` measures that empirically and the
registry records it analytically.

Degenerate-input policy (applies in permissive mode, which is the default):

* a per-term division whose denominator is exactly 0 contributes 0 when the
  numerator is also 0, otherwise the denominator is replaced by ``EPS``;
* ``log`` of 0 evaluates as ``log(EPS)``;
* a negative square-root radicand is clamped to 0;
* every exponent fed to ``exp`` is clamped at ``EXP_MAX``.

Under this policy evaluation is total and finite for any finite input whose
components are bounded by roughly 1e90 in magnitude (far beyond any feature
data; past that, float64 products themselves overflow).  Values that still
overflow to infinity are clamped to the largest finite float so downstream
min/max machinery keeps working.

Summation is plain sequential accumulation in component order, so repeated
evaluation of identical inputs is identical bit for bit.  All functions are
pure; there is no shared state.

``pairwise`` evaluates a measure on every pair of rows of two matrices with
numpy.  Its block kernels accumulate feature by feature in the scalar
kernels' order, mirror every scalar conditional with ``np.where`` on the same
comparison, and apply libm ``exp``/``log`` (through ``math``) per element,
so each entry equals the scalar kernel's result bit for bit.  ``np.exp`` and
``np.log`` are not used: their SIMD implementations round differently from
libm on a fraction of inputs, which can flip a tie in the forest.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainViolation, EmptyInput

FeatureVector = Sequence[float]
Kernel = Callable[[FeatureVector, FeatureVector], float]
# (A, B) -> raw matrix out[i, j] = kernel(A[i], B[j]), before the finite clamp.
BlockKernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Substitute for exact-zero denominators and log(0) arguments.
EPS = 1e-10
# Exponent ceiling: exp(500) ~ 1.4e217 leaves headroom for the surrounding
# multiplications and sums to stay finite.
EXP_MAX = 500.0

_FMAX = sys.float_info.max


def _div(num: float, den: float) -> float:
    if den == 0.0:
        if num == 0.0:
            return 0.0
        return num / EPS
    return num / den


def _mul(a: float, b: float) -> float:
    # A zero factor wins even when the other sum overflowed to inf
    # (0 * inf is NaN in IEEE arithmetic but the true product is 0).
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _finite(v: float) -> float:
    if v == math.inf:
        return _FMAX
    if v == -math.inf:
        return -_FMAX
    if v != v:
        # Overflow of mixed-sign intermediates (inputs far outside the
        # documented magnitude range); treat as "maximally far".
        return _FMAX
    return v


def _exp(t: float) -> float:
    if t > EXP_MAX:
        t = EXP_MAX
    return math.exp(t)


def _sqrt(v: float) -> float:
    if v < 0.0:
        return 0.0
    return math.sqrt(v)


def _log(v: float) -> float:
    return math.log(v if v > 0.0 else EPS)


# --- kernels -----------------------------------------------------------
# One function per printed formula; x and y are same-length sequences.


def _chebyshev(x, y):
    best = 0.0
    for a, b in zip(x, y):
        v = abs(a - b)
        if v > best:
            best = v
    return best


def _chi_squared(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += _div(d * d, abs(a + b))
    return _sqrt(s)


def _euclidean(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += d * d
    return math.sqrt(s)


def _gaussian(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += d * d
    return math.exp(-math.sqrt(s))


def _log_euclidean(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += d * d
    return _log(math.sqrt(s))


def _manhattan(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += abs(a - b)
    return s


def _bray_curtis(x, y):
    num = 0.0
    den = 0.0
    for a, b in zip(x, y):
        num += abs(a - b)
        den += a + b
    return _div(num, den)


def _canberra(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += _div(abs(a - b), abs(a) + abs(b))
    return s


def _gower(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += abs(a - b)
    n = len(x)
    return s / n if n else 0.0


def _kulczynski(x, y):
    num = 0.0
    den = 0.0
    for a, b in zip(x, y):
        num += abs(a - b)
        den += a if a < b else b
    return _div(num, den)


def _lorentzian(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += _exp(1.0 + abs(a - b))
    return s


def _non_intersection(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += abs(a - b)
    return 0.5 * s


def _soergel(x, y):
    num = 0.0
    den = 0.0
    for a, b in zip(x, y):
        num += abs(a - b)
        den += a if a > b else b
    return _div(num, den)


def _chord(x, y):
    sxy = 0.0
    sxx = 0.0
    syy = 0.0
    for a, b in zip(x, y):
        sxy += a * b
        sxx += a * a
        syy += b * b
    return _sqrt(2.0 - 2.0 * _div(sxy, _mul(sxx, syy)))


def _cosine(x, y):
    sxy = 0.0
    sxx = 0.0
    syy = 0.0
    for a, b in zip(x, y):
        sxy += a * b
        sxx += a * a
        syy += b * b
    return 1.0 - _div(sxy, _mul(sxx, syy))


def _dice(x, y):
    sxy = 0.0
    sxx = 0.0
    syy = 0.0
    for a, b in zip(x, y):
        sxy += a * b
        sxx += a * a
        syy += b * b
    return 1.0 - _div(sxy, sxx + syy)


def _jaccard(x, y):
    sxy = 0.0
    sxx = 0.0
    syy = 0.0
    sdd = 0.0
    for a, b in zip(x, y):
        d = a - b
        sdd += d * d
        sxy += a * b
        sxx += a * a
        syy += b * b
    return _div(sdd, sxx + syy - sxy)


def _bhattacharyya(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += _sqrt(a * b)
    return -_exp(s)


def _hellinger(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = _sqrt(a) - _sqrt(b)
        s += d * d
    return math.sqrt(2.0 * s)


def _matusita(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = _sqrt(a) - _sqrt(b)
        s += d * d
    return math.sqrt(s)


def _squared_chord(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = _sqrt(a) - _sqrt(b)
        s += d * d
    return s


def _additive_symmetric_chi2(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += _div(d * d * (a + b), a * b)
    return 2.0 * s


def _average_euclidean(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += d * d
    n = len(x)
    return math.sqrt(s / n) if n else 0.0


def _clark(x, y):
    s = 0.0
    for a, b in zip(x, y):
        r = _div(a - b, abs(a) + abs(b))
        s += r * r
    return math.sqrt(s)


def _divergence(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        t = a + b
        s += _div(d * d, t * t)
    return 2.0 * s


def _log_squared_euclidean(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += d * d
    return _log(s)


def _mean_censored_euclidean(x, y):
    num = 0.0
    cnt = 0.0
    for a, b in zip(x, y):
        d = a - b
        num += d * d
        if a * a + b * b != 0.0:
            cnt += 1.0
    return _div(num, cnt)


def _neyman_chi2(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += _div(d * d, a)
    return s


def _pearson_chi2(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += _div(d * d, b)
    return s


def _sangvi_chi2(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += _div(d * d, a + b)
    return 2.0 * s


def _squared_chi2(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += _div(d * d, a + b)
    return s


def _squared_euclidean(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += d * d
    return s


def _jeffreys(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += (a - b) * _exp(_div(a, b))
    return s


def _jensen(x, y):
    s = 0.0
    for a, b in zip(x, y):
        m = (a + b) / 2.0
        s += (a * _exp(a) + b * _exp(b)) / 2.0 - m * _exp(m)
    return 0.5 * s


def _jensen_shannon(x, y):
    s1 = 0.0
    s2 = 0.0
    for a, b in zip(x, y):
        t = a + b
        s1 += a * _exp(_div(2.0 * a, t))
        s2 += b * _exp(_div(2.0 * b, t))
    return 0.5 * (s1 + s2)


def _k_divergence(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += a * _exp(_div(2.0 * a, a + b))
    return s


def _kullback_leibler(x, y):
    s = 0.0
    for a, b in zip(x, y):
        s += a * _exp(_div(a, b))
    return s


def _topsoe(x, y):
    s1 = 0.0
    s2 = 0.0
    for a, b in zip(x, y):
        t = a + b
        s1 += a * _exp(_div(2.0 * a, t))
        s2 += b * _exp(_div(2.0 * b, t))
    return s1 + s2


def _max_symmetric_chi2(x, y):
    s1 = 0.0
    s2 = 0.0
    for a, b in zip(x, y):
        d = a - b
        dd = d * d
        s1 += _div(dd, a)
        s2 += _div(dd, b)
    return s1 if s1 > s2 else s2


def _min_symmetric_chi2(x, y):
    s1 = 0.0
    s2 = 0.0
    for a, b in zip(x, y):
        d = a - b
        dd = d * d
        s1 += _div(dd, a)
        s2 += _div(dd, b)
    return s1 if s1 < s2 else s2


def _vicis_symmetric_1(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        m = a if a < b else b
        s += _div(d * d, m * m)
    return s


def _vicis_symmetric_2(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        m = a if a < b else b
        s += _div(d * d, m)
    return s


def _vicis_symmetric_3(x, y):
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        m = a if a > b else b
        s += _div(d * d, m)
    return s


def _vicis_wave_hedges(x, y):
    s = 0.0
    for a, b in zip(x, y):
        m = a if a < b else b
        s += _div(abs(a - b), m)
    return s


def _hamming(x, y):
    s = 0.0
    for a, b in zip(x, y):
        if a != b:
            s += 1.0
    return s


def _hassanat(x, y):
    s = 0.0
    for a, b in zip(x, y):
        if a < b:
            lo, hi = a, b
        else:
            lo, hi = b, a
        if lo >= 0.0:
            s += 1.0 - (1.0 + lo) / (1.0 + hi)
        else:
            # Past 2**53 in magnitude, 1.0 + lo + al rounds to 0.0 and so
            # may 1.0 + hi + al; _div keeps that case finite.
            al = -lo
            s += 1.0 - _div(1.0 + lo + al, 1.0 + hi + al)
    return s


def _chi2_statistic(x, y):
    s = 0.0
    for a, b in zip(x, y):
        m = (a + b) / 2.0
        s += _div(a - m, m)
    return s


# --- block kernels -----------------------------------------------------
# One function per measure, over a row matrix A (m, d) and B (k, d); each
# returns the raw (m, k) matrix of kernel(A[i], B[j]).  ``_cols`` hands out
# feature j as a column a (m, 1) and a row b (1, k), so the sums below run
# in the scalar kernels' order.  Sums over one argument only (sxx, syy,
# a * _exp(a)) are kept as a column or a row: the same operations in the
# same order give the same bits.  Callers run these under np.errstate, as
# the np.where branches not taken may divide by zero or overflow.


def _cols(A, B):
    At = np.ascontiguousarray(A.T)
    Bt = np.ascontiguousarray(B.T)
    for j in range(At.shape[0]):
        yield At[j][:, None], Bt[j][None, :]


def _zeros(A, B):
    return np.zeros((A.shape[0], B.shape[0]))


def _libm(fn, t):
    # math.exp / math.log per element: bit-identical to the scalar kernels.
    return np.fromiter(map(fn, t.ravel().tolist()), np.float64,
                       t.size).reshape(t.shape)


def _vdiv(num, den):
    zero = den == 0.0
    if not zero.any():
        return num / den
    q = num / np.where(zero, EPS, den)
    return np.where(zero & (num == 0.0), 0.0, q)


def _vmul(a, b):
    return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)


def _vfinite(v):
    if np.isfinite(v).all():
        return v
    v = np.where(v == math.inf, _FMAX, v)
    v = np.where(v == -math.inf, -_FMAX, v)
    return np.where(v != v, _FMAX, v)


def _vexp(t):
    return _libm(math.exp, np.where(t > EXP_MAX, EXP_MAX, t))


def _vsqrt(v):
    return np.where(v < 0.0, 0.0, np.sqrt(v))


def _vlog(v):
    return _libm(math.log, np.where(v > 0.0, v, EPS))


def _vmin(a, b):
    return np.where(a < b, a, b)


def _vmax(a, b):
    return np.where(a > b, a, b)


def _sum_sq_diff(A, B):
    s = _zeros(A, B)
    for a, b in _cols(A, B):
        d = a - b
        s += d * d
    return s


def _sum_abs_diff(A, B):
    s = _zeros(A, B)
    for a, b in _cols(A, B):
        s += np.abs(a - b)
    return s


def _inner_sums(A, B):
    sxy = _zeros(A, B)
    sxx = np.zeros((A.shape[0], 1))
    syy = np.zeros((1, B.shape[0]))
    for a, b in _cols(A, B):
        sxy += a * b
        sxx += a * a
        syy += b * b
    return sxy, sxx, syy


def _sum_sq_sqrt_diff(A, B):
    s = _zeros(A, B)
    for a, b in _cols(A, B):
        d = _vsqrt(a) - _vsqrt(b)
        s += d * d
    return s


def _sum_term(term, scale=1.0):
    """Block kernel for scale * (sum of term(a, b) over the features);
    scale * s is s itself, bit for bit, when scale is 1.0."""

    def block(A, B):
        s = _zeros(A, B)
        for a, b in _cols(A, B):
            s += term(a, b)
        return scale * s

    return block


def _chi2_sums(A, B):
    s1 = _zeros(A, B)
    s2 = _zeros(A, B)
    for a, b in _cols(A, B):
        d = a - b
        dd = d * d
        s1 += _vdiv(dd, a)
        s2 += _vdiv(dd, b)
    return s1, s2


def _shannon_sums(A, B):
    s1 = _zeros(A, B)
    s2 = _zeros(A, B)
    for a, b in _cols(A, B):
        t = a + b
        s1 += a * _vexp(_vdiv(2.0 * a, t))
        s2 += b * _vexp(_vdiv(2.0 * b, t))
    return s1, s2


def _b_chebyshev(A, B):
    best = _zeros(A, B)
    for a, b in _cols(A, B):
        v = np.abs(a - b)
        best = np.where(v > best, v, best)
    return best


def _b_chi_squared(A, B):
    s = _zeros(A, B)
    for a, b in _cols(A, B):
        d = a - b
        s += _vdiv(d * d, np.abs(a + b))
    return _vsqrt(s)


def _b_euclidean(A, B):
    return np.sqrt(_sum_sq_diff(A, B))


def _b_gaussian(A, B):
    return _libm(math.exp, -np.sqrt(_sum_sq_diff(A, B)))


def _b_log_euclidean(A, B):
    return _vlog(np.sqrt(_sum_sq_diff(A, B)))


def _b_bray_curtis(A, B):
    num = _zeros(A, B)
    den = _zeros(A, B)
    for a, b in _cols(A, B):
        num += np.abs(a - b)
        den += a + b
    return _vdiv(num, den)


def _b_gower(A, B):
    return _sum_abs_diff(A, B) / A.shape[1]


def _b_kulczynski(A, B):
    num = _zeros(A, B)
    den = _zeros(A, B)
    for a, b in _cols(A, B):
        num += np.abs(a - b)
        den += _vmin(a, b)
    return _vdiv(num, den)


def _b_non_intersection(A, B):
    return 0.5 * _sum_abs_diff(A, B)


def _b_soergel(A, B):
    num = _zeros(A, B)
    den = _zeros(A, B)
    for a, b in _cols(A, B):
        num += np.abs(a - b)
        den += _vmax(a, b)
    return _vdiv(num, den)


def _b_chord(A, B):
    sxy, sxx, syy = _inner_sums(A, B)
    return _vsqrt(2.0 - 2.0 * _vdiv(sxy, _vmul(sxx, syy)))


def _b_cosine(A, B):
    sxy, sxx, syy = _inner_sums(A, B)
    return 1.0 - _vdiv(sxy, _vmul(sxx, syy))


def _b_dice(A, B):
    sxy, sxx, syy = _inner_sums(A, B)
    return 1.0 - _vdiv(sxy, sxx + syy)


def _b_jaccard(A, B):
    sxy, sxx, syy = _inner_sums(A, B)
    return _vdiv(_sum_sq_diff(A, B), sxx + syy - sxy)


def _b_bhattacharyya(A, B):
    s = _zeros(A, B)
    for a, b in _cols(A, B):
        s += _vsqrt(a * b)
    return -_vexp(s)


def _b_hellinger(A, B):
    return np.sqrt(2.0 * _sum_sq_sqrt_diff(A, B))


def _b_matusita(A, B):
    return np.sqrt(_sum_sq_sqrt_diff(A, B))


def _b_average_euclidean(A, B):
    return np.sqrt(_sum_sq_diff(A, B) / A.shape[1])


def _b_clark(A, B):
    s = _zeros(A, B)
    for a, b in _cols(A, B):
        r = _vdiv(a - b, np.abs(a) + np.abs(b))
        s += r * r
    return np.sqrt(s)


def _b_mean_censored_euclidean(A, B):
    num = _zeros(A, B)
    cnt = _zeros(A, B)
    for a, b in _cols(A, B):
        d = a - b
        num += d * d
        cnt += np.where(a * a + b * b != 0.0, 1.0, 0.0)
    return _vdiv(num, cnt)


def _b_jensen(A, B):
    s = _zeros(A, B)
    for a, b in _cols(A, B):
        m = (a + b) / 2.0
        s += (a * _vexp(a) + b * _vexp(b)) / 2.0 - m * _vexp(m)
    return 0.5 * s


def _b_jensen_shannon(A, B):
    s1, s2 = _shannon_sums(A, B)
    return 0.5 * (s1 + s2)


def _b_topsoe(A, B):
    s1, s2 = _shannon_sums(A, B)
    return s1 + s2


def _b_max_symmetric_chi2(A, B):
    s1, s2 = _chi2_sums(A, B)
    return _vmax(s1, s2)


def _b_min_symmetric_chi2(A, B):
    s1, s2 = _chi2_sums(A, B)
    return _vmin(s1, s2)


def _hassanat_term(a, b):
    lt = a < b
    lo = np.where(lt, a, b)
    hi = np.where(lt, b, a)
    al = -lo
    return np.where(lo >= 0.0, 1.0 - (1.0 + lo) / (1.0 + hi),
                    1.0 - _vdiv(1.0 + lo + al, 1.0 + hi + al))


def _chi2_statistic_term(a, b):
    m = (a + b) / 2.0
    return _vdiv(a - m, m)


def _sq(a, b):
    d = a - b
    return d * d


_b_manhattan = _sum_abs_diff
_b_squared_euclidean = _sum_sq_diff
_b_squared_chord = _sum_sq_sqrt_diff
_b_canberra = _sum_term(lambda a, b: _vdiv(np.abs(a - b), np.abs(a) + np.abs(b)))
_b_lorentzian = _sum_term(lambda a, b: _vexp(1.0 + np.abs(a - b)))
_b_divergence = _sum_term(
    lambda a, b: _vdiv(_sq(a, b), (a + b) * (a + b)), 2.0)
_b_additive_symmetric_chi2 = _sum_term(
    lambda a, b: _vdiv(_sq(a, b) * (a + b), a * b), 2.0)
_b_neyman_chi2 = _sum_term(lambda a, b: _vdiv(_sq(a, b), a))
_b_pearson_chi2 = _sum_term(lambda a, b: _vdiv(_sq(a, b), b))
_b_squared_chi2 = _sum_term(lambda a, b: _vdiv(_sq(a, b), a + b))
_b_sangvi_chi2 = _sum_term(lambda a, b: _vdiv(_sq(a, b), a + b), 2.0)
_b_jeffreys = _sum_term(lambda a, b: (a - b) * _vexp(_vdiv(a, b)))
_b_k_divergence = _sum_term(lambda a, b: a * _vexp(_vdiv(2.0 * a, a + b)))
_b_kullback_leibler = _sum_term(lambda a, b: a * _vexp(_vdiv(a, b)))
_b_vicis_symmetric_1 = _sum_term(
    lambda a, b: _vdiv(_sq(a, b), _vmin(a, b) * _vmin(a, b)))
_b_vicis_symmetric_2 = _sum_term(lambda a, b: _vdiv(_sq(a, b), _vmin(a, b)))
_b_vicis_symmetric_3 = _sum_term(lambda a, b: _vdiv(_sq(a, b), _vmax(a, b)))
_b_vicis_wave_hedges = _sum_term(lambda a, b: _vdiv(np.abs(a - b), _vmin(a, b)))
_b_hamming = _sum_term(lambda a, b: np.where(a != b, 1.0, 0.0))
_b_hassanat = _sum_term(_hassanat_term)
_b_chi2_statistic = _sum_term(_chi2_statistic_term)


def _b_log_squared_euclidean(A, B):
    return _vlog(_sum_sq_diff(A, B))


# --- registry ----------------------------------------------------------


class Taxonomy(str, Enum):
    LP = "Lp"
    L1 = "L1"
    INNER_PRODUCT = "InnerProduct"
    SQUARED_CHORD = "SquaredChord"
    SQUARED_L2 = "SquaredL2"
    SHANNON_ENTROPY = "ShannonEntropy"
    VICISSITUDE = "Vicissitude"
    OTHER = "Other"


@dataclass(frozen=True)
class DistanceId:
    """Registry entry: identifying code, metadata, scalar and block kernel."""

    code: str
    name: str
    taxonomy: Taxonomy
    requires_nonnegative_input: bool
    satisfies_identity: bool
    kernel: Kernel = field(repr=False, compare=False)
    block: BlockKernel = field(repr=False, compare=False)


def _entries():
    T = Taxonomy
    rows = [
        # code, name, taxonomy, nonneg_input, identity, kernel, block
        ("D1", "Chebyshev", T.LP, False, True, _chebyshev, _b_chebyshev),
        ("D2", "Chi-Squared", T.LP, False, True, _chi_squared, _b_chi_squared),
        ("D3", "Euclidean", T.LP, False, True, _euclidean, _b_euclidean),
        ("D4", "Gaussian", T.LP, False, False, _gaussian, _b_gaussian),
        ("D5", "Log-Euclidean", T.LP, False, False, _log_euclidean, _b_log_euclidean),
        ("D6", "Manhattan", T.LP, False, True, _manhattan, _b_manhattan),
        ("D7", "Bray-Curtis", T.L1, False, True, _bray_curtis, _b_bray_curtis),
        ("D8", "Canberra", T.L1, False, True, _canberra, _b_canberra),
        ("D9", "Gower", T.L1, False, True, _gower, _b_gower),
        ("D10", "Kulczynski", T.L1, False, True, _kulczynski, _b_kulczynski),
        ("D11", "Lorentzian", T.L1, False, False, _lorentzian, _b_lorentzian),
        ("D12", "Non-Intersection", T.L1, False, True, _non_intersection,
         _b_non_intersection),
        ("D13", "Soergel", T.L1, False, True, _soergel, _b_soergel),
        ("D14", "Chord", T.INNER_PRODUCT, False, False, _chord, _b_chord),
        ("D15", "Cosine", T.INNER_PRODUCT, False, False, _cosine, _b_cosine),
        ("D16", "Dice", T.INNER_PRODUCT, False, False, _dice, _b_dice),
        ("D17", "Jaccard", T.INNER_PRODUCT, False, True, _jaccard, _b_jaccard),
        ("D18", "Bhattacharyya", T.SQUARED_CHORD, True, False, _bhattacharyya,
         _b_bhattacharyya),
        ("D19", "Hellinger", T.SQUARED_CHORD, True, True, _hellinger, _b_hellinger),
        ("D20", "Matusita", T.SQUARED_CHORD, True, True, _matusita, _b_matusita),
        ("D21", "Squared Chord", T.SQUARED_CHORD, True, True, _squared_chord,
         _b_squared_chord),
        ("D22", "Additive Symmetric Chi-Squared", T.SQUARED_L2, False, True,
         _additive_symmetric_chi2, _b_additive_symmetric_chi2),
        ("D23", "Average Euclidean", T.SQUARED_L2, False, True, _average_euclidean,
         _b_average_euclidean),
        ("D24", "Clark", T.SQUARED_L2, False, True, _clark, _b_clark),
        ("D25", "Divergence", T.SQUARED_L2, False, True, _divergence, _b_divergence),
        ("D26", "Log-Squared Euclidean", T.SQUARED_L2, False, False,
         _log_squared_euclidean, _b_log_squared_euclidean),
        ("D27", "Mean Censored Euclidean", T.SQUARED_L2, False, True,
         _mean_censored_euclidean, _b_mean_censored_euclidean),
        ("D28", "Neyman Chi-Squared", T.SQUARED_L2, False, True, _neyman_chi2,
         _b_neyman_chi2),
        ("D29", "Pearson Chi-Squared", T.SQUARED_L2, False, True, _pearson_chi2,
         _b_pearson_chi2),
        ("D30", "Sangvi Chi-Squared", T.SQUARED_L2, False, True, _sangvi_chi2,
         _b_sangvi_chi2),
        ("D31", "Squared Chi-Squared", T.SQUARED_L2, False, True, _squared_chi2,
         _b_squared_chi2),
        ("D32", "Squared Euclidean", T.SQUARED_L2, False, True, _squared_euclidean,
         _b_squared_euclidean),
        ("D33", "Jeffreys", T.SHANNON_ENTROPY, False, True, _jeffreys, _b_jeffreys),
        ("D34", "Jensen", T.SHANNON_ENTROPY, False, True, _jensen, _b_jensen),
        ("D35", "Jensen-Shannon", T.SHANNON_ENTROPY, False, False, _jensen_shannon,
         _b_jensen_shannon),
        ("D36", "K-Divergence", T.SHANNON_ENTROPY, False, False, _k_divergence,
         _b_k_divergence),
        ("D37", "Kullback-Leibler", T.SHANNON_ENTROPY, False, False,
         _kullback_leibler, _b_kullback_leibler),
        ("D38", "Topsoe", T.SHANNON_ENTROPY, False, False, _topsoe, _b_topsoe),
        ("D39", "Max Symmetric Chi-Squared", T.VICISSITUDE, False, True,
         _max_symmetric_chi2, _b_max_symmetric_chi2),
        ("D40", "Min Symmetric Chi-Squared", T.VICISSITUDE, False, True,
         _min_symmetric_chi2, _b_min_symmetric_chi2),
        ("D41", "Vicis Symmetric 1", T.VICISSITUDE, False, True, _vicis_symmetric_1,
         _b_vicis_symmetric_1),
        ("D42", "Vicis Symmetric 2", T.VICISSITUDE, False, True, _vicis_symmetric_2,
         _b_vicis_symmetric_2),
        ("D43", "Vicis Symmetric 3", T.VICISSITUDE, False, True, _vicis_symmetric_3,
         _b_vicis_symmetric_3),
        ("D44", "Vicis-Wave Hedges", T.VICISSITUDE, False, True, _vicis_wave_hedges,
         _b_vicis_wave_hedges),
        ("D45", "Hamming", T.OTHER, False, True, _hamming, _b_hamming),
        ("D46", "Hassanat", T.OTHER, False, True, _hassanat, _b_hassanat),
        ("D47", "Chi-Squared Statistic", T.OTHER, False, True, _chi2_statistic,
         _b_chi2_statistic),
    ]
    return tuple(DistanceId(*row) for row in rows)


_REGISTRY: tuple[DistanceId, ...] = _entries()
_BY_CODE: dict[str, DistanceId] = {d.code: d for d in _REGISTRY}

# Measures whose printed formula is not symmetric in (x, y).  Everything
# else is bit-for-bit symmetric given the sequential accumulation order.
ASYMMETRIC_CODES = frozenset({"D28", "D29", "D33", "D36", "D37", "D47"})


def registry() -> tuple[DistanceId, ...]:
    """All 47 measures in stable code order (D1 first, D47 last)."""
    return _REGISTRY


def resolve(id_or_code: DistanceId | str) -> DistanceId:
    """Return the registry entry for a code string or pass an entry through.

    Raises KeyError for a code not in the registry.
    """
    if isinstance(id_or_code, DistanceId):
        return id_or_code
    entry = _BY_CODE.get(id_or_code)
    if entry is None:
        raise KeyError(f"unknown distance code {id_or_code!r}")
    return entry


def distance_function(id_or_code: DistanceId | str) -> Kernel:
    """Bare callable for hot loops: no per-call validation, finite output.

    The returned function applies the measure's kernel and clamps an
    overflowed result to the largest finite float; dimension and domain
    checks are the caller's job (see ``evaluate`` for the checked path).
    """
    kernel = resolve(id_or_code).kernel

    def call(x: FeatureVector, y: FeatureVector) -> float:
        return _finite(kernel(x, y))

    return call


def pairwise(id_or_code: DistanceId | str, A, B) -> np.ndarray:
    """Matrix ``out[i, j] = distance_function(id)(A[i], B[j])``, bit for bit.

    ``A`` (m, d) and ``B`` (k, d) are row matrices; the result is a finite
    float64 (m, k) array.  As with ``distance_function``, domain checks are
    the caller's job.
    """
    block = resolve(id_or_code).block
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise DimensionMismatch(
            f"A has shape {A.shape}, B has shape {B.shape}; expected two "
            f"row matrices of one width")
    if A.shape[1] == 0:
        raise DimensionMismatch("feature vectors must have dim >= 1")
    with np.errstate(all="ignore"):
        return _vfinite(block(A, B))


def _check_nonnegative(entry: DistanceId, x: FeatureVector, y: FeatureVector) -> None:
    for vec_name, vec in (("x", x), ("y", y)):
        for i, v in enumerate(vec):
            if v < 0.0:
                raise DomainViolation(
                    f"{entry.code} ({entry.name}) requires non-negative input; "
                    f"{vec_name}[{i}] = {v!r}"
                )


def evaluate(
    id: DistanceId | str,
    x: FeatureVector,
    y: FeatureVector,
    *,
    strict: bool = False,
) -> float:
    """Distance between x and y under the printed formula for ``id``.

    ``strict=True`` raises DomainViolation when a measure that requires
    non-negative input receives a negative component; by default negatives
    are admitted and handled by the degenerate-input policy.
    """
    entry = resolve(id)
    if len(x) != len(y):
        raise DimensionMismatch(f"x has dim {len(x)}, y has dim {len(y)}")
    if len(x) == 0:
        raise DimensionMismatch("feature vectors must have dim >= 1")
    if strict and entry.requires_nonnegative_input:
        _check_nonnegative(entry, x, y)
    return _finite(entry.kernel(x, y))


def evaluate_batch(
    id: DistanceId | str,
    query: FeatureVector,
    corpus: Sequence[FeatureVector],
    *,
    strict: bool = False,
) -> list[float]:
    """Element i is evaluate(id, query, corpus[i]); order preserved."""
    entry = resolve(id)
    return [evaluate(entry, query, c, strict=strict) for c in corpus]


# --- empirical axiom checks ---------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class AxiomReport:
    code: str
    non_negativity: AxiomCheck
    identity: AxiomCheck
    symmetry: AxiomCheck
    triangle_inequality: AxiomCheck

    def all_passed(self) -> bool:
        return (self.non_negativity.passed and self.identity.passed
                and self.symmetry.passed and self.triangle_inequality.passed)


def _fmt_vec(v: FeatureVector) -> str:
    return "(" + ", ".join(f"{c:.6g}" for c in v) + ")"


def check_axioms(
    id: DistanceId | str,
    samples: Sequence[FeatureVector],
    tolerance: float = 1e-9,
) -> AxiomReport:
    """Test the four metric axioms over every pair/triple of ``samples``.

    Reports the first counterexample per violated axiom, scanning in
    sample-index order.  The triangle check is vacuously true with fewer
    than three samples.
    """
    entry = resolve(id)
    if len(samples) == 0:
        raise EmptyInput("check_axioms needs at least one sample")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be > 0")
    dim = len(samples[0])
    for s in samples:
        if len(s) != dim:
            raise DimensionMismatch("samples disagree on dimension")

    n = len(samples)
    fn = distance_function(entry)
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

    return AxiomReport(entry.code, non_neg, identity, symmetry, triangle)
