"""Scalar reference kernels for the 47 distance measures.

These are the hand-written per-pair kernels, one function per printed
formula, with the degenerate-input helpers they use.  The library writes
each measure once over a table of operations (``opfdist.distances``) and
runs it both per pair and on numpy blocks; ``distance_function`` and
``pairwise`` must equal these kernels bit for bit.  Nothing here imports
the library, so the oracle does not depend on the code under test.
"""
from __future__ import annotations

import math
import sys

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


KERNELS = {
    "D1": _chebyshev,
    "D2": _chi_squared,
    "D3": _euclidean,
    "D4": _gaussian,
    "D5": _log_euclidean,
    "D6": _manhattan,
    "D7": _bray_curtis,
    "D8": _canberra,
    "D9": _gower,
    "D10": _kulczynski,
    "D11": _lorentzian,
    "D12": _non_intersection,
    "D13": _soergel,
    "D14": _chord,
    "D15": _cosine,
    "D16": _dice,
    "D17": _jaccard,
    "D18": _bhattacharyya,
    "D19": _hellinger,
    "D20": _matusita,
    "D21": _squared_chord,
    "D22": _additive_symmetric_chi2,
    "D23": _average_euclidean,
    "D24": _clark,
    "D25": _divergence,
    "D26": _log_squared_euclidean,
    "D27": _mean_censored_euclidean,
    "D28": _neyman_chi2,
    "D29": _pearson_chi2,
    "D30": _sangvi_chi2,
    "D31": _squared_chi2,
    "D32": _squared_euclidean,
    "D33": _jeffreys,
    "D34": _jensen,
    "D35": _jensen_shannon,
    "D36": _k_divergence,
    "D37": _kullback_leibler,
    "D38": _topsoe,
    "D39": _max_symmetric_chi2,
    "D40": _min_symmetric_chi2,
    "D41": _vicis_symmetric_1,
    "D42": _vicis_symmetric_2,
    "D43": _vicis_symmetric_3,
    "D44": _vicis_wave_hedges,
    "D45": _hamming,
    "D46": _hassanat,
    "D47": _chi2_statistic,
}


def distance_function(code):
    """Reference for ``opfdist.distance_function(code)``: the kernel with
    an overflowed result clamped to the largest finite float."""
    kernel = KERNELS[code]

    def call(x, y):
        return _finite(kernel(x, y))

    return call
