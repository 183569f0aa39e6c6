"""Catalogue of 47 distance measures, each written once and run in two forms.

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
pure; the only state is the named sums of a running ``pairwise_many``
call, kept per thread and dropped when the call returns.

Each formula is written once, over a table of arithmetic operations, and
built twice: as a per-pair kernel over Python floats (``distance_function``
and ``evaluate``) and as a numpy block kernel that evaluates every pair of
rows of two matrices (``pairwise``, used by training and classification).
Both forms accumulate feature by feature in component order and decide
every conditional on the same comparison, so each ``pairwise`` entry
equals the per-pair result bit for bit.  ``exp`` and ``log`` are libm's in both
forms.  The per-pair form calls ``math.exp``/``math.log``.  The block form
calls ``np.exp``/``np.log`` on a reversed (negative-stride) view.  On
such a view numpy skips its SIMD kernels, which round differently from
libm on a fraction of inputs, and runs the loop that calls libm's
``exp``/``log`` per element.  Whether that loop matches ``math`` is checked
once at import on a sentinel that the SIMD kernels fail; if it does not
match, the block form calls ``math.exp``/``math.log`` per element
(``EXP_LOG`` names the path in use).  A differently rounded ``exp`` could
flip a tie in the forest.

Running sums that several measures finalize are named once and marked
shared: Sum (a-b)^2 serves seven codes, Sum |a-b| three, the inner
products four, Sum (sqrt a - sqrt b)^2 three, Sum (a-b)^2/(a+b) two,
Sum (a-b)^2/a and Sum (a-b)^2/b three each, Sum a e^(2a/(a+b)) three,
Sum b e^(2b/(a+b)) two, and the exp(a/b) pair two.  Each named sum is
one loop that returns only its own values, so a measure computes no
more alone than its own sums, except that Jeffreys and Kullback-Leibler
each compute the other's sum, to share one exp per term.
``pairwise_many`` evaluates a list of
measures on one pair of row matrices and computes each named sum once
for all of them; ``pairwise`` is that call with one measure.  A measure
runs the same operations on the same sums as alone, so the bits do not
change.  Training fills a stack of matrices, and the grid tests its
forests, through such calls (see ``forest``); in ``timings.csv`` each
measure of a stack that shares its sums gets an equal share of the
stack's seconds.

The block form's per-feature loops (the 30 functions of ``_measures``
that hold ``for a, b in pairs(x, y)``) are also compiled to C from their
source (``kernels``).  At import each compiled loop is
compared, bit for bit, with the numpy loop it replaces on a sentinel
block; where they match, the block kernels run the compiled loops and
everything else as before.  ``KERNELS`` names the path in use:
"compiled", or "numpy" where there is no compiler, the cache cannot be
written, the build fails or a bit differs.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import kernels as _kernels
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


# --- per-pair operations -----------------------------------------------


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


def _lo(a, b):
    return a if a < b else b


def _hi(a, b):
    return a if a > b else b


# --- block operations --------------------------------------------------
# ``_cols`` hands out feature j of row matrices A (m, d) and B (k, d) as a
# column a (m, 1) and a row b (1, k).  Every conditional of the scalar
# operations is mirrored with ``np.where`` on the same comparison, never
# with ``np.minimum``/``np.maximum``.  Callers run these under np.errstate,
# as the np.where branches not taken may divide by zero or overflow.


def _cols(A, B):
    At = np.ascontiguousarray(A.T)
    Bt = np.ascontiguousarray(B.T)
    for j in range(At.shape[0]):
        yield At[j][:, None], Bt[j][None, :]


def _strided(fn, t):
    # fn over a reversed 1-D view of t: a negative stride keeps numpy off
    # its SIMD kernel and on the loop that calls libm per element.
    return fn(np.ascontiguousarray(t).ravel()[::-1])[::-1].reshape(t.shape)


def _per_element(fn, t):
    return np.fromiter(map(fn, t.ravel().tolist()), np.float64,
                       t.size).reshape(t.shape)


def _strided_matches_math() -> bool:
    # On x86-64 with AVX-512, numpy's contiguous float64 exp and log differ
    # from libm on 181 and 18 of these 4096 values, so this check fails
    # whenever the reversed view still reaches a SIMD kernel.
    x = np.linspace(-5.0, 5.0, 4096)
    v = np.linspace(0.5, 2.0, 4096)
    return all(
        np.array_equal(_strided(np_fn, t).view(np.uint64),
                       _per_element(math_fn, t).view(np.uint64))
        for np_fn, math_fn, t in ((np.exp, math.exp, x),
                                  (np.log, math.log, v)))


# How the block form computes exp and log: "numpy-strided" (np.exp/np.log
# on a reversed view) where that matches math.exp/math.log on the
# sentinel, else "libm-per-element" (math.exp/math.log per element).
EXP_LOG = ("numpy-strided" if _strided_matches_math()
           else "libm-per-element")


def _libm(np_fn, math_fn, t):
    # libm's exp or log of every element of t, as in the per-pair form.
    if EXP_LOG == "numpy-strided":
        return _strided(np_fn, t)
    return _per_element(math_fn, t)


def _vdiv(num, den):
    # np.equal, not ==: a den that is a plain number (a width) still
    # gives a result with .any()
    zero = np.equal(den, 0.0)
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
    return _libm(np.exp, math.exp, np.where(t > EXP_MAX, EXP_MAX, t))


def _vsqrt(v):
    return np.where(v < 0.0, 0.0, np.sqrt(v))


def _vlog(v):
    return _libm(np.log, math.log, np.where(v > 0.0, v, EPS))


def _vlo(a, b):
    return np.where(a < b, a, b)


def _vhi(a, b):
    return np.where(a > b, a, b)


# --- shared sums -------------------------------------------------------


class _Shared(threading.local):
    # The named sums of the running ``pairwise_many`` call, by name, in
    # this thread; None outside such a call.  The measures' one definition
    # takes (x, y) alone, in both forms, so a call cannot hand its sums
    # down as an argument.
    sums: dict | None = None


_shared = _Shared()


def _share(named_sum):
    # Block form of ``share``: inside a pairwise_many call, the first
    # measure to read a named sum computes it and the rest reuse it.  A
    # call has one (A, B), and every measure reads its sums of that pair.
    name = named_sum.__name__

    def shared(x, y):
        sums = _shared.sums
        if sums is None:
            return named_sum(x, y)
        if name not in sums:
            sums[name] = named_sum(x, y)
        return sums[name]
    shared.__name__ = name
    return shared


# --- the measures ------------------------------------------------------
# Each measure is written once, in ``_measures``, over a table of
# operations.  Over _SCALAR it is the per-pair kernel of two feature
# sequences; over _BLOCK it is the block kernel of row matrices A (m, d)
# and B (k, d), returning the (m, k) matrix of kernel(A[i], B[j]).  Both
# return raw values; ``distance_function`` and ``pairwise`` apply the
# finite clamp.  An accumulator starts at s = 0.0 and becomes an array on
# its first addition; a sum over one argument only (sxx, syy, a * exp(a))
# stays a column or a row.  The same operations run in the same order in
# both forms, so they give the same bits.  To keep both forms total and
# equal, a definition
#
# * divides through ``div`` unless the denominator is the constant 2.0
#   (a float divided by 0 raises where numpy returns inf, and ``width``
#   is 0 for empty vectors);
# * branches only through the ``lo``/``hi`` selects, which evaluate both
#   operands in both forms;
# * counts by adding a comparison to a sum, which adds 1 or 0 in both.

_SCALAR = dict(pairs=zip, div=_div, mul=_mul, exp=_exp, log=_log, sqrt=_sqrt,
               root=math.sqrt, lo=_lo, hi=_hi, width=len,
               share=lambda named_sum: named_sum)
_BLOCK = dict(pairs=_cols, div=_vdiv, mul=_vmul, exp=_vexp, log=_vlog,
              sqrt=_vsqrt, root=np.sqrt, lo=_vlo, hi=_vhi,
              width=lambda A: A.shape[1], share=_share)


def _measures(pairs, div, mul, exp, log, sqrt, root, lo, hi, width, share):
    """The 47 measures over one table of operations, keyed by code.

    ``sqrt`` clamps a negative radicand to 0; ``root`` is the plain square
    root, for radicands that cannot be negative.  ``@share`` marks a
    named sum: the identity per pair, and one evaluation per
    ``pairwise_many`` call in the block form.
    """

    # Running sums that several measures finalize.  Where a code comes
    # before the semicolon, that measure is the sum itself.

    @share
    def sq_diff(x, y):  # sum (a-b)^2: D32; D3-D5, D17, D23, D26
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            s += d * d
        return s

    @share
    def abs_diff(x, y):  # sum |a-b|: D6; D9, D12
        s = 0.0
        for a, b in pairs(x, y):
            s += abs(a - b)
        return s

    @share
    def inner(x, y):  # (sum ab, sum a^2, sum b^2): D14-D17
        sxy = sxx = syy = 0.0
        for a, b in pairs(x, y):
            sxy += a * b
            sxx += a * a
            syy += b * b
        return sxy, sxx, syy

    @share
    def sqrt_diff(x, y):  # sum (sqrt a - sqrt b)^2: D21; D19, D20
        s = 0.0
        for a, b in pairs(x, y):
            d = sqrt(a) - sqrt(b)
            s += d * d
        return s

    @share
    def sq_over_sum(x, y):  # sum (a-b)^2 / (a+b): D31; D30
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            s += div(d * d, a + b)
        return s

    @share
    def neyman_chi2(x, y):  # sum (a-b)^2 / a: D28; D39, D40
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            s += div(d * d, a)
        return s

    @share
    def pearson_chi2(x, y):  # sum (a-b)^2 / b: D29; D39, D40
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            s += div(d * d, b)
        return s

    @share
    def k_divergence(x, y):  # sum a e^(2a/(a+b)): D36; D35, D38
        s = 0.0
        for a, b in pairs(x, y):
            s += a * exp(div(2.0 * a, a + b))
        return s

    @share
    def reverse_k_divergence(x, y):  # sum b e^(2b/(a+b)): D35, D38
        s = 0.0
        for a, b in pairs(x, y):
            s += b * exp(div(2.0 * b, a + b))
        return s

    @share
    def exp_ratio(x, y):  # (sum (a-b) e^(a/b), sum a e^(a/b)): D33, D37
        # one exp for both, which a measure alone pays for with one
        # product and one sum
        s1 = s2 = 0.0
        for a, b in pairs(x, y):
            e = exp(div(a, b))
            s1 += (a - b) * e
            s2 += a * e
        return s1, s2

    # One function per remaining printed formula.

    def chebyshev(x, y):
        best = 0.0
        for a, b in pairs(x, y):
            best = hi(abs(a - b), best)
        return best

    def chi_squared(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            s += div(d * d, abs(a + b))
        return sqrt(s)

    def euclidean(x, y):
        return root(sq_diff(x, y))

    def gaussian(x, y):
        return exp(-root(sq_diff(x, y)))

    def log_euclidean(x, y):
        return log(root(sq_diff(x, y)))

    def bray_curtis(x, y):
        num = den = 0.0
        for a, b in pairs(x, y):
            num += abs(a - b)
            den += a + b
        return div(num, den)

    def canberra(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            s += div(abs(a - b), abs(a) + abs(b))
        return s

    def gower(x, y):
        return div(abs_diff(x, y), width(x))

    def kulczynski(x, y):
        num = den = 0.0
        for a, b in pairs(x, y):
            num += abs(a - b)
            den += lo(a, b)
        return div(num, den)

    def lorentzian(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            s += exp(1.0 + abs(a - b))
        return s

    def non_intersection(x, y):
        return 0.5 * abs_diff(x, y)

    def soergel(x, y):
        num = den = 0.0
        for a, b in pairs(x, y):
            num += abs(a - b)
            den += hi(a, b)
        return div(num, den)

    def chord(x, y):
        sxy, sxx, syy = inner(x, y)
        return sqrt(2.0 - 2.0 * div(sxy, mul(sxx, syy)))

    def cosine(x, y):
        sxy, sxx, syy = inner(x, y)
        return 1.0 - div(sxy, mul(sxx, syy))

    def dice(x, y):
        sxy, sxx, syy = inner(x, y)
        return 1.0 - div(sxy, sxx + syy)

    def jaccard(x, y):
        sxy, sxx, syy = inner(x, y)
        return div(sq_diff(x, y), sxx + syy - sxy)

    def bhattacharyya(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            s += sqrt(a * b)
        return -exp(s)

    def hellinger(x, y):
        return root(2.0 * sqrt_diff(x, y))

    def matusita(x, y):
        return root(sqrt_diff(x, y))

    def additive_symmetric_chi2(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            s += div(d * d * (a + b), a * b)
        return 2.0 * s

    def average_euclidean(x, y):
        return root(div(sq_diff(x, y), width(x)))

    def clark(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            r = div(a - b, abs(a) + abs(b))
            s += r * r
        return root(s)

    def divergence(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            t = a + b
            s += div(d * d, t * t)
        return 2.0 * s

    def log_squared_euclidean(x, y):
        return log(sq_diff(x, y))

    def mean_censored_euclidean(x, y):
        num = cnt = 0.0
        for a, b in pairs(x, y):
            d = a - b
            num += d * d
            cnt += a * a + b * b != 0.0
        return div(num, cnt)

    def sangvi_chi2(x, y):
        return 2.0 * sq_over_sum(x, y)

    def jeffreys(x, y):
        return exp_ratio(x, y)[0]

    def jensen(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            m = (a + b) / 2.0
            s += (a * exp(a) + b * exp(b)) / 2.0 - m * exp(m)
        return 0.5 * s

    def jensen_shannon(x, y):
        return 0.5 * (k_divergence(x, y) + reverse_k_divergence(x, y))

    def kullback_leibler(x, y):
        return exp_ratio(x, y)[1]

    def topsoe(x, y):
        return k_divergence(x, y) + reverse_k_divergence(x, y)

    def max_symmetric_chi2(x, y):
        return hi(neyman_chi2(x, y), pearson_chi2(x, y))

    def min_symmetric_chi2(x, y):
        return lo(neyman_chi2(x, y), pearson_chi2(x, y))

    def vicis_symmetric_1(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            m = lo(a, b)
            s += div(d * d, m * m)
        return s

    def vicis_symmetric_2(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            s += div(d * d, lo(a, b))
        return s

    def vicis_symmetric_3(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            d = a - b
            s += div(d * d, hi(a, b))
        return s

    def vicis_wave_hedges(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            s += div(abs(a - b), lo(a, b))
        return s

    def hamming(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            s += a != b
        return s

    def hassanat(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            # hi(b, a), not hi(a, b): on a tie or a NaN mx is a, as an
            # ordered pair (a, b) if a < b else (b, a) gives it
            mn = lo(a, b)
            mx = hi(b, a)
            # For mn < 0 both ends shift up by |mn|.  Past 2**53 in
            # magnitude 1.0 + mn - shift rounds to 0.0, and so may the
            # denominator; div keeps that case finite.
            shift = lo(mn, 0.0)
            s += 1.0 - div(1.0 + mn - shift, 1.0 + mx - shift)
        return s

    def chi2_statistic(x, y):
        s = 0.0
        for a, b in pairs(x, y):
            m = (a + b) / 2.0
            s += div(a - m, m)
        return s

    return {
        "D1": chebyshev, "D2": chi_squared, "D3": euclidean,
        "D4": gaussian, "D5": log_euclidean, "D6": abs_diff,
        "D7": bray_curtis, "D8": canberra, "D9": gower, "D10": kulczynski,
        "D11": lorentzian, "D12": non_intersection, "D13": soergel,
        "D14": chord, "D15": cosine, "D16": dice, "D17": jaccard,
        "D18": bhattacharyya, "D19": hellinger, "D20": matusita,
        "D21": sqrt_diff, "D22": additive_symmetric_chi2,
        "D23": average_euclidean, "D24": clark, "D25": divergence,
        "D26": log_squared_euclidean, "D27": mean_censored_euclidean,
        "D28": neyman_chi2, "D29": pearson_chi2, "D30": sangvi_chi2,
        "D31": sq_over_sum, "D32": sq_diff, "D33": jeffreys, "D34": jensen,
        "D35": jensen_shannon, "D36": k_divergence, "D37": kullback_leibler,
        "D38": topsoe, "D39": max_symmetric_chi2, "D40": min_symmetric_chi2,
        "D41": vicis_symmetric_1, "D42": vicis_symmetric_2,
        "D43": vicis_symmetric_3, "D44": vicis_wave_hedges, "D45": hamming,
        "D46": hassanat, "D47": chi2_statistic,
    }


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
    """Registry entry: identifying code, metadata, and the measure's one
    definition run as a per-pair ``kernel``.  Its block kernel is
    ``_BLOCKS[KERNELS][code]``."""

    code: str
    name: str
    taxonomy: Taxonomy
    requires_nonnegative_input: bool
    satisfies_identity: bool
    kernel: Kernel = field(repr=False, compare=False)

    def __reduce__(self):
        # the kernel is a closure, so an entry pickles as its code
        return resolve, (self.code,)


def _entries():
    T = Taxonomy
    rows = [
        # code, name, taxonomy, nonneg_input, identity
        ("D1", "Chebyshev", T.LP, False, True),
        ("D2", "Chi-Squared", T.LP, False, True),
        ("D3", "Euclidean", T.LP, False, True),
        ("D4", "Gaussian", T.LP, False, False),
        ("D5", "Log-Euclidean", T.LP, False, False),
        ("D6", "Manhattan", T.LP, False, True),
        ("D7", "Bray-Curtis", T.L1, False, True),
        ("D8", "Canberra", T.L1, False, True),
        ("D9", "Gower", T.L1, False, True),
        ("D10", "Kulczynski", T.L1, False, True),
        ("D11", "Lorentzian", T.L1, False, False),
        ("D12", "Non-Intersection", T.L1, False, True),
        ("D13", "Soergel", T.L1, False, True),
        ("D14", "Chord", T.INNER_PRODUCT, False, False),
        ("D15", "Cosine", T.INNER_PRODUCT, False, False),
        ("D16", "Dice", T.INNER_PRODUCT, False, False),
        ("D17", "Jaccard", T.INNER_PRODUCT, False, True),
        ("D18", "Bhattacharyya", T.SQUARED_CHORD, True, False),
        ("D19", "Hellinger", T.SQUARED_CHORD, True, True),
        ("D20", "Matusita", T.SQUARED_CHORD, True, True),
        ("D21", "Squared Chord", T.SQUARED_CHORD, True, True),
        ("D22", "Additive Symmetric Chi-Squared", T.SQUARED_L2, False, True),
        ("D23", "Average Euclidean", T.SQUARED_L2, False, True),
        ("D24", "Clark", T.SQUARED_L2, False, True),
        ("D25", "Divergence", T.SQUARED_L2, False, True),
        ("D26", "Log-Squared Euclidean", T.SQUARED_L2, False, False),
        ("D27", "Mean Censored Euclidean", T.SQUARED_L2, False, True),
        ("D28", "Neyman Chi-Squared", T.SQUARED_L2, False, True),
        ("D29", "Pearson Chi-Squared", T.SQUARED_L2, False, True),
        ("D30", "Sangvi Chi-Squared", T.SQUARED_L2, False, True),
        ("D31", "Squared Chi-Squared", T.SQUARED_L2, False, True),
        ("D32", "Squared Euclidean", T.SQUARED_L2, False, True),
        ("D33", "Jeffreys", T.SHANNON_ENTROPY, False, True),
        ("D34", "Jensen", T.SHANNON_ENTROPY, False, True),
        ("D35", "Jensen-Shannon", T.SHANNON_ENTROPY, False, False),
        ("D36", "K-Divergence", T.SHANNON_ENTROPY, False, False),
        ("D37", "Kullback-Leibler", T.SHANNON_ENTROPY, False, False),
        ("D38", "Topsoe", T.SHANNON_ENTROPY, False, False),
        ("D39", "Max Symmetric Chi-Squared", T.VICISSITUDE, False, True),
        ("D40", "Min Symmetric Chi-Squared", T.VICISSITUDE, False, True),
        ("D41", "Vicis Symmetric 1", T.VICISSITUDE, False, True),
        ("D42", "Vicis Symmetric 2", T.VICISSITUDE, False, True),
        ("D43", "Vicis Symmetric 3", T.VICISSITUDE, False, True),
        ("D44", "Vicis-Wave Hedges", T.VICISSITUDE, False, True),
        ("D45", "Hamming", T.OTHER, False, True),
        ("D46", "Hassanat", T.OTHER, False, True),
        ("D47", "Chi-Squared Statistic", T.OTHER, False, True),
    ]
    kernels = _measures(**_SCALAR)
    return tuple(DistanceId(*row, kernel=kernels[row[0]]) for row in rows)


_REGISTRY: tuple[DistanceId, ...] = _entries()
_BY_CODE: dict[str, DistanceId] = {d.code: d for d in _REGISTRY}

# Measures whose printed formula is not symmetric in (x, y).  Everything
# else is bit-for-bit symmetric given the sequential accumulation order.
ASYMMETRIC_CODES = frozenset({"D28", "D29", "D33", "D36", "D37", "D47"})


# --- block kernels: numpy, or compiled loops -----------------------------


def _compiled_blocks(
        loops: dict[str, BlockKernel]) -> dict[str, BlockKernel] | None:
    """The block form with each loop function's compiled loop
    (``kernels.load``) in its place, or None where a compiled loop differs
    from the numpy loop it replaces on the sentinel rows.  ``share`` marks
    the compiled named sums, and the loops no ``share`` takes are measures
    of their own.  Everything else (the loop-free measures, the sharing,
    the finite clamp) runs as in the numpy block form."""
    replaced = {}

    def compiled(fn):
        if fn.__name__ not in loops:
            return fn
        replaced[fn.__name__] = fn
        return loops[fn.__name__]

    blocks = _measures(**dict(
        _BLOCK, share=lambda named_sum: _share(compiled(named_sum))))
    # a shared sum's wrapper carries its name, and is already in place
    blocks = {code: fn if fn.__name__ in replaced else compiled(fn)
              for code, fn in blocks.items()}
    return blocks if _same_bits(loops, replaced) else None


def _sentinel_rows() -> tuple[np.ndarray, np.ndarray]:
    # zeros of both signs, negatives, ties (B repeats rows of A), and
    # exponents at and past EXP_MAX: a/b, 2a/(a+b), 1 + |a-b| and a
    v = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 1e-3, 499.0, 500.0, 501.0,
         1e-300)
    A = np.array([[v[(3 * i + 5 * j) % 12] for j in range(3)]
                  for i in range(5)])
    B = np.vstack([A[::2], [[v[(7 * i + j) % 12] for j in range(3)]
                            for i in range(6)]])
    return A, B


def _same_bits(got: dict[str, BlockKernel],
               want: dict[str, BlockKernel]) -> bool:
    """Whether each loop in ``got`` returns the shapes and bits of its
    namesake in ``want`` on the sentinel rows A (5 rows) and B (9 rows),
    and on A and B's first row, which tiles the other side.  NaN equals
    NaN: the finite clamp maps every NaN alike."""
    A, B = _sentinel_rows()
    with np.errstate(all="ignore"):
        for name, fn in want.items():
            w = fn(A, B)
            cases = ((got[name](A, B), w),
                     # the entries of B's first column, and the column
                     # sums of A (already (m, 1))
                     (got[name](A, B[:1]),
                      tuple(u[:, :1] for u in w) if isinstance(w, tuple)
                      else w[:, :1]))
            for g, u in cases:
                g, u = (g, u) if isinstance(g, tuple) else ((g,), (u,))
                for x, y in zip(g, u, strict=True):
                    if x.shape != y.shape or not (
                            (x.view(np.uint64) == y.view(np.uint64))
                            | (np.isnan(x) & np.isnan(y))).all():
                        return False
    return True


def _select_blocks() -> tuple[str, dict[str, dict[str, BlockKernel]],
                              tuple[Callable, Callable] | None]:
    blocks = {"numpy": _measures(**_BLOCK)}
    loops = _kernels.load(_measures, eps=EPS, exp_max=EXP_MAX)
    fit = None if loops is None else (loops.pop("prim"), loops.pop("compete"))
    compiled = None if loops is None else _compiled_blocks(loops)
    if compiled is None:
        return "numpy", blocks, None
    blocks["compiled"] = compiled
    return "compiled", blocks, fit


# The block kernels, by path and code.  KERNELS names the path in use:
# "compiled" where the loops built, loaded and matched the numpy block form
# on the sentinel rows, else "numpy".  _FIT holds the compiled Prim and
# competition (``kernels.load``) of the same library, where it is in use.
KERNELS, _BLOCKS, _FIT = _select_blocks()


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
        v = kernel(x, y)
        # finite results skip the _finite call
        return v if -_FMAX <= v <= _FMAX else _finite(v)

    return call


def pairwise(id_or_code: DistanceId | str, A, B) -> np.ndarray:
    """Matrix ``out[i, j] = distance_function(id)(A[i], B[j])``, bit for bit.

    ``A`` (m, d) and ``B`` (k, d) are row matrices; the result is a finite
    float64 (m, k) array.  As with ``distance_function``, domain checks are
    the caller's job.  This is ``pairwise_many`` of the one measure.
    """
    return pairwise_many((id_or_code,), A, B)[0]


def pairwise_many(ids_or_codes: Sequence[DistanceId | str], A,
                  B) -> list[np.ndarray]:
    """``[pairwise(id, A, B) for id in ids_or_codes]``, bit for bit, with
    each named sum evaluated once for all the listed measures.

    On wine-sized blocks (89 x 89, d = 13) a list of all 47 measures
    costs about a third less than 47 separate calls.  The measures run one
    after the other, over the same operations as alone, so each matrix is
    the one ``pairwise`` returns.  A measure that is a named sum returns
    that sum's array, so a measure listed twice gives one array twice.
    The sums live only during the call.
    """
    return _pairwise_many(KERNELS, ids_or_codes, A, B)


def _float_rows(rows, what: str) -> np.ndarray:
    """``np.asarray(rows, dtype=np.float64)``, where rows of unequal
    lengths raise DimensionMismatch naming the first that differs from
    the first row, not numpy's ValueError."""
    try:
        return np.asarray(rows, dtype=np.float64)
    except ValueError:
        dim = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != dim:
                raise DimensionMismatch(
                    f"{what} row {i} has dim {len(row)}, expected {dim}"
                ) from None
        raise


def _pairwise_many(path: str, ids_or_codes: Sequence[DistanceId | str], A,
                   B) -> list[np.ndarray]:
    # pairwise_many on the block kernels of ``path``
    table = _BLOCKS[path]
    blocks = [table[resolve(m).code] for m in ids_or_codes]
    A = _float_rows(A, "A")
    B = _float_rows(B, "B")
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise DimensionMismatch(
            f"A has shape {A.shape}, B has shape {B.shape}; expected two "
            f"row matrices of one width")
    if A.shape[1] == 0:
        raise DimensionMismatch("feature vectors must have dim >= 1")
    # no measure reads one sum twice, so one measure alone keeps none
    _shared.sums = {} if len(blocks) > 1 else None
    try:
        with np.errstate(all="ignore"):
            return [_vfinite(block(A, B)) for block in blocks]
    finally:
        _shared.sums = None


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
    than three samples.  Arcs come from one ``pairwise`` matrix, bit for
    bit ``distance_function(id)``'s.
    """
    entry = resolve(id)
    if len(samples) == 0:
        raise EmptyInput("check_axioms needs at least one sample")
    if not tolerance > 0.0:  # NaN compares false either way
        raise ValueError("tolerance must be > 0")
    if len({len(s) for s in samples}) != 1:
        raise DimensionMismatch("samples disagree on dimension")

    d = pairwise(entry, samples, samples)
    v = d.tolist()  # Python floats, for the messages

    def first(mask):  # first True entry in row-major order, or None
        hits = np.argwhere(mask)
        return hits[0].tolist() if len(hits) else None

    non_neg = AxiomCheck(True)
    if (hit := first(d < -tolerance)) is not None:
        i, j = hit
        non_neg = AxiomCheck(False, (
            f"d(x, y) = {v[i][j]!r} < 0 for x={_fmt_vec(samples[i])}, "
            f"y={_fmt_vec(samples[j])}"))

    identity = AxiomCheck(True)
    if (hit := first(np.abs(np.diagonal(d)) > tolerance)) is not None:
        (i,) = hit
        identity = AxiomCheck(False, (
            f"d(x, x) = {v[i][i]!r} for x={_fmt_vec(samples[i])}"))

    symmetry = AxiomCheck(True)
    if (hit := first(np.triu(np.abs(d - d.T) > tolerance, 1))) is not None:
        i, j = hit
        symmetry = AxiomCheck(False, (
            f"d(x, y) = {v[i][j]!r} but d(y, x) = {v[j][i]!r} for "
            f"x={_fmt_vec(samples[i])}, y={_fmt_vec(samples[j])}"))

    triangle = AxiomCheck(True)
    for i in range(len(samples)):
        # over[j, k]: d(i, j) > d(i, k) + d(k, j) + tolerance; i, j, k distinct
        over = d[i][:, None] > d[i] + d.T + tolerance
        over[i, :] = over[:, i] = False
        np.fill_diagonal(over, False)
        if (hit := first(over)) is not None:
            j, k = hit
            triangle = AxiomCheck(False, (
                f"d(x, z) = {v[i][j]!r} exceeds d(x, y) + d(y, z) = "
                f"{v[i][k] + v[k][j]!r} for x={_fmt_vec(samples[i])}, "
                f"y={_fmt_vec(samples[k])}, z={_fmt_vec(samples[j])}"))
            break

    return AxiomReport(entry.code, non_neg, identity, symmetry, triangle)
