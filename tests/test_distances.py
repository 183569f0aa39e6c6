"""Distance registry, worked values, metadata, axiom checks, edge policy."""
from __future__ import annotations

import inspect
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfdist import (
    ASYMMETRIC_CODES,
    Taxonomy,
    check_axioms,
    distance_function,
    evaluate,
    registry,
    resolve,
)
from opfdist import distances
from opfdist.distances import pairwise
from opfdist.errors import DimensionMismatch, DomainViolation, EmptyInput

import axioms_reference
import distance_reference
from conftest import kernel_paths

ALL = registry()
CODES = [d.code for d in ALL]
SYMMETRIC_CODES = [c for c in CODES if c not in ASYMMETRIC_CODES]
IDENTITY_CODES = [d.code for d in ALL if d.satisfies_identity]

POSITIVE_VECTORS = st.lists(
    st.floats(min_value=0.05, max_value=10.0, allow_nan=False),
    min_size=1, max_size=6,
)


# ---------------------------------------------------------------------------
# Registry shape and metadata
# ---------------------------------------------------------------------------

def test_registry_has_exactly_47_unique_codes_in_order():
    assert len(ALL) == 47
    assert CODES == [f"D{i}" for i in range(1, 48)]
    assert len(set(CODES)) == 47


def test_registry_spot_names():
    assert ALL[2].name == "Euclidean"
    assert resolve("D7").name == "Bray-Curtis"
    assert resolve("D17").name == "Jaccard"
    assert ALL[45].name == "Hassanat"


def test_registry_taxonomy_groups():
    by_tax = {}
    for d in ALL:
        by_tax.setdefault(d.taxonomy, []).append(d.code)
    assert by_tax[Taxonomy.LP] == ["D1", "D2", "D3", "D4", "D5", "D6"]
    assert by_tax[Taxonomy.L1] == ["D7", "D8", "D9", "D10", "D11", "D12", "D13"]
    assert by_tax[Taxonomy.INNER_PRODUCT] == ["D14", "D15", "D16", "D17"]
    assert by_tax[Taxonomy.SQUARED_CHORD] == ["D18", "D19", "D20", "D21"]
    assert by_tax[Taxonomy.SQUARED_L2] == [f"D{i}" for i in range(22, 33)]
    assert by_tax[Taxonomy.SHANNON_ENTROPY] == [f"D{i}" for i in range(33, 39)]
    assert by_tax[Taxonomy.VICISSITUDE] == [f"D{i}" for i in range(39, 45)]
    assert by_tax[Taxonomy.OTHER] == ["D45", "D46", "D47"]


def test_nonnegative_input_flags():
    flagged = {d.code for d in ALL if d.requires_nonnegative_input}
    assert flagged == {"D18", "D19", "D20", "D21"}


def test_identity_metadata_flags():
    no_identity = {d.code for d in ALL if not d.satisfies_identity}
    assert no_identity == {
        "D4", "D5", "D11", "D14", "D15", "D16", "D18",
        "D26", "D35", "D36", "D37", "D38",
    }


def test_asymmetric_code_set():
    assert ASYMMETRIC_CODES == {"D28", "D29", "D33", "D36", "D37", "D47"}


def test_resolve_unknown_code_raises():
    with pytest.raises(KeyError):
        resolve("D48")
    with pytest.raises(KeyError):
        resolve("euclidean")


def test_resolve_passes_entries_through():
    entry = resolve("D3")
    assert resolve(entry) is entry


# ---------------------------------------------------------------------------
# Worked scalar values
# ---------------------------------------------------------------------------

def test_euclidean_3_4_5_triangle():
    assert evaluate(resolve("D3"), (3.0, 4.0), (0.0, 0.0)) == 5.0


def test_chebyshev_takes_largest_component_gap():
    assert evaluate(resolve("D1"), (1.0, 5.0), (4.0, 1.0)) == 4.0


def test_hamming_counts_differing_components():
    assert evaluate(resolve("D45"), (1.0, 2.0, 3.0), (1.0, 0.0, 3.0)) == 1.0


def test_gaussian_of_identical_vectors_is_one():
    assert evaluate(resolve("D4"), (2.5, 0.5), (2.5, 0.5)) == 1.0


def test_bray_curtis_ratio_of_sums():
    v = evaluate(resolve("D7"), (1.0, 1.0), (3.0, 1.0))
    assert v == pytest.approx(2.0 / 6.0, abs=1e-15)


def test_hassanat_zero_vectors_give_zero():
    assert evaluate(resolve("D46"), (0.0,), (0.0,)) == 0.0


def test_manhattan_and_half_relation():
    x, y = (1.0, 4.0, 2.0), (2.0, 1.0, 2.0)
    d6 = evaluate(resolve("D6"), x, y)
    d12 = evaluate(resolve("D12"), x, y)
    assert d6 == 4.0
    assert d12 == 2.0


# ---------------------------------------------------------------------------
# Exact structural properties
# ---------------------------------------------------------------------------

def test_identity_measures_return_exact_zero_on_equal_input():
    rng = random.Random(7)
    for code in IDENTITY_CODES:
        entry = resolve(code)
        for _ in range(20):
            x = tuple(rng.uniform(0.1, 5.0) for _ in range(4))
            assert evaluate(entry, x, x) == 0.0, code


def test_symmetric_measures_are_bitwise_symmetric():
    rng = random.Random(11)
    pairs = [
        (
            tuple(rng.uniform(0.01, 3.0) for _ in range(5)),
            tuple(rng.uniform(0.01, 3.0) for _ in range(5)),
        )
        for _ in range(30)
    ]
    for code in SYMMETRIC_CODES:
        fn = distance_function(code)
        for x, y in pairs:
            assert fn(x, y) == fn(y, x), code


def test_asymmetric_measures_really_differ_by_direction():
    x = (1.0, 2.0, 3.0)
    y = (3.0, 1.0, 2.0)
    for code in sorted(ASYMMETRIC_CODES):
        fn = distance_function(code)
        assert fn(x, y) != fn(y, x), code


def test_squared_euclidean_is_square_of_euclidean():
    rng = random.Random(13)
    d3 = distance_function("D3")
    d32 = distance_function("D32")
    for _ in range(200):
        x = tuple(rng.uniform(-5.0, 5.0) for _ in range(6))
        y = tuple(rng.uniform(-5.0, 5.0) for _ in range(6))
        a, b = d3(x, y) ** 2, d32(x, y)
        assert b == pytest.approx(a, rel=1e-9)


def test_non_intersection_is_half_manhattan():
    rng = random.Random(17)
    d6 = distance_function("D6")
    d12 = distance_function("D12")
    for _ in range(200):
        x = tuple(rng.uniform(-5.0, 5.0) for _ in range(6))
        y = tuple(rng.uniform(-5.0, 5.0) for _ in range(6))
        assert d12(x, y) == pytest.approx(0.5 * d6(x, y), rel=1e-9)


def test_repeated_evaluation_is_bit_identical():
    rng = random.Random(19)
    x = tuple(rng.uniform(0.0, 2.0) for _ in range(5))
    y = tuple(rng.uniform(0.0, 2.0) for _ in range(5))
    for code in CODES:
        fn = distance_function(code)
        first = fn(x, y)
        assert all(fn(x, y) == first for _ in range(3)), code


# ---------------------------------------------------------------------------
# Degenerate inputs and domain handling
# ---------------------------------------------------------------------------

def test_zero_equal_and_negative_inputs_stay_finite():
    vectors = [
        (0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0),
        (-1.0, 2.0, -3.0),
        (0.0, -1.0, 1.0),
        (1e-300, 0.0, 1e300),
        (-1e10, 1e10, 0.0),
    ]
    for code in CODES:
        entry = resolve(code)
        for x in vectors:
            for y in vectors:
                v = evaluate(entry, x, y)
                assert math.isfinite(v), (code, x, y)


def test_overflowing_kernel_is_clamped_to_largest_float():
    v = evaluate(resolve("D33"), (1e300,), (1e-300,))
    assert v == sys.float_info.max


def test_hassanat_stays_finite_past_2_to_the_53():
    # 1.0 + lo + |lo| rounds to 0.0 here, and so does the denominator.
    for x, y in (((-1e20,), (-1e20,)), ((-1e90, 1.0), (-1e90, -1e90))):
        assert math.isfinite(evaluate(resolve("D46"), x, y))


def test_strict_mode_rejects_negative_input_where_required():
    for code in ("D18", "D19", "D20", "D21"):
        entry = resolve(code)
        with pytest.raises(DomainViolation):
            evaluate(entry, (1.0, -0.5), (1.0, 1.0), strict=True)
        # permissive default stays finite
        assert math.isfinite(evaluate(entry, (1.0, -0.5), (1.0, 1.0)))


def test_strict_mode_ignores_measures_without_domain_requirement():
    v = evaluate(resolve("D3"), (-1.0, 2.0), (3.0, -4.0), strict=True)
    assert math.isfinite(v)


def test_dimension_mismatch_and_empty_vectors_rejected():
    entry = resolve("D3")
    with pytest.raises(DimensionMismatch):
        evaluate(entry, (1.0, 2.0), (1.0,))
    with pytest.raises(DimensionMismatch):
        evaluate(entry, (), ())


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------

def _random_vectors(rng, count, dim=3, low=0.05, high=2.0):
    return [tuple(rng.uniform(low, high) for _ in range(dim))
            for _ in range(count)]


def test_euclidean_satisfies_all_four_axioms():
    rng = random.Random(23)
    samples = _random_vectors(rng, 12)
    report = check_axioms(resolve("D3"), samples, tolerance=1e-9)
    assert report.all_passed()
    assert report.identity.passed
    assert report.symmetry.passed
    assert report.triangle_inequality.passed
    assert report.non_negativity.passed


def test_gaussian_identity_violation_is_reported_with_counterexample():
    rng = random.Random(29)
    samples = _random_vectors(rng, 6)
    samples.append(samples[0])
    report = check_axioms(resolve("D4"), samples, tolerance=1e-9)
    assert not report.identity.passed
    assert report.identity.counterexample is not None
    assert "1" in report.identity.counterexample


def test_cosine_triangle_violation_found_on_random_positive_vectors():
    rng = random.Random(31)
    samples = _random_vectors(rng, 50)
    report = check_axioms(resolve("D15"), samples, tolerance=1e-9)
    assert not report.triangle_inequality.passed
    assert report.triangle_inequality.counterexample is not None


def test_asymmetric_measure_fails_symmetry_axiom():
    rng = random.Random(37)
    samples = _random_vectors(rng, 8)
    report = check_axioms(resolve("D37"), samples, tolerance=1e-9)
    assert not report.symmetry.passed


def test_axiom_check_requires_samples_and_positive_tolerance():
    with pytest.raises(EmptyInput):
        check_axioms(resolve("D3"), [], tolerance=1e-9)
    with pytest.raises(ValueError):
        check_axioms(resolve("D3"), [(1.0,)], tolerance=0.0)
    with pytest.raises(ValueError):
        check_axioms(resolve("D4"), [(0.1, 0.2), (0.5, 0.9), (0.1, 0.2)],
                     tolerance=float("nan"))
    with pytest.raises(DimensionMismatch,
                       match="^sample 1 has dim 2, expected 1$"):
        check_axioms(resolve("D3"), [(1.0,), (1.0, 2.0)], tolerance=1e-9)
    with pytest.raises(DimensionMismatch):
        check_axioms(resolve("D3"), [(), ()], tolerance=1e-9)


AXIOMS = ("non_negativity", "identity", "symmetry", "triangle_inequality")


@pytest.mark.parametrize("low,tolerance", [(-2.0, 1e-9), (0.0, 1e-6)])
def test_axiom_reports_equal_the_per_pair_reference(low, tolerance):
    # signed inputs plus a repeated vector make every axiom fail for some
    # code, so each first-counterexample scan and its message is compared
    rng = random.Random(41)
    samples = _random_vectors(rng, 12, low=low)
    samples.append(samples[0])
    failing = dict.fromkeys(AXIOMS, 0)
    for code in CODES:
        want = axioms_reference.check_axioms(code, samples, tolerance)
        assert check_axioms(code, samples, tolerance) == want, code
        for axiom in AXIOMS:
            failing[axiom] += not getattr(want, axiom).passed
    if low < 0.0:
        assert all(failing.values()), failing


def test_triangle_axiom_vacuously_true_with_two_samples():
    report = check_axioms(resolve("D15"), [(1.0, 2.0), (2.0, 1.0)],
                          tolerance=1e-9)
    assert report.triangle_inequality.passed


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(x=POSITIVE_VECTORS)
def test_property_identity_zero_for_identity_measures(x):
    x = tuple(x)
    for code in IDENTITY_CODES:
        assert evaluate(resolve(code), x, x) == 0.0, code


@settings(max_examples=60, deadline=None)
@given(data=st.data(), x=POSITIVE_VECTORS)
def test_property_symmetry_is_exact(data, x):
    y = tuple(data.draw(st.lists(
        st.floats(min_value=0.05, max_value=10.0, allow_nan=False),
        min_size=len(x), max_size=len(x))))
    x = tuple(x)
    for code in SYMMETRIC_CODES:
        fn = distance_function(code)
        assert fn(x, y) == fn(y, x), code


@settings(max_examples=60, deadline=None)
@given(data=st.data(), x=st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=5))
def test_property_every_measure_is_finite(data, x):
    y = tuple(data.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=len(x), max_size=len(x))))
    x = tuple(x)
    for code in CODES:
        assert math.isfinite(evaluate(resolve(code), x, y)), code


# ---------------------------------------------------------------------------
# Both forms of each measure against the hand-written reference kernels
# ---------------------------------------------------------------------------

def _oracle_inputs():
    """(name, A, B) row matrices over the degenerate-input policy's cases."""
    rng = random.Random(43)

    def rows(n, d, draw):
        return np.array([[draw() for _ in range(d)] for _ in range(n)])

    # enough pairs that libm and SIMD log/exp roundings would part ways
    yield "positive", rows(48, 4, lambda: rng.uniform(0.01, 5.0)), \
        rows(40, 4, lambda: rng.uniform(0.01, 5.0))
    signed_zeros = (0.0, -0.0, 0.0, 1.0, 2.0)
    yield "zeros", rows(9, 4, lambda: rng.choice(signed_zeros)), \
        rows(8, 4, lambda: rng.choice(signed_zeros))
    yield "negative", rows(8, 4, lambda: rng.uniform(-3.0, 3.0)), \
        rows(6, 4, lambda: rng.uniform(-3.0, 3.0))
    huge = (1e90, -1e90, 3e89, -2e89, 0.0, 1.0)
    yield "near_1e90", rows(8, 3, lambda: rng.choice(huge)), \
        rows(7, 3, lambda: rng.choice(huge))
    # past the documented range: sums overflow to +-inf, products of a
    # zero and an infinite sum meet _mul, results meet the finite clamp
    beyond = (1e160, -1e160, 1e90, 0.0, -0.0, 1.0, -2.0)
    fixed = np.array([[0.0, -0.0, 0.0], [1e160, -1e160, 1e160]])
    yield "past_overflow", \
        np.vstack([fixed, rows(8, 3, lambda: rng.choice(beyond))]), \
        np.vstack([fixed, rows(8, 3, lambda: rng.choice(beyond))])
    # a/b and 2a/(a+b) far above EXP_MAX, and exponents at it
    ratios = (1e-300, 1e-9, 0.5, 2.0, 600.0, 1e3, 0.0)
    yield "exp_clamp", rows(8, 3, lambda: rng.choice(ratios)), \
        rows(8, 3, lambda: rng.choice(ratios))


def _assert_pairwise_equals_reference():
    for code in CODES:
        fn = distance_function(code)
        ref = distance_reference.distance_function(code)
        for name, A, B in _oracle_inputs():
            orders = [(A, B), (B, A)] if code in ASYMMETRIC_CODES else [(A, B)]
            for X, Y in orders:
                got = pairwise(code, X, Y)
                assert got.dtype == np.float64 and got.shape == (len(X), len(Y))
                rows = [[tuple(x.tolist()), tuple(y.tolist())]
                        for x in X for y in Y]
                want = np.array([ref(x, y) for x, y in rows]).reshape(got.shape)
                scalar = np.array([fn(x, y) for x, y in rows]).reshape(got.shape)
                for form, out in (("pairwise", got),
                                  ("distance_function", scalar)):
                    diff = out.view(np.uint64) != want.view(np.uint64)
                    assert not diff.any(), \
                        (code, name, form, np.argwhere(diff)[:3])


@pytest.mark.filterwarnings("error")
def test_pairwise_equals_scalar_kernels_bit_for_bit(monkeypatch):
    # both block kernel paths; numpy's on the exp/log path that the
    # import-time sentinel chose
    for path in kernel_paths():
        monkeypatch.setattr(distances, "KERNELS", path)
        _assert_pairwise_equals_reference()


@pytest.mark.filterwarnings("error")
def test_pairwise_equals_scalar_kernels_on_per_element_libm(monkeypatch):
    # the fallback for hosts where numpy's strided exp/log is not libm's
    monkeypatch.setattr(distances, "KERNELS", "numpy")
    monkeypatch.setattr(distances, "EXP_LOG", "libm-per-element")
    _assert_pairwise_equals_reference()


@pytest.mark.filterwarnings("error")
def test_block_exp_and_log_equal_math_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = [
        (distances._vexp, math.exp, rng.uniform(-745.0, 500.0, 600_000)),
        (distances._vexp, math.exp, rng.uniform(-5.0, 5.0, 600_000)),
        (distances._vlog, math.log, rng.uniform(0.5, 2.0, 150_000)),
        (distances._vlog, math.log, 10.0 ** rng.uniform(-300.0, 300.0, 150_000)),
    ]
    for block, scalar, x in cases:
        want = np.array(list(map(scalar, x.tolist())))
        operands = [(x, want), (x[:89 * 64].reshape(64, 89),
                                want[:89 * 64].reshape(64, 89))]
        # short operands and the column/row shapes the block kernels pass
        for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65):
            operands += [(x[:n], want[:n]),
                         (x[:n, None], want[:n, None]),
                         (x[None, :n], want[None, :n])]
        for t, w in operands:
            got = block(t)
            assert got.dtype == np.float64 and got.shape == t.shape
            diff = got.view(np.uint64) != w.view(np.uint64)
            assert not diff.any(), (distances.EXP_LOG, scalar.__name__,
                                    t.shape, t[diff][:3])


def test_pairwise_rejects_mismatched_or_empty_widths():
    with pytest.raises(DimensionMismatch):
        pairwise("D3", np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        pairwise("D3", np.zeros((2, 0)), np.zeros((2, 0)))
    with pytest.raises(DimensionMismatch):
        pairwise("D3", np.zeros(3), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch,
                       match="^B row 2 has dim 1, expected 2$"):
        distances.pairwise_many(["D3", "D7"], np.zeros((2, 2)),
                                [[1.0, 2.0], [3.0, 4.0], [5.0]])
    # an empty first row is no width to hold the others to
    with pytest.raises(DimensionMismatch,
                       match="^feature vectors must have dim >= 1$"):
        pairwise("D3", [[], [1.0]], [[1.0]])


# ---------------------------------------------------------------------------
# Shared sums: pairwise_many against per-code pairwise
# ---------------------------------------------------------------------------

def _assert_bits_equal(got, want, context):
    assert got.dtype == want.dtype and got.shape == want.shape, context
    diff = got.view(np.uint64) != want.view(np.uint64)
    assert not diff.any(), (context, np.argwhere(diff)[:3])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path", ["numpy-strided", "libm-per-element",
                                  "compiled"])
def test_pairwise_many_equals_per_code_pairwise_bit_for_bit(monkeypatch,
                                                            path):
    # the numpy block form on either exp/log, or the compiled loops, which
    # call libm's exp/log themselves
    if path == "compiled" and path not in distances._BLOCKS:
        pytest.skip("the compiled loops are not in use on this host")
    monkeypatch.setattr(distances, "KERNELS",
                        "compiled" if path == "compiled" else "numpy")
    if path != "compiled" and path != distances.EXP_LOG:
        monkeypatch.setattr(distances, "EXP_LOG", path)
    rng = random.Random(47)
    sparse = np.array([[rng.choice((0.0, 0.0, 0.0, -0.0, 0.5, 2.0))
                        for _ in range(6)] for _ in range(12)])
    inputs = list(_oracle_inputs()) + [("zero_heavy", sparse, sparse[::-1])]
    for name, A, B in inputs:
        for X, Y in ((A, B), (B, A)):
            want = [pairwise(c, X, Y) for c in CODES]
            # the first measure to read a sum computes it, in either order
            for codes in (CODES, CODES[::-1]):
                got = distances.pairwise_many(codes, X, Y)
                assert len(got) == len(codes)
                for c, out in zip(codes, got):
                    _assert_bits_equal(out, want[CODES.index(c)], (name, c))
            assert distances._shared.sums is None


def _counting_blocks(path, ran):
    """The block kernels of ``path``, appending the name of each loop
    function to ``ran`` each time it runs."""
    if path == "numpy":
        def pairs(A, B):
            ran.append(sys._getframe(1).f_code.co_name)
            return distances._cols(A, B)
        return distances._measures(**dict(distances._BLOCK, pairs=pairs))

    def counted(name, loop):
        def block(A, B):
            ran.append(name)
            return loop(A, B)
        block.__name__ = name
        return block
    loops = distances._kernels.load(distances._measures, eps=distances.EPS,
                                    exp_max=distances.EXP_MAX)
    del loops["prim"], loops["compete"], loops["loop_copy"]
    blocks = distances._compiled_blocks(
        {name: counted(name, loop) for name, loop in loops.items()})
    ran.clear()  # the sentinel check ran each loop
    return blocks


@pytest.mark.parametrize("path", kernel_paths())
def test_each_loop_runs_once_per_call_and_a_measure_runs_only_its_own(
        monkeypatch, path):
    ran = []
    monkeypatch.setitem(distances._BLOCKS, path, _counting_blocks(path, ran))
    monkeypatch.setattr(distances, "KERNELS", path)
    A = np.random.default_rng(3).uniform(0.0, 2.0, (6, 4))
    _, table = distances._kernels.generate(
        inspect.getsource(distances._measures), eps=distances.EPS,
        exp_max=distances.EXP_MAX)
    distances.pairwise_many(CODES, A, A[::-1])
    # every named sum (and every other loop) once per operand order for
    # all 47 measures: D29 reads D28's sum, and Topsoe D36's, as (y, x)
    assert sorted(ran) == sorted([e["name"] for e in table]
                                 + ["neyman_chi2", "k_divergence"])
    for codes, own in ((["D36"], ["k_divergence"]),
                       (["D28"], ["neyman_chi2"]),
                       (["D35"], ["k_divergence", "k_divergence"]),
                       (["D28", "D29"], ["neyman_chi2", "neyman_chi2"]),
                       (["D39", "D40"], ["neyman_chi2", "neyman_chi2"]),
                       (["D33", "D37"], ["exp_ratio"])):
        ran.clear()
        distances.pairwise_many(codes, A, A[::-1])
        assert ran == own, codes


@pytest.mark.parametrize("path", ["pair", *kernel_paths()])
def test_transposed_and_scaled_measures_equal_their_sources_bit_for_bit(
        monkeypatch, path):
    # D29 is D28 read as (y, x); Topsoe adds D36 read both ways; D35, D12
    # and D30 scale D38, D6 and D31.  Before the finite clamp these are
    # exact, per pair and on both kernel paths, on zeros of both signs,
    # ties (B repeats rows of A), subnormals and values that overflow.
    monkeypatch.setattr(distances, "KERNELS",
                        "numpy" if path == "pair" else path)

    def raw(code, X, Y):
        if path == "pair":
            kernel = resolve(code).kernel
            return np.array([[kernel(x, y) for y in Y.tolist()]
                             for x in X.tolist()])
        return distances._BLOCKS[path][code](X, Y)

    def same(got, want, context):
        assert got.shape == want.shape, context
        diff = ((got.view(np.uint64) != want.view(np.uint64))
                & ~(np.isnan(got) & np.isnan(want)))
        assert not diff.any(), (context, np.argwhere(diff)[:3])

    rng = np.random.default_rng(29)
    values = [0.0, -0.0, 0.0, 1.0, -1.0, 0.5, 2.0, 1e300, -1e300, 1e-300,
              5e-324, 499.0, 500.0, 501.0]
    for d in (1, 3, 13):
        A = rng.choice(values, (7, d))
        B = np.vstack([A[::3], rng.choice(values, (4, d)),
                       rng.uniform(0.0, 1.0, (2, d))])
        for X, Y in ((A, B), (B, A), (A[:1], B), (A, A)):
            context = (path, d, X.shape, Y.shape)
            with np.errstate(all="ignore"):
                pairs = {
                    "D29": (raw("D29", X, Y), raw("D28", Y, X).T),
                    "D38": (raw("D38", X, Y),
                            raw("D36", X, Y) + raw("D36", Y, X).T),
                    "D35": (raw("D35", X, Y), 0.5 * raw("D38", X, Y)),
                    "D12": (raw("D12", X, Y), 0.5 * raw("D6", X, Y)),
                    "D30": (raw("D30", X, Y), 2.0 * raw("D31", X, Y)),
                }
            for code, (got, want) in pairs.items():
                same(got, want, (code, *context))
            if path == "pair":
                continue
            # D29 reads D28's sum of (B, A), never D28's own, in one call
            want = {"D28": pairwise("D28", X, Y),
                    "D29": pairwise("D28", Y, X).T}
            for codes in (["D28", "D29"], ["D29", "D28"]):
                got = distances.pairwise_many(codes, X, Y)
                for code, out in zip(codes, got):
                    _assert_bits_equal(out, want[code], (code, *context))


def test_pairwise_many_keeps_no_sums_after_a_raising_measure(monkeypatch):
    A = np.array([[0.5, 1.0], [2.0, 0.25]])

    def boom(X, Y):
        raise RuntimeError("boom")

    monkeypatch.setitem(distances._BLOCKS[distances.KERNELS], "D3", boom)
    with pytest.raises(RuntimeError):
        distances.pairwise_many(["D32", "D3", "D4"], A, A[::-1])
    assert distances._shared.sums is None
    # the next call computes its own sums, of its own rows
    _assert_bits_equal(distances.pairwise_many(["D32"], A, A)[0],
                       pairwise("D32", A, A), "D32")
    assert distances.pairwise_many([], A, A) == []
    with pytest.raises(DimensionMismatch):
        distances.pairwise_many(["D32"], A, np.zeros((2, 3)))


def test_pairwise_many_keeps_each_threads_sums_apart():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(5)
    pairs = [(rng.uniform(0.0, 2.0, (30, 5)), rng.uniform(0.0, 2.0, (20, 5)))
             for _ in range(4)]
    want = [[pairwise(c, A, B) for c in CODES] for A, B in pairs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda p: distances.pairwise_many(CODES, *p),
                            pairs * 2))
    for k, outs in enumerate(got):
        for c, out, w in zip(CODES, outs, want[k % len(pairs)]):
            _assert_bits_equal(out, w, (k, c))
