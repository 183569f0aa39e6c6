"""File loading, normalization, the model archive, and report writers."""
from __future__ import annotations

import csv
import hashlib
import math
import random
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from opfdist import (
    BenchmarkMatrix,
    Sample,
    TrainingGraph,
    apply_to_samples,
    fit_normalization,
    friedman_nemenyi,
    graph_from_arrays,
    load_archive,
    load_csv,
    load_forest,
    load_svmlight,
    normalize,
    resolve,
    save_forest,
    train,
    write_reports,
    write_stat_files,
)
from opfdist.dataio import ARCHIVE_MAGIC, read_cells_csv
from opfdist.errors import (
    CorruptArchive,
    DimensionMismatch,
    EmptyFile,
    EmptyInput,
    NonAscendingIndices,
    NonNumericFeature,
    ParseError,
    RaggedRows,
    VersionMismatch,
)

import normalization_reference as reference
from conftest import cut_writes, make_dataset, read_wine_table, resealed


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_csv_without_header_and_last_column_label(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1.0,2.0,yes\n3.0,4.0,no\n5.5,6.5,yes\n")
    ds = load_csv(p, label_column=-1)
    assert ds.name == "a"
    assert ds.n_features == 2
    assert ds.n_classes == 2
    assert ds.class_names == ("yes", "no")  # first-appearance order
    assert [s.label for s in ds.samples] == [0, 1, 0]
    assert ds.samples[2].features == (5.5, 6.5)
    assert [s.id for s in ds.samples] == [0, 1, 2]


def test_csv_header_label_by_name_and_blank_rows(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("x,target,y\n1,A,2\n\n3,B,4\n   ,,\n")
    ds = load_csv(p, label_column="target", has_header=True, name="named")
    assert ds.name == "named"
    assert ds.n_features == 2
    assert len(ds.samples) == 2
    assert ds.samples[0].features == (1.0, 2.0)
    assert ds.class_names == ("A", "B")


def test_csv_label_by_positive_index(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("A,1.0\nB,2.0\n")
    ds = load_csv(p, label_column=0)
    assert ds.n_features == 1
    assert ds.class_names == ("A", "B")


def test_csv_unlabeled_mode(tmp_path):
    p = tmp_path / "u.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    ds = load_csv(p, label_column=None)
    assert ds.n_features == 2
    assert ds.n_classes == 1
    assert ds.class_names is None
    assert all(s.label == 0 for s in ds.samples)


def test_csv_empty_and_header_only_files(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(EmptyFile):
        load_csv(p, label_column=-1)
    p.write_text("x,y,label\n")
    with pytest.raises(EmptyFile):
        load_csv(p, label_column="label", has_header=True)


def test_csv_ragged_rows_report_one_based_line(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1,2,A\n1,2\n")
    with pytest.raises(RaggedRows) as err:
        load_csv(p, label_column=-1)
    assert "row 2" in str(err.value)


@pytest.mark.parametrize("text, row", [("a,b,label\n1,2\n3,4\n", 1),
                                       ("\na,label\n1,2,3\n4,5,6\n", 2)],
                         ids=["header-wider", "header-narrower"])
def test_csv_header_width_must_equal_the_rows(tmp_path, text, row):
    # a wider header names a label column past the rows' end, and a
    # narrower one would read the label from the wrong column
    p = tmp_path / "h.csv"
    p.write_text(text)
    with pytest.raises(RaggedRows) as err:
        load_csv(p, label_column="label", has_header=True)
    assert str(err.value).startswith("header has ")
    assert f"row {row}" in str(err.value)


# Each fault is reported as it was when the whole file was read first: a
# width, a header or a label column fault before any value fault.
@pytest.mark.parametrize("text, label_column, has_header, error, message", [
    ("1,oops,A\n1,2\n", -1, False, RaggedRows,
     "expected 3 fields, found 2 ({path}, row 2)"),
    ("a,b,label\n1,oops\n3,4\n", "label", True, RaggedRows,
     "header has 3 fields, rows 2 ({path}, row 1)"),
    ("1,oops,A\n", 5, False, ParseError,
     "label column index 5 outside row width 3 ({path})"),
    ("x,y,target\n1,oops,A\n", "label", True, ParseError,
     "label column 'label' not in header ['x', 'y', 'target'] ({path})"),
    ("\n  ,\n", "label", True, EmptyFile, "no rows at all ({path})"),
    ("1,2,A\n\n1,oops,B\n", -1, False, NonNumericFeature,
     "feature value 'oops' is not a number ({path}, row 3, column 2)"),
    ('"1\n2",3,A\n4,5,B\n', -1, False, NonNumericFeature,
     "feature value '1\\n2' is not a number ({path}, row 1, column 1)"),
    ("x,y\n1,inf\n", None, True, ParseError,
     "non-finite feature value 'inf' ({path}, row 2, column 2)"),
], ids=["width", "header", "label-index", "label-name", "blank-only",
        "blank-row-counts", "quoted-newline", "non-finite"])
def test_csv_faults_keep_their_order_and_messages(tmp_path, text,
                                                  label_column, has_header,
                                                  error, message):
    p = tmp_path / "f.csv"
    p.write_text(text)
    with pytest.raises(error) as err:
        load_csv(p, label_column, has_header)
    assert type(err.value) is error
    assert str(err.value) == message.format(path=p)


def test_load_csv_never_holds_the_whole_file_as_strings(tmp_path):
    rng = np.random.default_rng(29)
    X = rng.uniform(-1.0, 1.0, (300, 100))
    p = tmp_path / "wide.csv"
    p.write_text("".join(",".join(map(repr, row)) + f",c{i % 3}\n"
                         for i, row in enumerate(X.tolist())))
    tracemalloc.start()
    try:
        ds = load_csv(p, label_column=-1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ds.features == X).all() and ds.n_classes == 3
    # the rows' fields as strings would take about 9x the matrix
    assert peak < 3 * X.nbytes, (peak, X.nbytes)


def test_csv_non_numeric_feature_reports_location(tmp_path):
    p = tmp_path / "n.csv"
    p.write_text("1,2,A\n1,oops,B\n")
    with pytest.raises(NonNumericFeature) as err:
        load_csv(p, label_column=-1)
    msg = str(err.value)
    assert "row 2" in msg and "column 2" in msg


def test_csv_rejects_non_finite_feature_tokens(tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("1,nan,A\n1,2,B\n")
    with pytest.raises(ParseError):
        load_csv(p, label_column=-1)


def test_csv_label_column_validation(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1,2,A\n3,4,B\n")
    with pytest.raises(ParseError):
        load_csv(p, label_column=5)
    with pytest.raises(ParseError):
        load_csv(p, label_column="target")  # name without header
    p2 = tmp_path / "w.csv"
    p2.write_text("x,y,target\n1,2,A\n")
    with pytest.raises(ParseError):
        load_csv(p2, label_column="missing", has_header=True)
    p3 = tmp_path / "only_label.csv"
    p3.write_text("A\nB\n")
    with pytest.raises(ParseError):
        load_csv(p3, label_column=0)


def test_bundled_wine_table_equals_sklearn_load_wine():
    # The wine fixture reads data/wine.csv in place of load_wine(); this
    # keeps the substitution exact wherever scikit-learn is installed.
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    raw = sklearn_datasets.load_wine()
    features, labels = read_wine_table()
    assert features == [[float(v) for v in row] for row in raw.data]
    assert labels == [int(v) for v in raw.target]


# ---------------------------------------------------------------------------
# svmlight loading
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("read,text", [
    (lambda p: load_csv(p, "label", True), "label,f1,f2\n0,0.1,0.2\n1,0,1\n"),
    (lambda p: load_csv(p, 0), "0,0.1,0.2\n1,0.3,0.4\n"),
    (load_svmlight, "1 1:0.1\n0 1:0.3 2:0.5\n"),
    (read_cells_csv, "dataset,classifier,run,fold,accuracy\nw,D3,0,1,0.5\n"),
], ids=["csv_header", "csv", "svmlight", "cells"])
def test_readers_skip_a_utf8_byte_order_mark(tmp_path, read, text):
    # as Excel's "CSV UTF-8" writes it
    (tmp_path / "plain").mkdir()
    (tmp_path / "marked").mkdir()
    plain, marked = tmp_path / "plain" / "f.txt", tmp_path / "marked" / "f.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert read(marked) == read(plain)


def test_svmlight_densifies_to_global_max_index(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text(
        "# a comment line\n"
        "+1 1:0.5 3:1.5\n"
        "\n"
        "-1 2:2.0 # trailing comment\n"
        "+1 4:1.0\n")
    ds = load_svmlight(p)
    assert ds.n_features == 4
    assert ds.class_names == ("+1", "-1")
    assert ds.samples[0].features == (0.5, 0.0, 1.5, 0.0)
    assert ds.samples[1].features == (0.0, 2.0, 0.0, 0.0)
    assert ds.samples[2].features == (0.0, 0.0, 0.0, 1.0)
    assert [s.label for s in ds.samples] == [0, 1, 0]


def test_load_svmlight_never_holds_the_whole_file_as_strings(tmp_path):
    rng = np.random.default_rng(31)
    X = rng.uniform(-1.0, 1.0, (300, 100))
    X[rng.random(X.shape) < 0.1] = 0.0
    p = tmp_path / "wide.txt"
    p.write_text("".join(
        f"c{i % 3} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row)
                                if v) + "\n"
        for i, row in enumerate(X.tolist())))
    tracemalloc.start()
    try:
        ds = load_svmlight(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ds.features == X).all() and ds.n_classes == 3
    # the lines, or every (index, value) pair, would take several times
    # the matrix
    assert peak < 3 * X.nbytes, (peak, X.nbytes)


def test_svmlight_reports_index_faults_before_value_faults(tmp_path):
    p = tmp_path / "bad.txt"
    # a value fault on line 1, an index fault on line 2
    p.write_text("1 1:xyz\n0 2:1.0 1:2.0\n")
    with pytest.raises(NonAscendingIndices, match="index 1 after 2") as err:
        load_svmlight(p)
    assert "row 2" in str(err.value)
    p.write_text("1 1:xyz 3:1.0\n0 2:1.0\n")
    with pytest.raises(NonNumericFeature) as err:
        load_svmlight(p)
    assert "row 1" in str(err.value) and "column 1" in str(err.value)


def test_svmlight_rejects_non_ascending_indices(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2:1.0 1:2.0\n")
    with pytest.raises(NonAscendingIndices):
        load_svmlight(p)
    p.write_text("1 1:1.0 1:2.0\n")
    with pytest.raises(NonAscendingIndices):
        load_svmlight(p)


def test_svmlight_empty_and_malformed(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# only a comment\n\n")
    with pytest.raises(EmptyFile):
        load_svmlight(p)
    p.write_text("1 0:1.0\n")
    with pytest.raises(ParseError):
        load_svmlight(p)
    p.write_text("1 a:1.0\n")
    with pytest.raises(ParseError):
        load_svmlight(p)
    p.write_text("1 1:xyz\n")
    with pytest.raises(ParseError):
        load_svmlight(p)
    # a line without a label: its first feature is not read as one
    p.write_text("A 1:0.5\n1:0.5 2:1.0\n")
    with pytest.raises(ParseError, match="where the label should be") as err:
        load_svmlight(p)
    assert "row 2" in str(err.value)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("features, labels, kw, error, message", [
    ([], [], {"n_classes": 1}, EmptyInput,
     "dataset 'synthetic' has no samples"),
    ([[], []], [0, 1], {}, DimensionMismatch,
     "datasets need at least one feature"),
    ([[0.0], [math.nan]], [0, 1], {}, ParseError,
     "non-finite feature value nan in sample id 1"),
    ([[0.0, 1.0], [-math.inf, math.inf]], [0, 1], {}, ParseError,
     "non-finite feature value -inf in sample id 1"),
    ([[0.0], [1.0]], [0, 2], {"n_classes": 2}, ParseError,
     "label 2 of sample id 1 outside 0..1"),
    ([[0.0], [1.0]], [-1, 1], {"n_classes": 2}, ParseError,
     "label -1 of sample id 0 outside 0..1"),
    # the first bad row is reported, its values before its label
    ([[0.0], [1.0], [math.inf]], [0, 5, 1], {"n_classes": 2}, ParseError,
     "label 5 of sample id 1 outside 0..1"),
    ([[0.0], [1.0]], [0, 0], {"n_classes": 2}, ParseError,
     "dataset 'synthetic' declares 2 classes but only 1 occur"),
    ([[0.0], [1.0]], [0, 1], {"class_names": ("a",)}, ParseError,
     "class_names length disagrees with n_classes"),
    ([[0.0], [1.0]], [[0, 1], [1, 0]], {"n_classes": 2}, DimensionMismatch,
     "features of shape (2, 1) and labels of shape (2, 2)"),
    # a cast would truncate these: 0.7 and 1.7 would read 0 and 1
    ([[0.0], [1.0]], [0.7, 1.7], {"n_classes": 2}, ParseError,
     "label 0.7 of sample id 0 is not a whole number"),
    ([[0.0], [1.0], [2.0]], [0.0, 1.0, math.nan], {"n_classes": 2},
     ParseError, "label nan of sample id 2 is not a whole number"),
    ([[math.nan], [1.0]], [0.5, 1.0], {"n_classes": 2}, ParseError,
     "non-finite feature value nan in sample id 0"),
], ids=["no-samples", "no-features", "nan", "inf", "label-above",
        "label-below", "first-bad-row", "class-missing", "class-names",
        "labels-2d", "label-fraction", "label-nan", "values-before-label"])
def test_dataset_rejects_with_type_and_message(features, labels, kw, error,
                                               message):
    with pytest.raises(error) as err:
        make_dataset(features, labels, **kw)
    assert type(err.value) is error
    assert str(err.value) == message


def test_dataset_takes_whole_number_float_labels():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 1])
    ds = make_dataset(X, y.astype(float), n_classes=2)
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 1]
    assert ds == make_dataset(X, y, n_classes=2)
    with pytest.raises(ParseError, match="^label 0.7 of sample id 0 is not"):
        make_dataset(X, y + 0.7, n_classes=2)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalization_mode_validation():
    from opfdist.forest import Sample
    s = [Sample((1.0,), 0, 0)]
    with pytest.raises(ValueError):
        fit_normalization(s, "zscore")
    with pytest.raises(EmptyInput):
        fit_normalization([], "min_max_01")


def test_min_max_refuses_ragged_rows_and_non_finite_values():
    from opfdist.forest import Sample
    with pytest.raises(DimensionMismatch,
                       match="^training row 1 has dim 1, expected 2$"):
        fit_normalization([[1.0, 2.0], [3.0]], "min_max_01")
    for rows, message in (
            ([[1.0, math.nan], [3.0, 1.0]],
             "non-finite feature value nan in sample id 0"),
            ([[1.0, 2.0], [3.0, 1.0], [-math.inf, 0.0]],
             "non-finite feature value -inf in sample id 2"),
            ([Sample((1.0, 2.0), 0, 4), Sample((math.inf, 1.0), 1, 9)],
             "non-finite feature value inf in sample id 9")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_normalization(rows, "min_max_01")
    # no bounds are fitted in mode none
    assert fit_normalization([[math.nan]], "none").mode == "none"


def test_min_max_maps_training_range_onto_unit_interval():
    from opfdist.forest import Sample
    train_samples = [
        Sample((0.0, 10.0), 0, 0),
        Sample((4.0, 20.0), 1, 1),
        Sample((2.0, 15.0), 0, 2),
    ]
    spec = fit_normalization(train_samples, "min_max_01")
    assert spec.feature_min == (0.0, 10.0)
    assert spec.feature_max == (4.0, 20.0)
    assert normalize(spec, (0.0, 10.0)).tolist() == [0.0, 0.0]
    assert normalize(spec, (4.0, 20.0)).tolist() == [1.0, 1.0]
    assert normalize(spec, (2.0, 15.0)).tolist() == [0.5, 0.5]
    # out-of-range values clamp instead of leaking outside [0, 1]
    assert normalize(spec, (-5.0, 100.0)).tolist() == [0.0, 1.0]


def test_constant_feature_normalizes_to_zero():
    from opfdist.forest import Sample
    train_samples = [Sample((3.0, 1.0), 0, 0), Sample((3.0, 2.0), 1, 1)]
    spec = fit_normalization(train_samples, "min_max_01")
    assert normalize(spec, (3.0, 1.5)).tolist() == [0.0, 0.5]
    assert normalize(spec, (99.0, 1.0))[0] == 0.0


def test_none_mode_is_identity():
    from opfdist.forest import Sample
    spec = fit_normalization([Sample((1.0, 2.0), 0, 0)], "none")
    assert normalize(spec, (7.5, -3.0)).tolist() == [7.5, -3.0]
    out = apply_to_samples(spec, [Sample((1.0, 2.0), 0, 0)])
    assert out[0].features == (1.0, 2.0)


def test_apply_to_samples_preserves_labels_and_ids():
    from opfdist.forest import Sample
    original = [Sample((0.0,), 4, 9), Sample((2.0,), 1, 3)]
    spec = fit_normalization(original, "min_max_01")
    out = apply_to_samples(spec, original)
    assert [(s.label, s.id) for s in out] == [(4, 9), (1, 3)]
    assert out[0].features == (0.0,)
    assert out[1].features == (1.0,)


def _signs(values):
    return [math.copysign(1.0, v) for v in values]


def test_min_max_keeps_the_first_seen_signed_zero():
    # columns 0 and 1 hold both zeros as minima, columns 2 and 3 as
    # maxima, in both orders; column 4 holds only zeros
    rows = [(-0.0, 0.0, -1.0, -1.0, -0.0),
            (0.0, -0.0, -0.0, 0.0, 0.0),
            (2.0, 2.0, 0.0, -0.0, -0.0)]
    samples = [Sample(row, i % 2, i) for i, row in enumerate(rows)]
    spec = fit_normalization(samples, "min_max_01")
    assert spec.feature_min == (0.0, 0.0, -1.0, -1.0, 0.0)
    assert _signs(spec.feature_min) == [-1.0, 1.0, -1.0, -1.0, -1.0]
    assert spec.feature_max == (2.0, 2.0, 0.0, 0.0, 0.0)
    assert _signs(spec.feature_max) == [1.0, 1.0, -1.0, 1.0, -1.0]
    # x - lo keeps the sign that only the first-seen zero gives:
    # -0.0 - (-0.0) is +0.0, and -0.0 - (+0.0) is -0.0
    out = apply_to_samples(spec, samples)
    assert [s.features for s in out] == [(0.0, 0.0, 0.0, 0.0, 0.0),
                                         (0.0, 0.0, 1.0, 1.0, 0.0),
                                         (1.0, 1.0, 1.0, 1.0, 0.0)]
    assert _signs(out[0].features[:2]) == [1.0, 1.0]
    assert _signs(out[1].features[:2]) == [1.0, -1.0]


# signed zeros, values far outside a training range, the largest and the
# smallest magnitudes (x - lo and hi - lo overflow to inf, and inf / inf
# is NaN), and plain values
_EDGES = (0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e300, -1e300,
          1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324)


def _adversarial_cases():
    """(training rows, query rows) pairs that the reference is read on."""
    yield [(-0.0, 0.0, 2.0), (0.0, -0.0, 2.0)], [(-0.0, 0.0, 2.0),
                                                 (0.0, -0.0, 5.0)]
    yield [(3.5, -0.0)], [(3.5, 0.0), (-7.0, -0.0)]  # one row: constant
    yield ([(0.0, 1e300), (1.0, -1e300)],
           [(-1e6, 1.7976931348623157e308), (1e6, -1.7976931348623157e308),
            (0.25, 0.0)])
    rng = random.Random(26)
    for _ in range(300):
        n, m, d = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 5)

        def value():
            if rng.random() < 0.7:
                return rng.choice(_EDGES)
            return rng.uniform(-2.0, 2.0)
        yield ([tuple(value() for _ in range(d)) for _ in range(n)],
               [tuple(value() for _ in range(d)) for _ in range(m)])


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def test_normalize_equals_the_scalar_reference_bit_for_bit():
    for train_rows, query_rows in _adversarial_cases():
        lo, hi = reference.fit(train_rows)
        samples = [Sample(r, 0, i) for i, r in enumerate(train_rows)]
        for fitted in (fit_normalization(np.array(train_rows), "min_max_01"),
                       fit_normalization(samples, "min_max_01")):
            assert _bits(fitted.feature_min) == _bits(lo), train_rows
            assert _bits(fitted.feature_max) == _bits(hi), train_rows
        rows = train_rows + query_rows
        want = [reference.apply(lo, hi, r) for r in rows]
        got = normalize(fitted, np.array(rows))
        assert not got.flags.writeable
        assert _bits(got) == _bits(want), rows
        assert _bits(normalize(fitted, rows[0])) == _bits(want[0])
        assert _bits([normalize(fitted, r) for r in rows]) == _bits(want)
        assert _bits([s.features for s in apply_to_samples(
            fitted, [Sample(r, 0, 0) for r in rows])]) == _bits(want)


def test_normalize_checks_the_row_width():
    spec = fit_normalization(np.array([[0.0, 1.0], [1.0, 3.0]]), "min_max_01")
    for bad in ([[1.0]], (1.0,), [1.0, 2.0, 3.0], np.zeros((0, 3))):
        with pytest.raises(DimensionMismatch):
            normalize(spec, bad)
    for mode_spec in (spec, fit_normalization([[0.0, 1.0]], "none")):
        with pytest.raises(DimensionMismatch,
                           match="^input row 1 has dim 1, expected 2$"):
            normalize(mode_spec, [[1.0, 2.0], [3.0]])
    assert normalize(spec, np.zeros((0, 2))).shape == (0, 2)
    X = np.array([[1.0, -0.0]])
    assert normalize(fit_normalization(X, "none"), X).tolist() == [[1.0, -0.0]]


# ---------------------------------------------------------------------------
# Model archive
# ---------------------------------------------------------------------------

def trained_pair():
    g = graph_from_arrays(
        [[0.0, 1.0], [1.0, 0.5], [3.0, 2.0], [4.0, 2.5]],
        [0, 0, 1, 1], "D7")
    forest = train(g)
    spec = fit_normalization(list(g.samples), "min_max_01")
    return forest, spec


def test_archive_round_trip_is_exact(tmp_path):
    forest, spec = trained_pair()
    path = tmp_path / "model.opf"
    save_forest(forest, spec, path, class_names=("red", "blue"))
    arc = load_archive(path)
    assert arc.format_version == 1
    assert arc.class_names == ("red", "blue")
    assert arc.normalization == spec
    assert arc.forest == forest
    assert arc.forest.cost == forest.cost
    assert (arc.forest.order == forest.order).all()
    assert (arc.forest.preds == forest.preds).all()
    loaded_forest, loaded_spec = load_forest(path)
    assert loaded_forest == forest
    assert loaded_spec == spec


def golden_forest():
    """Seven signed samples of three classes, with ids that are neither
    positional nor small, under a three-character distance code."""
    features = [
        (0.1, -2.5, 3.0), (0.7, -1.0, 2.25), (1.3, 0.4, -0.6),
        (2.2, 1.9, -1.1), (-0.4, 2.8, 0.05), (0.9, 3.3, 1.7),
        (1.75, -0.35, 0.8)]
    labels = [0, 0, 1, 1, 2, 2, 1]
    ids = [7, 3, 2 ** 40, 11, 0, 5, 9]
    samples = tuple(Sample(f, lab, i) for f, lab, i in zip(features, labels, ids))
    return train(TrainingGraph(samples, resolve("D46")))


# sha256 of the format-v1 archive of golden_forest(), pinned from the
# struct-based writer that preceded the numpy block writer.
GOLDEN_ARCHIVES = {
    ("none", None):
        "351fe0e76eda5bfae60114433962ffe5ad2ee4bcf4076cf81e61a0691b3a0368",
    ("min_max_01", None):
        "c468481f0e3e08c557f8d3a1248c1a1ceddea80f9c273077f1be502853bdc59d",
    ("none", ("low", "mid", "high")):
        "aa4d593c79dc7054029e76132198696ba92d0f77ef9c7a5be76119b2b9b02b92",
    ("min_max_01", ("rouge", "grün", "青")):
        "d8825d84107db41fe2ea92c8035514d9dad1e0f0dd641dea53e7ea26d53d43d2",
}


@pytest.mark.parametrize("mode,names", list(GOLDEN_ARCHIVES))
def test_archive_bytes_match_format_v1_golden_digests(tmp_path, mode, names):
    forest = golden_forest()
    spec = fit_normalization(list(forest.samples), mode)
    path = tmp_path / "golden.opf"
    save_forest(forest, spec, path, class_names=names)
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_ARCHIVES[mode, names]

    arc = load_archive(path)
    assert arc.forest == forest
    assert arc.normalization == spec
    assert arc.class_names == names
    loaded = arc.forest
    # plain Python scalars, not numpy ones: reprs (and so reports and
    # prediction digests) depend on it
    floats = [v for s in loaded.samples for v in s.features] + list(loaded.cost)
    if mode == "min_max_01":
        floats += [*arc.normalization.feature_min, *arc.normalization.feature_max]
    ints = ([s.label for s in loaded.samples] + [s.id for s in loaded.samples]
            + list(loaded.prototypes))
    assert {type(v) for v in floats} == {float}
    assert {type(v) for v in ints} == {int}
    assert type(loaded.samples[0].features) is tuple
    assert type(loaded.cost) is tuple


def test_archive_without_class_names(tmp_path):
    forest, spec = trained_pair()
    path = tmp_path / "m.opf"
    save_forest(forest, spec, path)
    arc = load_archive(path)
    assert arc.class_names is None


def test_archive_writes_are_deterministic(tmp_path):
    forest, spec = trained_pair()
    a = tmp_path / "a.opf"
    b = tmp_path / "b.opf"
    save_forest(forest, spec, a, class_names=("x", "y"))
    save_forest(forest, spec, b, class_names=("x", "y"))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()[:4] == ARCHIVE_MAGIC


def test_archive_rejects_corruption(tmp_path):
    forest, spec = trained_pair()
    path = tmp_path / "m.opf"
    save_forest(forest, spec, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.opf"

    bad.write_bytes(blob[:30])
    with pytest.raises(CorruptArchive):
        load_archive(bad)

    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CorruptArchive):
        load_archive(bad)

    future = bytearray(blob)
    future[4:8] = (99).to_bytes(4, "little")
    bad.write_bytes(bytes(future))
    with pytest.raises(VersionMismatch):
        load_archive(bad)

    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CorruptArchive):
        load_archive(bad)

    bad.write_bytes(blob + b"extra")
    with pytest.raises(CorruptArchive):
        load_archive(bad)


def test_archive_rejects_structurally_invalid_payloads(tmp_path):
    forest, spec = trained_pair()
    path = tmp_path / "m.opf"
    save_forest(forest, spec, path)
    blob = path.read_bytes()
    n = len(forest.samples)
    protos = sorted(forest.prototypes)
    assert n == 4 and len(protos) == 2
    # the payload ends with n_protos, protos, cost, pred, root, ordered
    ordered_at = len(blob) - 48 - 4 * n
    pred_at = ordered_at - 16 * n
    cost_at = pred_at - 8 * n
    protos_at = cost_at - 4 * len(protos)
    first, mid, last = (forest.order.tolist()[i] for i in (0, 2, 3))
    assert forest.cost[first] < forest.cost[mid] < forest.cost[last]

    def put(fmt, offset, *vals):
        return lambda payload: struct.pack_into("<" + fmt, payload, offset,
                                                *vals)

    bad = tmp_path / "bad.opf"
    size = "samples of"
    order = "ordered nodes are not a permutation"
    proto = "prototype indices are not strictly ascending"
    pred = "predecessor outside"
    rootless = "the nodes without a predecessor are not the prototypes"
    inner = next(i for i in range(n) if i not in protos)
    infinite = "a node cost is not finite"
    decrease = "node costs decrease along the ordered nodes"
    cases = [
        (put("I", 0, 0), size),
        (put("I", 4, 0), size),
        (put("I", ordered_at, 99), order),
        (put("I", ordered_at, forest.order.tolist()[1]), order),
        (put("2I", protos_at, protos[1], protos[0]), proto),
        (put("2I", protos_at, protos[0], protos[0]), proto),
        (put("I", protos_at + 4, n), proto),
        (put("q", pred_at, n), pred),
        (put("q", pred_at, -2), pred),
        # in range, but a prototype with a predecessor, or another node
        # without one
        (put("q", pred_at + 8 * protos[0], inner), rootless),
        (put("q", pred_at + 8 * inner, -1), rootless),
        # the early exit stops at the first node whose cost reaches the
        # best offer, which a later, cheaper node would make wrong
        (put("d", cost_at + 8 * last, math.nan), infinite),
        (put("d", cost_at + 8 * first, math.nan), infinite),
        # +inf on the last settled node keeps the order non-decreasing
        (put("d", cost_at + 8 * last, math.inf), infinite),
        (put("d", cost_at + 8 * last, forest.cost[mid] / 2), decrease),
        (put("d", cost_at + 8 * first, forest.cost[last] + 1.0), decrease),
    ]
    for edit, message in cases:
        bad.write_bytes(resealed(blob, edit))
        with pytest.raises(CorruptArchive, match=message):
            load_archive(bad)
    # the helper itself keeps an unedited archive loadable
    bad.write_bytes(resealed(blob, lambda payload: None))
    assert load_archive(bad).forest == forest
    # text fields that do not decode: the distance code "D7" follows its
    # length at payload offset 12 in an archive without class names, and
    # the class name "red" its u16 length at offset 12 in one with them
    save_forest(forest, spec, path, class_names=("red", "blue"))
    for blob, edit, message in (
            (blob, put("B", 13, 0xFF),
             r"distance code b'\\xff7' is not ascii"),
            (path.read_bytes(), put("B", 14, 0xFF),
             r"class name b'\\xffed' is not utf-8")):
        bad.write_bytes(resealed(blob, edit))
        with pytest.raises(CorruptArchive, match=message):
            load_archive(bad)


def test_archive_overwrite_cut_midway_leaves_previous_file_whole(
        tmp_path, monkeypatch):
    forest, spec = trained_pair()
    path = tmp_path / "m.opf"
    save_forest(forest, spec, path)
    before = path.read_bytes()

    cut_writes(monkeypatch, "killed while writing the archive")
    with pytest.raises(OSError, match="killed"):
        save_forest(forest, spec, path, class_names=("red", "blue"))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.opf"]


# ---------------------------------------------------------------------------
# Cells, reports
# ---------------------------------------------------------------------------

def cells_fixture():
    values = {
        "alpha": {"D3": [0.5, 0.75], "D6": [0.25, 0.5], "D7": [1.0, 1.0]},
        "beta": {"D3": [0.125, 0.25], "D6": [0.5, 0.625], "D7": [0.0, 0.5]},
    }
    datasets = ("alpha", "beta")
    classifiers = ("D3", "D6", "D7")
    cells = {}
    for ds in datasets:
        for c in classifiers:
            for r, v in enumerate(values[ds][c]):
                cells[(ds, c, r, 0)] = v
                cells[(ds, c, r, 1)] = v
    m = BenchmarkMatrix(datasets, classifiers, 2, cells)
    for key in m.cells:
        m.timings[key] = (0.001, 0.002)
    return m


def test_cells_csv_round_trip(tmp_path):
    matrix = cells_fixture()
    written = write_reports({}, None, tmp_path, matrix=matrix)
    cells_path = tmp_path / "cells.csv"
    assert cells_path in written
    rows = read_cells_csv(cells_path)
    rebuilt = BenchmarkMatrix.from_rows(rows)
    assert rebuilt.cells == matrix.cells


def test_reports_take_rows_and_columns_from_the_matrix_alone(tmp_path):
    matrix = cells_fixture()
    write_reports({}, None, tmp_path, matrix=matrix,
                  datasets=list(matrix.datasets),
                  classifiers=list(matrix.classifiers))
    for given in ({"datasets": ("beta", "alpha")}, {"classifiers": ("D3",)}):
        with pytest.raises(ValueError, match="the matrix's own"):
            write_reports({}, None, tmp_path, matrix=matrix, **given)


def test_cells_csv_header_and_row_validation(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text("wrong,header\n")
    with pytest.raises(ParseError):
        read_cells_csv(p)
    p.write_text("")
    with pytest.raises(EmptyFile):
        read_cells_csv(p)
    p.write_text("dataset,classifier,run,fold,accuracy\nd,D3,0\n")
    with pytest.raises(RaggedRows):
        read_cells_csv(p)
    p.write_text("dataset,classifier,run,fold,accuracy\nd,D3,0,0,x\n")
    with pytest.raises(ParseError):
        read_cells_csv(p)
    # a cell outside the grid or an accuracy outside [0, 1] is refused,
    # naming the file and the row
    for bad in ("d,D3,0,1,nan", "d,D3,0,2,0.5", "d,D3,-1,0,0.5",
                "d,D3,0,1,1.5"):
        p.write_text(f"dataset,classifier,run,fold,accuracy\nd,D3,0,0,1.0\n"
                     f"{bad}\n")
        with pytest.raises(ParseError) as info:
            read_cells_csv(p)
        assert f"row {bad}: fold must be 0 or 1, run >= 0 and accuracy in " \
            f"[0, 1] ({p}, row 3)" == str(info.value)


def test_cells_and_timings_rows_follow_the_grid_order(tmp_path):
    matrix = cells_fixture()
    del matrix.cells[("alpha", "D6", 1, 0)], matrix.timings[("beta", "D3", 0, 1)]
    keys = list(matrix.grid())
    assert keys[:5] == [("alpha", "D3", 0, 0), ("alpha", "D3", 0, 1),
                        ("alpha", "D3", 1, 0), ("alpha", "D3", 1, 1),
                        ("alpha", "D6", 0, 0)]
    assert len(keys) == len(set(keys)) == 2 * 3 * 2 * 2
    write_reports({}, None, tmp_path, matrix=matrix)
    for name, present in (("cells.csv", matrix.cells),
                          ("timings.csv", matrix.timings)):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(ds, c, int(r), int(f)) for ds, c, r, f, *_ in rows] == \
            [k for k in keys if k in present], name


def test_summary_formats_and_blank_missing_columns(tmp_path):
    summary = {
        ("alpha", "D3"): (0.5, 0.25),
        ("beta", "D3"): (0.93304, 0.020601),
    }
    write_reports(summary, None, tmp_path,
                  matrix=BenchmarkMatrix(("alpha", "beta"), ("D3", "D6"), 1))
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "dataset,D3,D6"
    assert lines[1] == "alpha,0.5000 ± 0.2500,"
    assert lines[2] == "beta,0.9330 ± 0.0206,"
    raw = (tmp_path / "summary_raw.csv").read_text().splitlines()
    assert raw[0] == "dataset,D3_mean,D3_std,D6_mean,D6_std"
    assert raw[1] == "alpha,0.5,0.25,,"
    assert raw[2] == "beta,0.93304,0.020601,,"


def test_stat_files_orders_and_repeated_cd(tmp_path):
    matrix = cells_fixture()
    stats = friedman_nemenyi(matrix)
    paths = write_stat_files(stats, tmp_path)
    rank_lines = (tmp_path / "rank.csv").read_text().splitlines()
    assert rank_lines[0] == "classifier,mean_rank,critical_difference"
    assert len(rank_lines) == 4
    cds = {line.rsplit(",", 1)[1] for line in rank_lines[1:]}
    assert len(cds) == 1  # the same critical difference on every row
    assert [l.split(",")[0] for l in rank_lines[1:]] == ["D3", "D6", "D7"]

    wl = (tmp_path / "wilcoxon.csv").read_text().splitlines()
    assert wl[0] == ("dataset,classifier_a,classifier_b,statistic,p_value,"
                     "equivalent")
    # runs=2 < 5: the pairwise grid is empty but the header still stands
    assert len(wl) == 1
    assert all(p.exists() for p in paths)


def test_wilcoxon_rows_follow_the_matrix_order(tmp_path):
    datasets, classifiers = ("zeta", "alpha"), ("D9", "D3", "D1")
    rng = random.Random(7)
    matrix = BenchmarkMatrix(datasets, classifiers, 5, {
        key: rng.random() for key in
        BenchmarkMatrix(datasets, classifiers, 5).grid()})
    write_stat_files(friedman_nemenyi(matrix), tmp_path)
    rows = (tmp_path / "wilcoxon.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [
        [ds, a, b] for ds in datasets
        for a, b in (("D9", "D3"), ("D9", "D1"), ("D3", "D1"))]


def test_stat_files_header_only_when_stats_missing(tmp_path):
    write_stat_files(None, tmp_path)
    assert (tmp_path / "rank.csv").read_text().splitlines() == [
        "classifier,mean_rank,critical_difference"]
    assert len((tmp_path / "wilcoxon.csv").read_text().splitlines()) == 1


def test_report_writing_is_byte_deterministic(tmp_path):
    matrix = cells_fixture()
    stats = friedman_nemenyi(matrix)
    summary = {
        ("alpha", "D3"): (0.625, 0.1), ("alpha", "D6"): (0.375, 0.2),
        ("alpha", "D7"): (1.0, 0.0), ("beta", "D3"): (0.1875, 0.05),
        ("beta", "D6"): (0.5625, 0.0), ("beta", "D7"): (0.25, 0.3),
    }
    manifest = {"seed": "0", "runs": "2"}
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        write_reports(summary, stats, out, matrix=matrix, manifest=manifest)
    for name in ("summary.csv", "summary_raw.csv", "wilcoxon.csv", "rank.csv",
                 "cells.csv", "timings.csv", "failures.csv", "manifest.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_report_cut_midway_leaves_previous_file_whole(tmp_path, monkeypatch):
    matrix = cells_fixture()
    write_reports({}, None, tmp_path, matrix=matrix)
    before = (tmp_path / "cells.csv").read_bytes()

    real_writer = csv.writer

    class CutWriter:
        # writes two rows, then half of the third, then fails
        def __init__(self, fh, **kw):
            self.fh, self.inner, self.rows = fh, real_writer(fh, **kw), 0

        def writerow(self, row):
            self.rows += 1
            if self.rows == 3:
                self.fh.write("alpha,D3,1,0,0.92")
                raise OSError("killed while writing cells.csv")
            self.inner.writerow(row)

    def writer(fh, **kw):
        if Path(fh.name).name.startswith("cells.csv"):
            return CutWriter(fh, **kw)
        return real_writer(fh, **kw)

    monkeypatch.setattr(csv, "writer", writer)
    changed = cells_fixture()
    changed.cells[("alpha", "D3", 1, 0)] = 0.9213483146067416
    with pytest.raises(OSError, match="killed"):
        write_reports({}, None, tmp_path, matrix=changed)
    assert (tmp_path / "cells.csv").read_bytes() == before
    assert not [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_manifest_lines_are_sorted_key_value(tmp_path):
    write_reports({}, None, tmp_path, matrix=BenchmarkMatrix((), (), 1),
                  manifest={"zeta": "1", "alpha": "2"})
    assert (tmp_path / "manifest.txt").read_text() == \
        "alpha = 2\nzeta = 1\n"


def test_failures_file_lists_errored_columns(tmp_path):
    matrix = cells_fixture()
    matrix.errors[("alpha", "D6")] = "SomeError: boom"
    write_reports({}, None, tmp_path, matrix=matrix)
    lines = (tmp_path / "failures.csv").read_text().splitlines()
    assert lines[0] == "dataset,classifier,error"
    assert lines[1] == "alpha,D6,SomeError: boom"
