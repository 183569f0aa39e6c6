"""File loading, normalization, the model archive, and report writers."""
from __future__ import annotations

import csv
import math
from pathlib import Path

import pytest

from opfdist import (
    BenchmarkMatrix,
    apply_normalization,
    apply_to_samples,
    fit_normalization,
    friedman_nemenyi,
    graph_from_arrays,
    load_archive,
    load_csv,
    load_forest,
    load_svmlight,
    save_forest,
    train,
    write_csv,
    write_distance_catalogue,
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

from conftest import read_wine_table


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


# ---------------------------------------------------------------------------
# Canonical CSV writer
# ---------------------------------------------------------------------------

def test_write_csv_round_trip_and_fixed_point(tmp_path):
    src = tmp_path / "src.csv"
    src.write_text("0.1,0.2,A\n0.30000000000000004,4e-08,B\n0.5,0.6,A\n")
    ds = load_csv(src, label_column=-1)
    out1 = tmp_path / "out1.csv"
    write_csv(ds, out1)
    again = load_csv(out1, label_column="label", has_header=True)
    assert [s.features for s in again.samples] == \
        [s.features for s in ds.samples]
    assert [s.label for s in again.samples] == [s.label for s in ds.samples]
    assert again.class_names == ds.class_names
    out2 = tmp_path / "out2.csv"
    write_csv(again, out2)
    assert out1.read_bytes() == out2.read_bytes()


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
    assert apply_normalization(spec, (0.0, 10.0)) == (0.0, 0.0)
    assert apply_normalization(spec, (4.0, 20.0)) == (1.0, 1.0)
    assert apply_normalization(spec, (2.0, 15.0)) == (0.5, 0.5)
    # out-of-range values clamp instead of leaking outside [0, 1]
    assert apply_normalization(spec, (-5.0, 100.0)) == (0.0, 1.0)


def test_constant_feature_normalizes_to_zero():
    from opfdist.forest import Sample
    train_samples = [Sample((3.0, 1.0), 0, 0), Sample((3.0, 2.0), 1, 1)]
    spec = fit_normalization(train_samples, "min_max_01")
    assert apply_normalization(spec, (3.0, 1.5)) == (0.0, 0.5)
    assert apply_normalization(spec, (99.0, 1.0))[0] == 0.0


def test_none_mode_is_identity():
    from opfdist.forest import Sample
    spec = fit_normalization([Sample((1.0, 2.0), 0, 0)], "none")
    assert apply_normalization(spec, (7.5, -3.0)) == (7.5, -3.0)
    out = apply_to_samples(spec, [Sample((1.0, 2.0), 0, 0)])
    assert out[0].features == (1.0, 2.0)


def test_apply_normalization_rejects_wrong_dimension():
    from opfdist.forest import Sample
    spec = fit_normalization(
        [Sample((1.0, 2.0), 0, 0), Sample((2.0, 3.0), 1, 1)], "min_max_01")
    with pytest.raises(DimensionMismatch):
        apply_normalization(spec, (1.0,))


def test_apply_to_samples_preserves_labels_and_ids():
    from opfdist.forest import Sample
    original = [Sample((0.0,), 4, 9), Sample((2.0,), 1, 3)]
    spec = fit_normalization(original, "min_max_01")
    out = apply_to_samples(spec, original)
    assert [(s.label, s.id) for s in out] == [(4, 9), (1, 3)]
    assert out[0].features == (0.0,)
    assert out[1].features == (1.0,)


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
    assert arc.forest.ordered_nodes == forest.ordered_nodes
    assert arc.forest.predecessor == forest.predecessor
    loaded_forest, loaded_spec = load_forest(path)
    assert loaded_forest == forest
    assert loaded_spec == spec


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


# ---------------------------------------------------------------------------
# Catalogue, cells, reports
# ---------------------------------------------------------------------------

def test_distance_catalogue_lists_all_measures(tmp_path):
    path = tmp_path / "catalogue.csv"
    write_distance_catalogue(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("code,name,taxonomy,requires_nonnegative_input,"
                        "satisfies_identity")
    assert len(lines) == 48
    d7 = next(l for l in lines if l.startswith("D7,"))
    assert "Bray-Curtis" in d7
    d18 = next(l for l in lines if l.startswith("D18,"))
    assert d18.endswith("true,false")


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
    written = write_reports(
        {}, None, tmp_path, datasets=matrix.datasets,
        classifiers=matrix.classifiers, matrix=matrix)
    cells_path = tmp_path / "cells.csv"
    assert cells_path in written
    rows = read_cells_csv(cells_path)
    rebuilt = BenchmarkMatrix.from_rows(rows)
    assert rebuilt.cells == matrix.cells


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


def test_summary_formats_and_blank_missing_columns(tmp_path):
    summary = {
        ("alpha", "D3"): (0.5, 0.25),
        ("beta", "D3"): (0.93304, 0.020601),
    }
    write_reports(summary, None, tmp_path,
                  datasets=("alpha", "beta"), classifiers=("D3", "D6"))
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
    paths = write_stat_files(stats, tmp_path, matrix.datasets)
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


def test_stat_files_header_only_when_stats_missing(tmp_path):
    write_stat_files(None, tmp_path, ("alpha",))
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
        write_reports(summary, stats, out,
                      datasets=matrix.datasets,
                      classifiers=matrix.classifiers,
                      matrix=matrix, manifest=manifest)
    for name in ("summary.csv", "summary_raw.csv", "wilcoxon.csv", "rank.csv",
                 "cells.csv", "timings.csv", "failures.csv", "manifest.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_report_cut_midway_leaves_previous_file_whole(tmp_path, monkeypatch):
    matrix = cells_fixture()
    write_reports({}, None, tmp_path, datasets=matrix.datasets,
                  classifiers=matrix.classifiers, matrix=matrix)
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
        write_reports({}, None, tmp_path, datasets=changed.datasets,
                      classifiers=changed.classifiers, matrix=changed)
    assert (tmp_path / "cells.csv").read_bytes() == before
    assert not [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_manifest_lines_are_sorted_key_value(tmp_path):
    write_reports({}, None, tmp_path, datasets=(), classifiers=(),
                  manifest={"zeta": "1", "alpha": "2"})
    assert (tmp_path / "manifest.txt").read_text() == \
        "alpha = 2\nzeta = 1\n"


def test_failures_file_lists_errored_columns(tmp_path):
    matrix = cells_fixture()
    matrix.errors[("alpha", "D6")] = "SomeError: boom"
    write_reports({}, None, tmp_path, datasets=matrix.datasets,
                  classifiers=matrix.classifiers, matrix=matrix)
    lines = (tmp_path / "failures.csv").read_text().splitlines()
    assert lines[0] == "dataset,classifier,error"
    assert lines[1] == "alpha,D6,SomeError: boom"
