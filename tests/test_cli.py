"""End-to-end command-line behaviour, including exit codes and reports."""
from __future__ import annotations

import os
import platform
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opfdist
from opfdist.cli import main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

REPORT_FILES = ("summary.csv", "summary_raw.csv", "wilcoxon.csv", "rank.csv",
                "cells.csv", "timings.csv", "failures.csv", "manifest.txt")
BYTE_STABLE = tuple(n for n in REPORT_FILES if n != "timings.csv")


def write_line_dataset(path):
    path.write_text("0.0,A\n1.0,A\n3.0,B\n4.0,B\n")


def write_blob_dataset(path, seed, n=8):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        cls = i % 2
        cx = 0.0 if cls == 0 else 5.0
        rows.append(f"{cx + rng.uniform(-1, 1)!r},"
                    f"{cx + rng.uniform(-1, 1)!r},c{cls}")
    path.write_text("\n".join(rows) + "\n")


def bench_config(tmp_path, *, seed=0, runs=2, distances="[D3, D6, D7]",
                 extra=""):
    d1 = tmp_path / "blob1.csv"
    d2 = tmp_path / "blob2.csv"
    write_blob_dataset(d1, seed=1)
    write_blob_dataset(d2, seed=2)
    cfg = tmp_path / "bench.yaml"
    cfg.write_text(
        f"seed: {seed}\n"
        f"runs: {runs}\n"
        "normalization: min_max_01\n"
        f"distances: {distances}\n"
        "datasets:\n"
        "  - path: blob1.csv\n"
        "    label_column: -1\n"
        "  - path: blob2.csv\n"
        "    label_column: -1\n"
        + extra)
    return cfg


# ---------------------------------------------------------------------------
# version / usage
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "opfdist" in out
    assert "archive format 1" in out


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def declared_console_script(name):
    """The ``module:attr`` target of ``[project.scripts]`` in pyproject."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def assert_reports_version(proc):
    assert proc.returncode == 0, proc.stderr
    assert "opfdist" in proc.stdout


def test_console_script_is_installed():
    # Run what the wrapper that pip generates for the entry point runs:
    # import the target, set argv, exit with its return value.  This
    # needs no installed executable, so it also checks a source checkout.
    module, _, attr = declared_console_script("opfdist").partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv = ['opfdist', '--version']\n"
        f"sys.exit({attr}())\n")
    package_parent = str(Path(opfdist.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_parent] + ([inherited] if inherited else [])))
    assert_reports_version(subprocess.run(
        [sys.executable, "-c", wrapper], capture_output=True, text=True,
        env=env))

    installed = shutil.which("opfdist")
    if installed is not None:
        assert_reports_version(subprocess.run(
            [installed, "--version"], capture_output=True, text=True))


# ---------------------------------------------------------------------------
# train / predict
# ---------------------------------------------------------------------------

def test_train_then_predict_on_hand_traceable_data(tmp_path, capsys):
    data = tmp_path / "line.csv"
    write_line_dataset(data)
    model = tmp_path / "model.opf"
    rc = main(["train", "--data", str(data), "--label-column", "1",
               "--distance", "D3", "--out", str(model)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "samples = 4" in out
    assert "prototypes = 2" in out
    assert "distance = D3" in out
    assert model.exists()

    preds = tmp_path / "preds.csv"
    rc = main(["predict", "--model", str(model), "--data", str(data),
               "--label-column", "1", "--out", str(preds)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predictions = 4" in out
    assert "accuracy = 1.0000" in out
    assert preds.read_text().splitlines() == [
        "row,predicted_label,cost,conqueror",
        "1,A,1.0,1",
        "2,A,0.0,1",
        "3,B,0.0,2",
        "4,B,1.0,2",
    ]


def test_predict_without_labels_skips_accuracy(tmp_path, capsys):
    data = tmp_path / "line.csv"
    write_line_dataset(data)
    model = tmp_path / "model.opf"
    main(["train", "--data", str(data), "--label-column", "1",
          "--distance", "D3", "--out", str(model)])
    capsys.readouterr()

    unlabeled = tmp_path / "queries.csv"
    unlabeled.write_text("1.9\n4.0\n")
    preds = tmp_path / "p.csv"
    rc = main(["predict", "--model", str(model), "--data", str(unlabeled),
               "--out", str(preds)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy" not in out
    lines = preds.read_text().splitlines()
    assert lines[1].startswith("1,A,")
    assert lines[2].startswith("2,B,")


def test_predict_empty_input_writes_header_only(tmp_path, capsys):
    data = tmp_path / "line.csv"
    write_line_dataset(data)
    model = tmp_path / "model.opf"
    main(["train", "--data", str(data), "--label-column", "1",
          "--distance", "D3", "--out", str(model)])
    capsys.readouterr()

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    preds = tmp_path / "p.csv"
    rc = main(["predict", "--model", str(model), "--data", str(empty),
               "--out", str(preds)])
    assert rc == 0
    assert preds.read_text() == "row,predicted_label,cost,conqueror\n"
    assert "predictions = 0" in capsys.readouterr().out


def test_predict_dimension_mismatch_exits_one(tmp_path, capsys):
    data = tmp_path / "line.csv"
    write_line_dataset(data)
    model = tmp_path / "model.opf"
    main(["train", "--data", str(data), "--label-column", "1",
          "--distance", "D3", "--out", str(model)])

    wide = tmp_path / "wide.csv"
    wide.write_text("1.0,2.0,A\n")
    rc = main(["predict", "--model", str(model), "--data", str(wide),
               "--label-column", "-1", "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert "DimensionMismatch" in capsys.readouterr().err


def test_train_single_class_exits_one(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("0.0,A\n1.0,A\n")
    rc = main(["train", "--data", str(data), "--label-column", "1",
               "--distance", "D3", "--out", str(tmp_path / "m.opf")])
    assert rc == 1
    assert "SingleClass" in capsys.readouterr().err


def test_train_unknown_distance_exits_two(tmp_path, capsys):
    data = tmp_path / "line.csv"
    write_line_dataset(data)
    rc = main(["train", "--data", str(data), "--label-column", "1",
               "--distance", "D99", "--out", str(tmp_path / "m.opf")])
    assert rc == 2
    assert "D99" in capsys.readouterr().err


def test_train_missing_file_exits_one(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"),
               "--label-column", "1", "--distance", "D3",
               "--out", str(tmp_path / "m.opf")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_writes_full_report_set(tmp_path, capsys):
    cfg = bench_config(tmp_path)
    out = tmp_path / "reports"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    for name in REPORT_FILES:
        assert (out / name).exists(), name
    captured = capsys.readouterr()
    assert "reports written to" in captured.out
    assert "grid: 8 tasks, 8 to compute, 0 cells reused" in captured.err

    cells_lines = (out / "cells.csv").read_text().splitlines()
    assert len(cells_lines) == 1 + 2 * 3 * 2 * 2
    manifest = (out / "manifest.txt").read_text()
    assert "config_hash = " in manifest
    assert "seed = 0" in manifest
    assert "normalization = min_max_01" in manifest
    assert "dataset_blob1 = rows=8 features=2 classes=2" in manifest
    assert f"numpy = {np.__version__}\n" in manifest
    assert f"python = {platform.python_version()}\n" in manifest
    assert opfdist.distances.EXP_LOG in ("numpy-strided", "libm-per-element")
    assert f"exp_log = {opfdist.distances.EXP_LOG}\n" in manifest
    rank_lines = (out / "rank.csv").read_text().splitlines()
    assert len(rank_lines) == 4  # header + one row per ranked measure
    summary_lines = (out / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == "dataset,D3,D6,D7"
    assert len(summary_lines) == 3


def test_bench_reports_identical_across_parallelism(tmp_path):
    cfg = bench_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(out2),
                 "--parallelism", "3"]) == 0
    for name in BYTE_STABLE:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_bench_resume_reuses_cells_and_reproduces_reports(tmp_path, capsys):
    cfg = bench_config(tmp_path)
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    before = {n: (out / n).read_bytes() for n in BYTE_STABLE}

    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--resume"]) == 0
    err = capsys.readouterr().err
    assert "24 cells reused" in err
    assert "0 to compute" in err
    for name in BYTE_STABLE:
        assert (out / name).read_bytes() == before[name], name


def test_bench_resume_rejects_changed_configuration(tmp_path, capsys):
    cfg = bench_config(tmp_path)
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()

    changed = bench_config(tmp_path, seed=7)
    rc = main(["bench", "--config", str(changed), "--out", str(out),
               "--resume"])
    assert rc == 2
    assert "different configuration" in capsys.readouterr().err


def test_bench_resume_computes_only_missing_cells(tmp_path, capsys):
    cfg = bench_config(tmp_path)
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    before = {n: (out / n).read_bytes() for n in BYTE_STABLE}
    timings_before = (out / "timings.csv").read_text().splitlines()[1:]

    # drop the whole (blob1, D6) column and one cell of (blob2, D7)
    dropped = ("blob1,D6,", "blob2,D7,1,0,")
    header, *rows = (out / "cells.csv").read_text().splitlines()
    kept = [row for row in rows if not row.startswith(dropped)]
    assert len(kept) == len(rows) - 5
    (out / "cells.csv").write_text("\n".join([header] + kept) + "\n")

    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--resume", "--parallelism", "2"]) == 0
    err = capsys.readouterr().err
    assert "grid: 8 tasks, 5 to compute, 19 cells reused" in err
    assert "[8/8]" in err
    for name in BYTE_STABLE:
        assert (out / name).read_bytes() == before[name], name

    # one timing per cell; the reused cells keep their recorded timings
    timings = (out / "timings.csv").read_text().splitlines()[1:]
    cells = (out / "cells.csv").read_text().splitlines()[1:]
    assert len(timings) == len(cells) == 24
    assert [t.split(",")[:4] for t in timings] == \
        [c.split(",")[:4] for c in cells]
    reused = [t for t in timings_before if not t.startswith(dropped)]
    assert len(reused) == 19
    assert set(reused) <= set(timings)


def test_bench_resume_refuses_cells_without_manifest(tmp_path, capsys):
    cfg = bench_config(tmp_path)
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "manifest.txt").unlink()

    rc = main(["bench", "--config", str(cfg), "--out", str(out), "--resume"])
    assert rc == 2
    assert "manifest" in capsys.readouterr().err


def test_bench_without_resume_overwrites_cleanly(tmp_path):
    cfg = bench_config(tmp_path)
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "cells.csv").read_bytes()
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "cells.csv").read_bytes() == first


def test_bench_config_validation_exit_codes(tmp_path, capsys):
    bad_runs = bench_config(tmp_path, runs=0)
    assert main(["bench", "--config", str(bad_runs),
                 "--out", str(tmp_path / "o1")]) == 2

    bad_code = bench_config(tmp_path, distances="[D3, D99]")
    assert main(["bench", "--config", str(bad_code),
                 "--out", str(tmp_path / "o2")]) == 2

    unknown_key = bench_config(tmp_path, extra="surprise: 1\n")
    assert main(["bench", "--config", str(unknown_key),
                 "--out", str(tmp_path / "o3")]) == 2

    no_out = bench_config(tmp_path)
    assert main(["bench", "--config", str(no_out)]) == 2
    capsys.readouterr()


def test_bench_records_failing_dataset_and_continues(tmp_path, capsys):
    thin = tmp_path / "thin.csv"
    thin.write_text("0.0,A\n1.0,A\n2.0,A\n3.0,B\n")
    good = tmp_path / "good.csv"
    write_blob_dataset(good, seed=3)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "runs: 2\n"
        "distances: [D3, D6, D7]\n"
        "datasets:\n"
        "  - path: thin.csv\n"
        "    label_column: -1\n"
        "  - path: good.csv\n"
        "    label_column: -1\n")
    out = tmp_path / "r"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert ("[1/8] thin run 0 fold 0: FAILED 3 code(s), first D3: "
            "TooFewSamplesPerClass") in err
    assert "warning: 3 column(s) failed" in err
    assert "rank statistics skipped" in err
    failures = (out / "failures.csv").read_text().splitlines()
    assert len(failures) == 4
    assert all("TooFewSamplesPerClass" in line for line in failures[1:])
    # rank.csv stays header-only because no classifier is complete
    assert (out / "rank.csv").read_text().splitlines() == [
        "classifier,mean_rank,critical_difference"]


def test_bench_merges_external_baselines(tmp_path, capsys):
    cfg = bench_config(
        tmp_path, runs=2, extra="external_baselines: baselines.csv\n")
    baseline = tmp_path / "baselines.csv"
    rows = ["dataset,classifier,run,fold,accuracy"]
    for ds in ("blob1", "blob2"):
        for r in (0, 1):
            for f in (0, 1):
                rows.append(f"{ds},SVM,{r},{f},0.75")
    baseline.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == "dataset,D3,D6,D7,SVM"
    rank_rows = (out / "rank.csv").read_text().splitlines()
    assert any(line.startswith("SVM,") for line in rank_rows[1:])
    capsys.readouterr()


def test_bench_external_baseline_collision_exits_two(tmp_path, capsys):
    cfg = bench_config(
        tmp_path, runs=2, extra="external_baselines: baselines.csv\n")
    baseline = tmp_path / "baselines.csv"
    baseline.write_text(
        "dataset,classifier,run,fold,accuracy\nblob1,D3,0,0,0.5\n")
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "collides" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_axioms_single_measure_all_pass(capsys):
    assert main(["axioms", "--distance", "D3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("code")
    row = next(l for l in lines if l.startswith("D3"))
    assert "Euclidean" in row
    assert "FAIL" not in row


def test_axioms_reports_violations_with_counterexamples(capsys):
    assert main(["axioms", "--distance", "D4"]) == 0
    out = capsys.readouterr().out
    row = next(l for l in out.splitlines() if l.startswith("D4"))
    assert "FAIL" in row
    assert "identity:" in out


def test_axioms_all_measures_table(capsys):
    assert main(["axioms"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines()
            if l[:4].rstrip().startswith("D") and l[:4].rstrip()[1:].isdigit()]
    assert len(rows) == 47


def test_axioms_argument_validation(capsys):
    assert main(["axioms", "--samples", "1"]) == 2
    assert main(["axioms", "--distance", "D0"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def rank_cells_file(tmp_path, name="cells.csv", datasets=("d1", "d2")):
    rng = random.Random(5)
    rows = ["dataset,classifier,run,fold,accuracy"]
    for ds in datasets:
        for c in ("D3", "D6", "D7"):
            for r in range(6):
                for f in (0, 1):
                    rows.append(f"{ds},{c},{r},{f},{rng.random()!r}")
    p = tmp_path / name
    p.write_text("\n".join(rows) + "\n")
    return p


def test_rank_command_prints_ordering_and_writes_reports(tmp_path, capsys):
    cells = rank_cells_file(tmp_path)
    out = tmp_path / "stats"
    rc = main(["rank", "--cells", str(cells), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "friedman_statistic = " in printed
    assert "friedman_p_value = " in printed
    assert "blocks = 12" in printed
    assert "critical_difference = " in printed
    assert "1. D" in printed
    assert (out / "rank.csv").exists()
    assert (out / "wilcoxon.csv").exists()
    wl = (out / "wilcoxon.csv").read_text().splitlines()
    assert len(wl) == 1 + 2 * 3  # two datasets, three unordered pairs


def test_rank_merges_multiple_cells_files(tmp_path, capsys):
    a = rank_cells_file(tmp_path, "a.csv", datasets=("d1",))
    b = rank_cells_file(tmp_path, "b.csv", datasets=("d2",))
    rc = main(["rank", "--cells", str(a), "--cells", str(b)])
    assert rc == 0
    assert "blocks = 12" in capsys.readouterr().out


def test_rank_drops_incomplete_classifiers_with_warning(tmp_path, capsys):
    cells = rank_cells_file(tmp_path)
    extra = cells.read_text() + "d1,D9,0,0,0.5\n"
    cells.write_text(extra)
    rc = main(["rank", "--cells", str(cells)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "dropped incomplete classifiers: D9" in captured.err


def test_rank_needs_three_complete_classifiers(tmp_path, capsys):
    p = tmp_path / "two.csv"
    rng = random.Random(9)
    rows = ["dataset,classifier,run,fold,accuracy"]
    for c in ("D3", "D6"):
        for r in range(5):
            for f in (0, 1):
                rows.append(f"d,{c},{r},{f},{rng.random()!r}")
    p.write_text("\n".join(rows) + "\n")
    assert main(["rank", "--cells", str(p)]) == 2
    assert "need >= 3" in capsys.readouterr().err


def test_rank_missing_file_exits_one(tmp_path, capsys):
    assert main(["rank", "--cells", str(tmp_path / "nope.csv")]) == 1
    capsys.readouterr()
