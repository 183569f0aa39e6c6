"""End-to-end command-line behaviour, including exit codes and reports."""
from __future__ import annotations

import csv
import os
import platform
import random
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import opfdist
import opfdist.cli
from opfdist.cli import load_bench_config, main
from opfdist.errors import ConfigError

from conftest import cut_writes, resealed

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
EXAMPLE_CONFIG = PYPROJECT.parent / "configs" / "bench_example.yaml"

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


def run_fresh(script):
    """Run ``script`` in a new interpreter that imports this opfdist."""
    package_parent = str(Path(opfdist.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_parent] + ([inherited] if inherited else [])))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)


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
    assert_reports_version(run_fresh(wrapper))

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


def test_predict_compares_labels_as_text_without_class_names(tmp_path, capsys):
    # an archive without class names predicts its integer labels, while
    # the file numbers "1" and "0" by first appearance: 0 and 1
    model = opfdist.train(opfdist.graph_from_arrays(
        [[0.0], [0.1], [1.0], [1.1]], [0, 0, 1, 1], "D3"))
    path = tmp_path / "model.opf"
    opfdist.save_forest(model, opfdist.NormalizationSpec("none"), path)
    data = tmp_path / "q.csv"
    data.write_text("f1,label\n1.05,1\n0.05,0\n")
    preds = tmp_path / "p.csv"
    rc = main(["predict", "--model", str(path), "--data", str(data),
               "--label-column", "label", "--has-header", "--out", str(preds)])
    assert rc == 0
    assert "accuracy = 1.0000" in capsys.readouterr().out
    assert [line.split(",")[1] for line in
            preds.read_text().splitlines()[1:]] == ["1", "0"]


def test_predict_quotes_labels_with_commas_and_quotes(tmp_path, capsys):
    data = tmp_path / "quoted.csv"
    data.write_text('0.0,"a,b"\n1.0,"a,b"\n3.0,"say ""hi"""\n'
                    '4.0,"say ""hi"""\n')
    model = tmp_path / "model.opf"
    assert main(["train", "--data", str(data), "--label-column", "1",
                 "--distance", "D3", "--out", str(model)]) == 0
    preds = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--label-column", "1", "--out", str(preds)]) == 0
    assert "accuracy = 1.0000" in capsys.readouterr().out
    with open(preds, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "predicted_label", "cost", "conqueror"]
    assert [len(r) for r in rows] == [4] * 5
    assert [r[1] for r in rows[1:]] == ["a,b", "a,b", 'say "hi"', 'say "hi"']


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


def test_predict_svmlight_prints_accuracy_and_refuses_a_label_column(
        tmp_path, capsys):
    data = tmp_path / "line.svm"
    data.write_text("A 1:0.0\nA 1:1.0\nB 1:3.0\nB 1:4.0\n")
    queries = tmp_path / "queries.svm"
    queries.write_text("A 1:0.5\nB 1:1.9\nB 1:3.5\n")
    model = tmp_path / "model.opf"
    assert main(["train", "--data", str(data), "--format", "svmlight",
                 "--distance", "D3", "--out", str(model)]) == 0
    capsys.readouterr()
    preds = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model), "--data", str(queries),
                 "--format", "svmlight", "--out", str(preds)]) == 0
    out = capsys.readouterr().out
    # 1.9 lies nearer the A side: two of the three labels are right
    assert "predictions = 3" in out and "accuracy = 0.6667" in out
    assert [r.split(",")[1] for r in preds.read_text().splitlines()[1:]] \
        == ["A", "A", "B"]
    for cmd in (["predict", "--model", str(model), "--out", str(preds)],
                ["train", "--distance", "D3", "--out", str(model)]):
        assert main(cmd + ["--data", str(queries), "--format", "svmlight",
                           "--label-column", "0"]) == 2
        assert "--label-column applies to csv only" in capsys.readouterr().err


@pytest.mark.parametrize("normalization", ["none", "min_max_01"])
def test_predict_svmlight_pads_rows_to_the_model_width(
        tmp_path, capsys, normalization):
    # svmlight omits zeros: queries that never name index 3 are still
    # 3-dimensional, while a query that names index 4 is not
    data = tmp_path / "train.svm"
    data.write_text("A 1:0.0 3:0.5\nA 1:1.0\nB 1:3.0 2:1.0\nB 1:4.0 3:1.0\n")
    queries = tmp_path / "queries.svm"
    queries.write_text("A 1:0.5\nB 1:3.5 2:1.0\n")
    model = tmp_path / "model.opf"
    assert main(["train", "--data", str(data), "--format", "svmlight",
                 "--distance", "D3", "--normalization", normalization,
                 "--out", str(model)]) == 0
    preds = tmp_path / "p.csv"
    predict = ["predict", "--model", str(model), "--format", "svmlight",
               "--out", str(preds), "--data"]
    capsys.readouterr()
    assert main(predict + [str(queries)]) == 0
    assert "accuracy = 1.0000" in capsys.readouterr().out
    queries.write_text("A 1:0.5 4:1.0\n")
    assert main(predict + [str(queries)]) == 1
    assert "DimensionMismatch" in capsys.readouterr().err


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


@pytest.mark.parametrize("queries", ["0.0\n4.0\n", ""],
                         ids=["two-queries", "empty-input"])
def test_predict_cut_midway_leaves_previous_predictions_whole(
        tmp_path, capsys, monkeypatch, queries):
    data = tmp_path / "line.csv"
    write_line_dataset(data)
    model = tmp_path / "model.opf"
    main(["train", "--data", str(data), "--label-column", "1",
          "--distance", "D3", "--out", str(model)])
    preds = tmp_path / "p.csv"
    before = "row,predicted_label,cost,conqueror\n1,A,1.0,1\n"
    preds.write_text(before)
    (tmp_path / "q.csv").write_text(queries)
    capsys.readouterr()

    cut_writes(monkeypatch, "killed while writing predictions")
    rc = main(["predict", "--model", str(model), "--data",
               str(tmp_path / "q.csv"), "--out", str(preds)])
    monkeypatch.undo()
    assert rc == 1
    assert "killed while writing predictions" in capsys.readouterr().err
    assert preds.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "line.csv", "model.opf", "p.csv", "q.csv"]


def test_predict_rejects_resealed_out_of_range_node(tmp_path, capsys):
    data = tmp_path / "line.csv"
    write_line_dataset(data)
    model = tmp_path / "model.opf"
    main(["train", "--data", str(data), "--label-column", "1",
          "--distance", "D3", "--out", str(model)])
    capsys.readouterr()

    def first_ordered_node_99(payload):
        # ordered nodes (4 x uint32) are the payload's last field
        struct.pack_into("<I", payload, len(payload) - 16, 99)

    model.write_bytes(resealed(model.read_bytes(), first_ordered_node_99))
    rc = main(["predict", "--model", str(model), "--data", str(data),
               "--label-column", "1", "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CorruptArchive: ")
    assert "ordered nodes" in err and "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


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
    assert opfdist.distances.KERNELS in ("compiled", "numpy")
    assert f"kernels = {opfdist.distances.KERNELS}\n" in manifest
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


def test_bench_parallelism_flag_takes_auto_like_the_config_key(
        tmp_path, capsys):
    cfg = bench_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(out2),
                 "--parallelism", "auto"]) == 0
    for name in BYTE_STABLE:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert load_bench_config(cfg, parallelism_override="auto").parallelism \
        == opfdist.forest._cpus()
    capsys.readouterr()
    for bad, why in (("0", "parallelism must be >= 1"),
                     ("many", "parallelism must be an integer or 'auto'")):
        assert main(["bench", "--config", str(cfg), "--out", str(out2),
                     "--parallelism", bad]) == 2
        assert why in capsys.readouterr().err


def test_parallelism_auto_counts_the_cpus_this_process_may_run_on(
        tmp_path, monkeypatch):
    cfg = bench_config(tmp_path)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert load_bench_config(cfg, parallelism_override="auto").parallelism \
        == 1
    # where the platform has no affinity mask, the machine's count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert load_bench_config(cfg, parallelism_override="auto").parallelism \
        == 8


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


def test_bench_resume_refuses_invalid_cells_before_the_grid(
        tmp_path, capsys, monkeypatch):
    cfg = bench_config(tmp_path)
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    header, first, *rows = (out / "cells.csv").read_text().splitlines()
    assert first.startswith("blob1,D3,0,0,")
    (out / "cells.csv").write_text(
        "\n".join([header, "blob1,D3,0,0,nan", *rows]) + "\n")
    before = {n: (out / n).read_bytes() for n in REPORT_FILES}
    tasks = []
    monkeypatch.setattr(opfdist.evaluation, "_fold_task",
                        lambda args: tasks.append(args))

    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--resume"]) == 1
    err = capsys.readouterr().err
    assert "row blob1,D3,0,0,nan: fold must be 0 or 1" in err
    assert f"({out / 'cells.csv'}, row 2)" in err
    assert tasks == []
    assert {n: (out / n).read_bytes() for n in REPORT_FILES} == before


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


@pytest.mark.parametrize("distances", ["3", "{D3: x}"],
                         ids=["number", "mapping"])
def test_bench_distances_neither_text_nor_list_exit_two(tmp_path, capsys,
                                                        distances):
    cfg = bench_config(tmp_path, distances=distances)
    assert main(["bench", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "distances must be 'all', a code or a list of codes" in err


@pytest.mark.parametrize("key", ["seed", "runs", "parallelism"])
def test_bench_config_rejects_booleans_as_integers(tmp_path, capsys, key):
    # YAML loads true as a bool, and bool is an int subclass: it must not
    # pass as 1
    cfg = bench_config(tmp_path, extra="parallelism: 1\n")
    text = cfg.read_text()
    cfg.write_text(text.replace(f"{key}: ", f"{key}: true  # was ", 1))
    with pytest.raises(ConfigError, match=key):
        load_bench_config(cfg)
    assert main(["bench", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old,new,key", [
    ("path: blob1.csv", "path: 123", "path"),
    ("label_column: -1", "label_column: true", "label_column"),
    ("label_column: -1", 'label_column: -1\n    has_header: "false"',
     "has_header"),
    ("runs:", "output_dir: 5\nruns:", "output_dir"),
    ("runs:", "external_baselines: 5\nruns:", "external_baselines"),
])
def test_bench_config_rejects_values_of_the_wrong_type(
        tmp_path, capsys, old, new, key):
    cfg = bench_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(old, new, 1))
    with pytest.raises(ConfigError, match=key):
        load_bench_config(cfg)
    assert main(["bench", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must be" in err
    assert not (tmp_path / "o").exists()


def test_bench_config_refuses_a_label_column_on_svmlight(tmp_path, capsys):
    # svmlight rows carry their labels: the key would be ignored, yet enter
    # the config hash
    cfg = bench_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(
        "  - path: blob2.csv\n", "  - path: blob2.svm\n"
        "    format: svmlight\n", 1))
    with pytest.raises(ConfigError, match=r"datasets\[1\]: label_column "
                       "applies to csv only"):
        load_bench_config(cfg)
    assert main(["bench", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "datasets[1]: label_column" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # without the key the svmlight dataset is accepted
    cfg.write_text(cfg.read_text().replace(
        "    format: svmlight\n    label_column: -1\n",
        "    format: svmlight\n", 1))
    assert load_bench_config(cfg).datasets[1].format == "svmlight"


def test_bench_runs_without_importing_scipy(tmp_path):
    out = tmp_path / "r"
    result = run_fresh(
        "import sys\n"
        "from opfdist.cli import main\n"
        f"rc = main(['bench', '--config', {str(EXAMPLE_CONFIG)!r}, "
        f"'--out', {str(out)!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(rc)\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    # the run reached the rank statistics, whose p-value once needed scipy
    assert len((out / "rank.csv").read_text().splitlines()) == 4


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


def test_bench_single_block_skips_rank_statistics_and_writes_reports(
        tmp_path, capsys):
    write_blob_dataset(tmp_path / "blob.csv", seed=1)
    cfg = tmp_path / "one.yaml"
    cfg.write_text(
        "runs: 1\n"
        "distances: [D3, D6, D7]\n"
        "datasets:\n"
        "  - path: blob.csv\n"
        "    label_column: -1\n")
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert ("rank statistics skipped: need >= 2 blocks (datasets x runs), "
            "got 1") in err
    for name in REPORT_FILES:
        assert (out / name).exists(), name
    assert len((out / "cells.csv").read_text().splitlines()) == 1 + 3 * 2
    assert (out / "rank.csv").read_text().splitlines() == [
        "classifier,mean_rank,critical_difference"]
    assert "stats_classifiers = \n" in (out / "manifest.txt").read_text()


def test_bench_above_sixty_classifiers_skips_rank_statistics(tmp_path, capsys):
    cfg = bench_config(
        tmp_path, runs=2, extra="external_baselines: baselines.csv\n")
    # 3 computed codes and 58 baselines: 61 classifiers, beyond the
    # Nemenyi table
    rows = ["dataset,classifier,run,fold,accuracy"]
    for b in range(58):
        for ds in ("blob1", "blob2"):
            for r in (0, 1):
                for f in (0, 1):
                    rows.append(f"{ds},B{b},{r},{f},{(b + r + f) / 64!r}")
    (tmp_path / "baselines.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert ("rank statistics skipped: need <= 60 classifiers (Nemenyi "
            "table), got 61") in err
    for name in REPORT_FILES:
        assert (out / name).exists(), name
    assert len((out / "summary.csv").read_text().splitlines()[0].split(",")) \
        == 1 + 61
    assert len((out / "cells.csv").read_text().splitlines()) == 1 + 61 * 8
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


@pytest.mark.parametrize("rows,message", [
    # 1-based folds: fold 2 lies outside the grid
    (["blob1,SVM,0,1,0.9", "blob1,SVM,0,2,0.9"],
     "row blob1,SVM,0,2,0.9: fold must be 0 or 1"),
    # every cell of blob1, none of blob2
    ([f"blob1,SVM,{r},{f},0.9" for r in (0, 1) for f in (0, 1)],
     "'SVM' has no cell for dataset='blob2' run=0 fold=0"),
    (["blob1,SVM,0,0,nan"], "row blob1,SVM,0,0,nan: fold must be 0 or 1"),
    # one cell given twice with different accuracies
    (["blob1,SVM,0,0,0.5", "blob1,SVM,0,0,0.9"],
     "row blob1,SVM,0,0,0.9: conflicts with an earlier row"),
])
def test_bench_bad_external_baselines_exit_two_before_the_grid(
        tmp_path, capsys, monkeypatch, rows, message):
    cfg = bench_config(
        tmp_path, runs=2, extra="external_baselines: baselines.csv\n")
    baseline = tmp_path / "baselines.csv"
    baseline.write_text(
        "\n".join(["dataset,classifier,run,fold,accuracy", *rows]) + "\n")
    tasks = []
    real_task = opfdist.evaluation._fold_task

    def counting_task(args):
        tasks.append(args[2:4])
        return real_task(args)

    monkeypatch.setattr(opfdist.evaluation, "_fold_task", counting_task)
    out = tmp_path / "r"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{baseline}: " in err
    assert message in err
    assert tasks == []
    assert not out.exists()


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
    for tolerance in ("0", "-1", "nan"):
        assert main(["axioms", "--tolerance", tolerance]) == 2, tolerance
        captured = capsys.readouterr()
        assert captured.err == "error: --tolerance must be > 0\n"
        assert captured.out == ""


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


def test_rank_needs_two_blocks(tmp_path, capsys):
    p = tmp_path / "one_run.csv"
    rows = ["dataset,classifier,run,fold,accuracy"]
    for c in ("D3", "D6", "D7"):
        for f in (0, 1):
            rows.append(f"d,{c},0,{f},0.5")
    p.write_text("\n".join(rows) + "\n")
    assert main(["rank", "--cells", str(p)]) == 2
    assert capsys.readouterr().err == (
        "error: rank statistics need >= 2 blocks (datasets x runs), got 1\n")


def test_rank_needs_at_most_sixty_classifiers(tmp_path, capsys):
    p = tmp_path / "wide.csv"
    rng = random.Random(11)
    rows = ["dataset,classifier,run,fold,accuracy"]
    for c in range(61):
        for r in range(2):
            for f in (0, 1):
                rows.append(f"d,C{c},{r},{f},{rng.random()!r}")
    p.write_text("\n".join(rows) + "\n")
    assert main(["rank", "--cells", str(p)]) == 2
    assert capsys.readouterr().err == (
        "error: rank statistics need <= 60 classifiers (Nemenyi table), "
        "got 61\n")


@pytest.mark.parametrize("bad", ["d1,D6,2,0,nan", "d1,D6,2,7,0.5",
                                 "d1,D6,-1,0,0.5", "d1,D6,2,0,-2.0"])
def test_rank_refuses_invalid_cell_rows(tmp_path, capsys, bad):
    cells = rank_cells_file(tmp_path)
    lines = cells.read_text().splitlines()
    cells.write_text("\n".join(lines[:10] + [bad] + lines[10:]) + "\n")
    assert main(["rank", "--cells", str(cells)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: ParseError: row {bad}: fold must be 0 or 1, run >= 0 and "
        f"accuracy in [0, 1] ({cells}, row 11)\n")
    assert captured.out == ""


def test_rank_alpha_outside_unit_interval_is_usage_error(tmp_path, capsys):
    cells = rank_cells_file(tmp_path)
    for alpha in ("1.5", "0", "1", "-0.05", "nan"):
        assert main(["rank", "--cells", str(cells), "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --alpha must be in (0, 1)\n"
        assert captured.out == ""
    assert main(["rank", "--cells", str(cells), "--alpha", "0.1"]) == 0
    capsys.readouterr()


def test_rank_missing_file_exits_one(tmp_path, capsys):
    assert main(["rank", "--cells", str(tmp_path / "nope.csv")]) == 1
    capsys.readouterr()


# --- the CI workflow's commands ----------------------------------------------

REPO = PYPROJECT.parent
WORKFLOW = REPO / ".github" / "workflows" / "tests.yml"
# a token naming a file or directory of the repository: relative, with a
# slash, and no variable, option, URL or action reference in it
_REPO_PATH = re.compile(r"[A-Za-z_][\w.-]*(/[\w.-]+)+/?")


def _workflow_lines():
    """Each line that the workflow's steps run, with the lines of every
    repository script they run (``bash <script>``), as (where, line)."""
    workflow = yaml.safe_load(WORKFLOW.read_text())
    for job_name, job in workflow["jobs"].items():
        for step in job["steps"]:
            for line in step.get("run", "").splitlines():
                yield f"{job_name}: {step.get('name')}", line
                words = shlex.split(line, comments=True)
                if words[:1] == ["bash"] and _REPO_PATH.fullmatch(words[1]):
                    for inner in (REPO / words[1]).read_text().splitlines():
                        yield words[1], inner


def test_ci_workflow_commands_parse_and_name_existing_paths():
    cli_lines, paths = 0, set()
    for where, line in _workflow_lines():
        words = shlex.split(line, comments=True)
        paths |= {w for w in words if _REPO_PATH.fullmatch(w)}
        if "opfdist.cli" in words:
            cli_lines += 1
            args = words[words.index("opfdist.cli") + 1:]
            try:
                opfdist.cli.build_parser().parse_args(args)
            except SystemExit:
                pytest.fail(f"{where}: the parser refuses {line.strip()}")
    # two jobs run the shipped example's seven CLI commands, from one script
    assert cli_lines == 2 * 7, cli_lines
    assert {"scripts/smoke.sh", "configs/demo.csv", "perfbench/run.py",
            "tests/test_kernels.py"} <= paths
    missing = sorted(p for p in paths if not (REPO / p).exists())
    assert not missing, missing
