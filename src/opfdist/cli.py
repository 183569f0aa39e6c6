"""Command-line surface: train, predict, bench, axioms, rank.

Exit codes are a stable contract: 0 success, 1 data/domain error,
2 usage or configuration error.  Progress and warnings go to standard
error; machine-readable results go to files; short human summaries go to
standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__, distances, evaluation, forest
from . import dataio
from .errors import ConfigError, DataFormatError, EmptyFile, OpfdistError


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _parse_codes(spec) -> list[str]:
    """A distance list from config/flags: 'all', a code, or a code list."""
    if isinstance(spec, str):
        if spec.strip().lower() == "all":
            return [e.code for e in distances.registry()]
        spec = [s for s in spec.replace(",", " ").split() if s]
    elif not isinstance(spec, list):
        raise ConfigError(f"distances must be 'all', a code or a list of "
                          f"codes, not {spec!r}")
    codes = []
    for item in spec:
        try:
            codes.append(distances.resolve(str(item)).code)
        except KeyError:
            raise ConfigError(f"unknown distance code {item!r}") from None
    if not codes:
        raise ConfigError("distance list is empty")
    if len(set(codes)) != len(codes):
        raise ConfigError("duplicate distance codes")
    return codes


def _int_or_text(value):
    # a label column or --parallelism: an index or count, else a name
    if value is None:
        return None
    if isinstance(value, int):
        return value
    text = str(value)
    stripped = text.lstrip("+-")
    if stripped.isdigit():
        return int(text)
    return text


def _load_dataset(path: Path, fmt: str, label_column, has_header: bool,
                  name: str | None = None) -> dataio.Dataset:
    if fmt == "csv":
        return dataio.load_csv(path, label_column, has_header, name=name)
    if fmt == "svmlight":
        return dataio.load_svmlight(path, name=name)
    raise ConfigError(f"unknown dataset format {fmt!r}")


def _load_data_flag(args) -> dataio.Dataset:
    """The dataset named by ``--data``/``--format``/``--label-column``/
    ``--has-header``; svmlight rows carry their own labels, so a label
    column is refused there."""
    if args.format == "svmlight" and args.label_column is not None:
        raise ConfigError("--label-column applies to csv only: svmlight "
                          "rows carry their own labels")
    return _load_dataset(Path(args.data), args.format,
                         _int_or_text(args.label_column), args.has_header)


# --- train ---------------------------------------------------------------


def cmd_train(args) -> int:
    code = _parse_codes([args.distance])[0]
    ds = _load_data_flag(args)
    spec = dataio.fit_normalization(ds.features, args.normalization)
    X = dataio.normalize(spec, ds.features)
    t0 = time.perf_counter()
    model = forest.train(forest.graph_from_arrays(X, ds.labels, code))
    elapsed = time.perf_counter() - t0
    dataio.save_forest(model, spec, args.out, class_names=ds.class_names)
    print(f"samples = {len(model.features)}")
    print(f"prototypes = {len(model.prototypes)}")
    print(f"distance = {code}")
    print(f"normalization = {spec.mode}")
    print(f"train_seconds = {elapsed:.6f}")
    print(f"model = {args.out}")
    return 0


# --- predict ---------------------------------------------------------------


def cmd_predict(args) -> int:
    arc = dataio.load_archive(args.model)
    try:
        ds = _load_data_flag(args)
    except EmptyFile:
        ds = None
    width = arc.forest.n_features
    X = ds.features if ds is not None else np.empty((0, width))
    if args.format == "svmlight":
        # svmlight omits zeros, so a file densifies only to its own highest
        # index, which may lie below the model's width
        X = np.pad(X, ((0, 0), (0, max(0, width - X.shape[1]))))
    preds = forest.classify_batch(arc.forest,
                                  dataio.normalize(arc.normalization, X))

    def label_text(idx: int) -> str:
        if arc.class_names is not None and 0 <= idx < len(arc.class_names):
            return arc.class_names[idx]
        return str(idx)

    dataio._write_rows(
        Path(args.out), ["row", "predicted_label", "cost", "conqueror"],
        [(i, label_text(p.label), repr(p.cost), p.conqueror)
         for i, p in enumerate(preds, start=1)])
    print(f"predictions = {len(preds)}")

    if ds is not None and (args.format == "svmlight"
                           or args.label_column is not None):
        # labels are compared as text: the file numbers its labels by
        # first appearance, the model by its own training file
        acc = evaluation.accuracy([label_text(p.label) for p in preds],
                                  [ds.class_names[i] for i in ds.labels])
        print(f"accuracy = {acc:.4f}")
    return 0


# --- bench ---------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    path: Path
    format: str
    label_column: object
    has_header: bool


@dataclass(frozen=True)
class BenchConfig:
    seed: int
    runs: int
    normalization: str
    alpha: float
    distance_codes: tuple[str, ...]
    datasets: tuple[DatasetSpec, ...]
    output_dir: Path | None
    parallelism: int
    external_baselines: Path | None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_int(v) -> bool:
    # YAML's true/false load as bool, which is an int subclass
    return isinstance(v, int) and not isinstance(v, bool)


def load_bench_config(path: Path, *, out_override=None,
                      parallelism_override=None) -> BenchConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    _require(isinstance(raw, dict), f"{path}: top level must be a mapping")

    known = {"seed", "runs", "normalization", "alpha", "distances", "datasets",
             "output_dir", "parallelism", "external_baselines"}
    unknown = set(raw) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    seed = raw.get("seed", 0)
    _require(_is_int(seed) and seed >= 0, "seed must be an integer >= 0")
    runs = raw.get("runs", 25)
    _require(_is_int(runs) and runs >= 1, "runs must be an integer >= 1")
    normalization = raw.get("normalization", "none")
    _require(normalization in dataio.NORMALIZATION_MODES,
             f"normalization must be one of {dataio.NORMALIZATION_MODES}")
    alpha = raw.get("alpha", 0.05)
    _require(isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0,
             "alpha must be in (0, 1)")
    codes = _parse_codes(raw.get("distances"))

    ds_raw = raw.get("datasets")
    _require(isinstance(ds_raw, list) and ds_raw, "datasets must be a non-empty list")
    base = path.parent
    specs = []
    for i, item in enumerate(ds_raw):
        _require(isinstance(item, dict), f"datasets[{i}] must be a mapping")
        _require(isinstance(item.get("path"), str),
                 f"datasets[{i}]: path must be a string")
        p = Path(item["path"])
        if not p.is_absolute():
            p = (base / p).resolve()
        fmt = item.get("format", "csv")
        _require(fmt in ("csv", "svmlight"),
                 f"datasets[{i}]: format must be csv or svmlight")
        name = item.get("name") or p.stem
        label_column = item.get("label_column")
        _require(label_column is None or _is_int(label_column)
                 or isinstance(label_column, str),
                 f"datasets[{i}]: label_column must be an integer or a "
                 f"column name")
        has_header = item.get("has_header", False)
        _require(isinstance(has_header, bool),
                 f"datasets[{i}]: has_header must be true or false")
        specs.append(DatasetSpec(
            name=str(name),
            path=p,
            format=fmt,
            label_column=_int_or_text(label_column),
            has_header=has_header,
        ))
        if fmt == "csv":
            _require(specs[-1].label_column is not None,
                     f"datasets[{i}]: csv datasets need a label_column")
        else:
            # it would be ignored, yet enter the config hash
            _require(label_column is None,
                     f"datasets[{i}]: label_column applies to csv only: "
                     f"svmlight rows carry their own labels")
    names = [s.name for s in specs]
    _require(len(set(names)) == len(names), "dataset names must be unique")
    paths = [str(s.path) for s in specs]
    _require(len(set(paths)) == len(paths), "dataset paths must be distinct")

    for key in ("output_dir", "external_baselines"):
        _require(raw.get(key) is None or isinstance(raw[key], str),
                 f"{key} must be a string")
    out_dir = out_override or raw.get("output_dir")
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        if not Path(out_dir).is_absolute() and out_override is None:
            out_path = (base / out_dir).resolve()

    par = parallelism_override if parallelism_override is not None else raw.get(
        "parallelism", 1)
    if isinstance(par, str):
        _require(par == "auto", "parallelism must be an integer or 'auto'")
        par = forest._cpus()
    _require(_is_int(par) and par >= 1, "parallelism must be >= 1")

    ext = raw.get("external_baselines")
    ext_path = None
    if ext is not None:
        ext_path = Path(ext)
        if not ext_path.is_absolute():
            ext_path = (base / ext_path).resolve()

    return BenchConfig(seed, runs, normalization, float(alpha), tuple(codes),
                       tuple(specs), out_path, par, ext_path)


def _config_hash(cfg: BenchConfig) -> str:
    """Content hash of everything that determines the grid's numbers.

    Dataset files are hashed by content, not path, so moving a file does
    not invalidate a resume but editing it does.  Output directory and
    parallelism are excluded: they cannot change any reported number.
    """
    payload = {
        "seed": cfg.seed,
        "runs": cfg.runs,
        "normalization": cfg.normalization,
        "alpha": cfg.alpha,
        "distances": list(cfg.distance_codes),
        "datasets": [
            {
                "name": s.name,
                "format": s.format,
                "label_column": s.label_column,
                "has_header": s.has_header,
                "sha256": hashlib.sha256(s.path.read_bytes()).hexdigest(),
            }
            for s in cfg.datasets
        ],
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _read_baselines(cfg: BenchConfig) -> dict[tuple[str, str, int, int], float]:
    """The external baseline cells that lie in the configured grid.

    Rows for other datasets or for runs >= ``runs`` are skipped.  These
    are ConfigErrors naming the file, raised before any fold task: a row
    that ``dataio.read_cells_csv`` or ``BenchmarkMatrix.from_rows``
    refuses, a classifier named like a computed code, and a listed
    classifier missing a cell of the grid.
    """
    path = cfg.external_baselines
    if path is None:
        return {}
    try:
        given = evaluation.BenchmarkMatrix.from_rows(dataio.read_cells_csv(path))
    except (DataFormatError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for c in given.classifiers:
        if c in cfg.distance_codes:
            raise ConfigError(
                f"{path}: external baseline {c!r} collides with a computed "
                f"column")
    wanted = evaluation.BenchmarkMatrix(
        tuple(s.name for s in cfg.datasets), given.classifiers, cfg.runs)
    keys = set(wanted.grid())
    cells = {key: acc for key, acc in given.cells.items() if key in keys}
    listed = dict.fromkeys(key[1] for key in cells)
    for ds, c, r, f in wanted.grid(classifiers=listed):
        if (ds, c, r, f) not in cells:
            raise ConfigError(
                f"{path}: external baseline {c!r} has no cell for "
                f"dataset={ds!r} run={r} fold={f}")
    return cells


def cmd_bench(args) -> int:
    cfg = load_bench_config(Path(args.config), out_override=args.out,
                            parallelism_override=args.parallelism)
    if cfg.output_dir is None:
        raise ConfigError("no output directory (config output_dir or --out)")
    out_dir = cfg.output_dir
    cfg_hash = _config_hash(cfg)
    baselines = _read_baselines(cfg)

    datasets = [
        _load_dataset(s.path, s.format, s.label_column, s.has_header, name=s.name)
        for s in cfg.datasets
    ]

    # resume: adopt cells already on disk if they belong to this exact config
    seeded = evaluation.BenchmarkMatrix(
        tuple(s.name for s in cfg.datasets), cfg.distance_codes, cfg.runs)
    manifest_path = out_dir / "manifest.txt"
    cells_path = out_dir / "cells.csv"
    timings_path = out_dir / "timings.csv"
    old_timings = {}
    if args.resume and cells_path.exists():
        if not manifest_path.exists():
            raise ConfigError(
                f"{out_dir} holds cells.csv but no manifest.txt; cannot check "
                f"that its cells belong to this configuration")
        recorded = None
        for line in manifest_path.read_text(encoding="utf-8").splitlines():
            if line.startswith("config_hash = "):
                recorded = line.split(" = ", 1)[1]
        if recorded != cfg_hash:
            raise ConfigError(
                f"{out_dir} holds results for a different configuration "
                f"(manifest config_hash {recorded} != {cfg_hash})")
        keys = set(seeded.grid())
        on_disk = evaluation.BenchmarkMatrix.from_rows(
            dataio.read_cells_csv(cells_path)).cells
        seeded.cells.update(
            (key, acc) for key, acc in on_disk.items() if key in keys)
        if timings_path.exists():
            old_timings = dataio.read_timings_csv(timings_path)

    # one task per (dataset, run, test fold); fully reused folds count as done
    total = len(cfg.datasets) * cfg.runs * 2
    done_count = total - len({(ds, r, f) for ds, c, r, f in seeded.grid()
                              if (ds, c, r, f) not in seeded.cells})
    print(f"grid: {total} tasks, {total - done_count} to compute, "
          f"{len(seeded.cells)} cells reused", file=sys.stderr)

    def progress(name, run, fold, errors):
        nonlocal done_count
        done_count += 1
        first = next(iter(errors), None)
        status = "ok" if first is None else (
            f"FAILED {len(errors)} code(s), first {first}: {errors[first]}")
        print(f"[{done_count}/{total}] {name} run {run} fold {fold}: {status}",
              file=sys.stderr)

    matrix = evaluation.run_benchmark(
        datasets, cfg.distance_codes, cfg.seed, cfg.runs,
        normalization=cfg.normalization, parallelism=cfg.parallelism,
        progress=progress, done=seeded.cells)
    # an adopted cell keeps the timing recorded when it was computed
    for key in seeded.cells:
        if key in old_timings:
            matrix.timings.setdefault(key, old_timings[key])

    for key, acc in baselines.items():
        if key[1] not in matrix.classifiers:
            matrix.classifiers = matrix.classifiers + (key[1],)
        matrix.cells[key] = acc

    summary = evaluation.summarize(matrix)
    ranked, stats, blocked = evaluation.rank_complete(matrix, cfg.alpha)
    if blocked is not None:
        print(f"rank statistics skipped: {blocked}", file=sys.stderr)

    manifest = {
        "config_hash": cfg_hash,
        "package": f"opfdist {__version__}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "exp_log": distances.EXP_LOG,
        "kernels": distances.KERNELS,
        "archive_format": str(dataio.ARCHIVE_VERSION),
        "seed": str(cfg.seed),
        "runs": str(cfg.runs),
        "normalization": cfg.normalization,
        "alpha": repr(cfg.alpha),
        "distances": " ".join(cfg.distance_codes),
        "datasets": " ".join(s.name for s in cfg.datasets),
        "cells_total": str(len(matrix.cells)),
        "columns_failed": str(len(matrix.errors)),
        "stats_classifiers": " ".join(ranked) if stats is not None else "",
    }
    for d in datasets:
        manifest[f"dataset_{d.name}"] = (
            f"rows={len(d.labels)} features={d.n_features} "
            f"classes={d.n_classes}")

    dataio.write_reports(summary, stats, out_dir, matrix=matrix,
                         manifest=manifest)
    if matrix.errors:
        print(f"warning: {len(matrix.errors)} column(s) failed; see "
              f"failures.csv", file=sys.stderr)
    print(f"reports written to {out_dir}")
    return 0


# --- axioms ---------------------------------------------------------------


def cmd_axioms(args) -> int:
    codes = _parse_codes([args.distance] if args.distance != "all" else "all")
    if args.samples < 2:
        raise ConfigError("--samples must be >= 2")
    if args.dim < 1:
        raise ConfigError("--dim must be >= 1")
    if not args.tolerance > 0.0:
        raise ConfigError("--tolerance must be > 0")
    rng = random.Random(args.seed)
    vectors = [tuple(rng.uniform(0.0, 1.0) for _ in range(args.dim))
               for _ in range(args.samples)]
    # duplicate the first vector so the identity axiom is exercised on a
    # genuinely repeated sample as well
    vectors.append(vectors[0])

    def mark(check):
        return "pass" if check.passed else "FAIL"

    print(f"{'code':<5} {'name':<30} {'non-neg':<8} {'identity':<9} "
          f"{'symmetry':<9} {'triangle':<9}")
    for code in codes:
        rep = distances.check_axioms(code, vectors, args.tolerance)
        entry = distances.resolve(code)
        print(f"{entry.code:<5} {entry.name:<30} {mark(rep.non_negativity):<8} "
              f"{mark(rep.identity):<9} {mark(rep.symmetry):<9} "
              f"{mark(rep.triangle_inequality):<9}")
        for axiom, check in (("non-negativity", rep.non_negativity),
                             ("identity", rep.identity),
                             ("symmetry", rep.symmetry),
                             ("triangle", rep.triangle_inequality)):
            if not check.passed:
                print(f"      {axiom}: {check.counterexample}")
    return 0


# --- rank ---------------------------------------------------------------


def cmd_rank(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError("--alpha must be in (0, 1)")
    rows = []
    for path in args.cells:
        rows.extend(dataio.read_cells_csv(path))
    if not rows:
        raise ConfigError("no cells found in the given files")
    matrix = evaluation.BenchmarkMatrix.from_rows(rows)
    ranked, stats, blocked = evaluation.rank_complete(matrix, args.alpha)
    dropped = [c for c in matrix.classifiers if c not in ranked]
    if dropped:
        print(f"warning: dropped incomplete classifiers: {' '.join(dropped)}",
              file=sys.stderr)
    if blocked is not None:
        raise ConfigError(f"rank statistics {blocked}")

    if args.out is not None:
        dataio.write_stat_files(stats, Path(args.out))
        print(f"reports written to {args.out}")
    fr = stats.friedman
    print(f"friedman_statistic = {fr.statistic!r}")
    print(f"friedman_p_value = {fr.p_value!r}")
    print(f"blocks = {fr.n_blocks}")
    print(f"critical_difference = {stats.nemenyi.critical_difference!r}")
    for i, (c, r) in enumerate(
            sorted(fr.mean_ranks.items(), key=lambda kv: -kv[1]), start=1):
        print(f"{i}. {c} mean_rank={r!r}")
    return 0


# --- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opfdist",
        description="Optimum-path forest classification over a 47-measure "
                    "distance catalogue")
    parser.add_argument(
        "--version", action="version",
        version=f"opfdist {__version__} (archive format "
                f"{dataio.ARCHIVE_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a forest on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("csv", "svmlight"), default="csv")
    p.add_argument("--label-column", default=None,
                   help="label column name or 0-based index (csv)")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--distance", required=True, help="distance code, e.g. D3")
    p.add_argument("--normalization", choices=dataio.NORMALIZATION_MODES,
                   default="none")
    p.add_argument("--out", required=True, help="model archive path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify a dataset file with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("csv", "svmlight"), default="csv")
    p.add_argument("--label-column", default=None,
                   help="csv only; when given, accuracy is printed (it "
                        "always is for svmlight)")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="run the benchmark grid from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override config output_dir")
    p.add_argument("--parallelism", type=_int_or_text, default=None,
                   help="worker processes, or 'auto' for one per CPU "
                        "this process may run on; each worker splits a "
                        "large test over max(1, CPUs // workers) "
                        "threads; overrides the config's parallelism")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed cells found in the output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("axioms", help="empirical metric-axiom table")
    p.add_argument("--distance", default="all", help="code or 'all'")
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("rank", help="rank statistics from existing cells.csv")
    p.add_argument("--cells", action="append", required=True,
                   help="cells.csv path (repeatable)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", default=None, help="directory for rank/wilcoxon CSVs")
    p.set_defaults(func=cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        _err(str(exc))
        return 2
    except (OpfdistError, OSError, ValueError) as exc:
        _err(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
