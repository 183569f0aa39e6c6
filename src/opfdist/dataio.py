"""Dataset ingestion, normalization, model persistence, report emission.

Dataset files are either comma-separated text (optional header, one label
column by name or index) or svmlight/libsvm sparse lines
(``<label> <index>:<value> ...`` with 1-based strictly ascending indices).
Label tokens are mapped to contiguous 0-based integers in first-appearance
order; the original strings are kept in ``Dataset.class_names``.

Model archive byte layout (all little-endian), format version 1:

    offset 0   magic ``OPFA`` (4 bytes)
    offset 4   u32 format version
    offset 8   u64 payload length
    offset 16  sha256 of payload (32 bytes)
    offset 48  payload

payload::

    u32 n_samples | u32 n_features | u32 n_class_names
    per class name: u16 byte length + utf-8 bytes
    u8 distance-code length + ascii code
    u8 normalization mode (0 none, 1 min_max_01)
    if mode 1: f64[n_features] minima, f64[n_features] maxima
    f64[n_samples * n_features] features, row-major
    i64[n_samples] labels
    i64[n_samples] sample ids
    u32 prototype count + u32[count] prototype indices, ascending
    f64[n_samples] costs
    i64[n_samples] predecessors (-1 encodes none)
    i64[n_samples] root labels
    u32[n_samples] ordered node indices

Floats are raw binary64, so a load reproduces a save bit for bit.  Report
writers use fixed column orders, fixed "\\n" line endings, and repr float
formatting, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import distances, forest
from .errors import (
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

# --- dataset ------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Named, validated sample collection with a contiguous label range."""

    name: str
    samples: tuple[forest.Sample, ...]
    n_features: int
    n_classes: int
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.samples:
            raise EmptyInput(f"dataset {self.name!r} has no samples")
        if self.n_features < 1:
            raise DimensionMismatch("datasets need at least one feature")
        seen = set()
        for s in self.samples:
            if len(s.features) != self.n_features:
                raise DimensionMismatch(
                    f"sample id {s.id} has {len(s.features)} features, "
                    f"expected {self.n_features}")
            for v in s.features:
                if not math.isfinite(v):
                    raise ParseError(
                        f"non-finite feature value {v!r} in sample id {s.id}")
            if not 0 <= s.label < self.n_classes:
                raise ParseError(
                    f"label {s.label} of sample id {s.id} outside "
                    f"0..{self.n_classes - 1}")
            seen.add(s.label)
        if len(seen) != self.n_classes:
            raise ParseError(
                f"dataset {self.name!r} declares {self.n_classes} classes but "
                f"only {len(seen)} occur")
        if self.class_names is not None and len(self.class_names) != self.n_classes:
            raise ParseError("class_names length disagrees with n_classes")


def _map_labels(tokens: Sequence[str]) -> tuple[list[int], tuple[str, ...]]:
    mapping: dict[str, int] = {}
    out = []
    for t in tokens:
        if t not in mapping:
            mapping[t] = len(mapping)
        out.append(mapping[t])
    return out, tuple(mapping)


def _parse_feature(token: str, path, row: int, col: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise NonNumericFeature(
            f"feature value {token!r} is not a number",
            path=path, row=row, column=col) from None
    if not math.isfinite(v):
        raise ParseError(
            f"non-finite feature value {token!r}", path=path, row=row, column=col)
    return v


def load_csv(
    path: str | Path,
    label_column: str | int | None,
    has_header: bool = False,
    *,
    name: str | None = None,
) -> Dataset:
    """Read a rectangular delimited file into a Dataset.

    ``label_column`` selects the label field by header name (requires
    ``has_header``) or by 0-based index (negative counts from the end).
    ``label_column=None`` reads an unlabeled file: every column is a
    feature and all labels are 0 (used for prediction inputs).
    Rows and columns in error messages are 1-based file positions.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh))
                if len(row) > 0 and any(field.strip() for field in row)]
    header: list[str] | None = None
    if has_header:
        if not rows:
            raise EmptyFile("no rows at all", path=path)
        header = [f.strip() for f in rows[0][1]]
        rows = rows[1:]
    if not rows:
        raise EmptyFile("no data rows", path=path)

    width = len(rows[0][1])
    for line_no, row in rows:
        if len(row) != width:
            raise RaggedRows(
                f"expected {width} fields, found {len(row)}",
                path=path, row=line_no)

    if label_column is None:
        label_idx = None
    elif isinstance(label_column, str):
        if header is None:
            raise ParseError(
                f"label column {label_column!r} given by name but the file "
                f"has no header", path=path)
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ParseError(
                f"label column {label_column!r} not in header {header}",
                path=path) from None
    else:
        label_idx = int(label_column)
        if label_idx < 0:
            label_idx += width
        if not 0 <= label_idx < width:
            raise ParseError(
                f"label column index {label_column} outside row width {width}",
                path=path)

    feature_cols = [c for c in range(width) if c != label_idx]
    if not feature_cols:
        raise ParseError("no feature columns besides the label", path=path)

    feats = []
    label_tokens = []
    for line_no, row in rows:
        feats.append(tuple(
            _parse_feature(row[c].strip(), path, line_no, c + 1)
            for c in feature_cols))
        if label_idx is not None:
            label_tokens.append(row[label_idx].strip())

    if label_idx is None:
        labels = [0] * len(feats)
        class_names: tuple[str, ...] | None = None
        n_classes = 1
    else:
        labels, class_names = _map_labels(label_tokens)
        n_classes = len(class_names)

    samples = tuple(
        forest.Sample(f, lab, i) for i, (f, lab) in enumerate(zip(feats, labels)))
    return Dataset(name or path.stem, samples, len(feature_cols), n_classes,
                   class_names)


def load_svmlight(path: str | Path, *, name: str | None = None) -> Dataset:
    """Read sparse ``label index:value`` lines; densify to the max index.

    Indices are 1-based and must be strictly ascending within a line.
    Text after ``#`` is a comment.  Blank lines are skipped.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    entries: list[tuple[str, list[tuple[int, float]]]] = []
    max_index = 0
    for line_no, line in enumerate(raw_lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        label = tokens[0]
        pairs = []
        prev = 0
        for tok in tokens[1:]:
            idx_txt, sep, val_txt = tok.partition(":")
            if not sep:
                raise ParseError(
                    f"expected index:value, found {tok!r}", path=path, row=line_no)
            try:
                idx = int(idx_txt)
            except ValueError:
                raise ParseError(
                    f"feature index {idx_txt!r} is not an integer",
                    path=path, row=line_no) from None
            if idx < 1:
                raise ParseError(
                    f"feature index {idx} must be >= 1", path=path, row=line_no)
            if idx <= prev:
                raise NonAscendingIndices(
                    f"index {idx} after {prev}", path=path, row=line_no)
            prev = idx
            v = _parse_feature(val_txt, path, line_no, idx)
            pairs.append((idx, v))
            max_index = max(max_index, idx)
        entries.append((label, pairs))
    if not entries:
        raise EmptyFile("no data lines", path=path)
    if max_index == 0:
        raise ParseError("no features anywhere in the file", path=path)

    labels, class_names = _map_labels([lab for lab, _ in entries])
    samples = []
    for i, (_, pairs) in enumerate(entries):
        dense = [0.0] * max_index
        for idx, v in pairs:
            dense[idx - 1] = v
        samples.append(forest.Sample(tuple(dense), labels[i], i))
    return Dataset(name or path.stem, tuple(samples), max_index,
                   len(class_names), class_names)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Canonical dataset writer: header f1..fN,label; repr floats; label
    text from class_names.  Reloading reproduces the dataset exactly."""
    path = Path(path)
    names = dataset.class_names or tuple(
        str(c) for c in range(dataset.n_classes))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"f{j + 1}" for j in range(dataset.n_features)] + ["label"])
        for s in dataset.samples:
            w.writerow([repr(v) for v in s.features] + [names[s.label]])


# --- normalization --------------------------------------------------------

NORMALIZATION_MODES = ("none", "min_max_01")


@dataclass(frozen=True)
class NormalizationSpec:
    """Feature scaling fitted on a training fold only."""

    mode: str
    feature_min: tuple[float, ...] | None = None
    feature_max: tuple[float, ...] | None = None


def fit_normalization(
    train: Sequence[forest.Sample], mode: str
) -> NormalizationSpec:
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if len(train) == 0:
        raise EmptyInput("cannot fit normalization on an empty training fold")
    if mode == "none":
        return NormalizationSpec("none")
    dim = len(train[0].features)
    lo = list(train[0].features)
    hi = list(train[0].features)
    for s in train[1:]:
        if len(s.features) != dim:
            raise DimensionMismatch("training samples disagree on dimension")
        for j, v in enumerate(s.features):
            if v < lo[j]:
                lo[j] = v
            if v > hi[j]:
                hi[j] = v
    return NormalizationSpec("min_max_01", tuple(lo), tuple(hi))


def apply_normalization(
    spec: NormalizationSpec, v: Sequence[float]
) -> tuple[float, ...]:
    """Map one vector; min_max_01 clamps into [0, 1] and sends constant
    features to 0."""
    if spec.mode == "none":
        return tuple(v)
    if len(v) != len(spec.feature_min):
        raise DimensionMismatch(
            f"vector has dim {len(v)}, normalization expects "
            f"{len(spec.feature_min)}")
    out = []
    for x, lo, hi in zip(v, spec.feature_min, spec.feature_max):
        if hi == lo:
            out.append(0.0)
            continue
        t = (x - lo) / (hi - lo)
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        out.append(t)
    return tuple(out)


def apply_to_samples(
    spec: NormalizationSpec, samples: Sequence[forest.Sample]
) -> list[forest.Sample]:
    if spec.mode == "none":
        return list(samples)
    return [
        forest.Sample(apply_normalization(spec, s.features), s.label, s.id)
        for s in samples
    ]


# --- model archive --------------------------------------------------------

ARCHIVE_MAGIC = b"OPFA"
ARCHIVE_VERSION = 1


@dataclass(frozen=True)
class ForestArchive:
    format_version: int
    forest: forest.TrainedForest
    normalization: NormalizationSpec
    class_names: tuple[str, ...] | None


class _Packer:
    def __init__(self):
        self.parts: list[bytes] = []

    def pack(self, fmt: str, *vals):
        self.parts.append(struct.pack("<" + fmt, *vals))

    def raw(self, b: bytes):
        self.parts.append(b)

    def payload(self) -> bytes:
        return b"".join(self.parts)


class _Unpacker:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        size = struct.calcsize(fmt)
        if self.off + size > len(self.buf):
            raise CorruptArchive("payload ends mid-field")
        vals = struct.unpack_from(fmt, self.buf, self.off)
        self.off += size
        return vals

    def raw(self, size: int) -> bytes:
        if self.off + size > len(self.buf):
            raise CorruptArchive("payload ends mid-field")
        out = self.buf[self.off:self.off + size]
        self.off += size
        return out

    def done(self) -> bool:
        return self.off == len(self.buf)


def save_forest(
    f: forest.TrainedForest,
    spec: NormalizationSpec,
    path: str | Path,
    *,
    class_names: Sequence[str] | None = None,
) -> None:
    """Write the documented versioned, checksummed binary archive."""
    n = len(f.samples)
    nf = f.n_features
    p = _Packer()
    names = tuple(class_names) if class_names is not None else ()
    p.pack("III", n, nf, len(names))
    for s in names:
        b = s.encode("utf-8")
        p.pack("H", len(b))
        p.raw(b)
    code = f.distance.code.encode("ascii")
    p.pack("B", len(code))
    p.raw(code)
    if spec.mode == "none":
        p.pack("B", 0)
    elif spec.mode == "min_max_01":
        p.pack("B", 1)
        p.pack(f"{nf}d", *spec.feature_min)
        p.pack(f"{nf}d", *spec.feature_max)
    else:
        raise ValueError(f"unknown normalization mode {spec.mode!r}")
    for s in f.samples:
        p.pack(f"{nf}d", *s.features)
    p.pack(f"{n}q", *(s.label for s in f.samples))
    p.pack(f"{n}q", *(s.id for s in f.samples))
    protos = sorted(f.prototypes)
    p.pack("I", len(protos))
    if protos:
        p.pack(f"{len(protos)}I", *protos)
    p.pack(f"{n}d", *f.cost)
    p.pack(f"{n}q", *(-1 if v is None else v for v in f.predecessor))
    p.pack(f"{n}q", *f.root_label)
    p.pack(f"{n}I", *f.ordered_nodes)

    payload = p.payload()
    digest = hashlib.sha256(payload).digest()
    header = ARCHIVE_MAGIC + struct.pack("<IQ", ARCHIVE_VERSION, len(payload))
    with open(path, "wb") as fh:
        fh.write(header + digest + payload)


def load_archive(path: str | Path) -> ForestArchive:
    """Read and verify an archive; bit-exact inverse of ``save_forest``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 48:
        raise CorruptArchive(f"{path}: file shorter than the fixed header")
    if blob[:4] != ARCHIVE_MAGIC:
        raise CorruptArchive(f"{path}: bad magic bytes {blob[:4]!r}")
    version, payload_len = struct.unpack("<IQ", blob[4:16])
    if version != ARCHIVE_VERSION:
        raise VersionMismatch(
            f"{path}: archive format version {version}, supported "
            f"{ARCHIVE_VERSION}")
    digest = blob[16:48]
    payload = blob[48:]
    if len(payload) != payload_len:
        raise CorruptArchive(
            f"{path}: payload length {len(payload)}, header says {payload_len}")
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptArchive(f"{path}: checksum mismatch")

    u = _Unpacker(payload)
    n, nf, n_names = u.unpack("III")
    names = []
    for _ in range(n_names):
        (ln,) = u.unpack("H")
        names.append(u.raw(ln).decode("utf-8"))
    (code_len,) = u.unpack("B")
    code = u.raw(code_len).decode("ascii")
    try:
        distance = distances.resolve(code)
    except KeyError:
        raise CorruptArchive(f"{path}: unknown distance code {code!r}") from None
    (mode,) = u.unpack("B")
    if mode == 0:
        spec = NormalizationSpec("none")
    elif mode == 1:
        lo = u.unpack(f"{nf}d")
        hi = u.unpack(f"{nf}d")
        spec = NormalizationSpec("min_max_01", lo, hi)
    else:
        raise CorruptArchive(f"{path}: unknown normalization tag {mode}")
    feats = [u.unpack(f"{nf}d") for _ in range(n)]
    labels = u.unpack(f"{n}q")
    ids = u.unpack(f"{n}q")
    (n_protos,) = u.unpack("I")
    protos = u.unpack(f"{n_protos}I") if n_protos else ()
    costs = u.unpack(f"{n}d")
    preds = u.unpack(f"{n}q")
    roots = u.unpack(f"{n}q")
    ordered = u.unpack(f"{n}I")
    if not u.done():
        raise CorruptArchive(f"{path}: {len(payload) - u.off} trailing bytes")

    samples = tuple(
        forest.Sample(feats[i], int(labels[i]), int(ids[i])) for i in range(n))
    model = forest.TrainedForest(
        samples=samples,
        distance=distance,
        prototypes=frozenset(int(v) for v in protos),
        cost=tuple(costs),
        predecessor=tuple(None if v == -1 else int(v) for v in preds),
        root_label=tuple(int(v) for v in roots),
        ordered_nodes=tuple(int(v) for v in ordered),
    )
    return ForestArchive(version, model, spec, tuple(names) if names else None)


def load_forest(path: str | Path) -> tuple[forest.TrainedForest, NormalizationSpec]:
    arc = load_archive(path)
    return arc.forest, arc.normalization


# --- reports ---------------------------------------------------------------


@contextlib.contextmanager
def _replacing(path: Path):
    """Text file handle whose contents replace ``path`` only once complete.

    Writes go to ``<name>.tmp`` beside ``path``, which is flushed, fsynced
    and renamed over ``path`` on success and removed on failure.  A writer
    killed midway thus leaves the previous file whole: a row cut mid-number
    could still parse, and ``--resume`` would adopt it.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _replacing(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _f(v: float) -> str:
    return repr(float(v))


def write_distance_catalogue(path: str | Path) -> None:
    """Registry metadata as CSV, same writer conventions as the reports."""
    rows = [
        (e.code, e.name, e.taxonomy.value,
         "true" if e.requires_nonnegative_input else "false",
         "true" if e.satisfies_identity else "false")
        for e in distances.registry()
    ]
    _write_rows(Path(path),
                ["code", "name", "taxonomy", "requires_nonnegative_input",
                 "satisfies_identity"], rows)


def _read_grid_csv(path: str | Path, value_names: Sequence[str]
                   ) -> list[tuple]:
    """Rows (dataset, classifier, run, fold, *values) of a per-cell file
    whose header is dataset,classifier,run,fold followed by value_names."""
    path = Path(path)
    expected = ["dataset", "classifier", "run", "fold", *value_names]
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyFile("no header row", path=path)
        if [h.strip() for h in header] != expected:
            raise ParseError(
                f"expected header {expected}, found {header}", path=path)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise RaggedRows(
                    f"expected {len(expected)} fields, found {len(row)}",
                    path=path, row=line_no)
            try:
                out.append((row[0], row[1], int(row[2]), int(row[3]),
                            *(float(v) for v in row[4:])))
            except ValueError as exc:
                raise ParseError(str(exc), path=path, row=line_no) from None
    return out


def read_cells_csv(path: str | Path) -> list[tuple[str, str, int, int, float]]:
    """Rows of a cells file: (dataset, classifier, run, fold, accuracy)."""
    return _read_grid_csv(path, ["accuracy"])


def read_timings_csv(
    path: str | Path,
) -> dict[tuple[str, str, int, int], tuple[float, float]]:
    """A timings file as (dataset, classifier, run, fold) ->
    (train_seconds, test_seconds)."""
    rows = _read_grid_csv(path, ["train_seconds", "test_seconds"])
    return {(ds, c, r, f): (t_train, t_test)
            for ds, c, r, f, t_train, t_test in rows}


def write_stat_files(
    stats, out_dir: str | Path, datasets: Sequence[str]
) -> list[Path]:
    """wilcoxon.csv and rank.csv for a StatReport; header-only when
    ``stats`` is None (grid too small to rank) or a test was skipped.
    Row order follows the stats' own classifier order, which may be a
    subset of the full report columns."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    cls_order = list(stats.friedman.mean_ranks) if stats is not None else []
    ds_order = list(datasets)

    path = out / "wilcoxon.csv"
    rows = []
    if stats is not None:
        for (ds, a, b), res in sorted(
                stats.wilcoxon.items(),
                key=lambda kv: (ds_order.index(kv[0][0]),
                                cls_order.index(kv[0][1]),
                                cls_order.index(kv[0][2]))):
            rows.append([ds, a, b, _f(res.statistic), _f(res.p_value),
                         "false" if res.reject else "true"])
    _write_rows(path, ["dataset", "classifier_a", "classifier_b", "statistic",
                       "p_value", "equivalent"], rows)
    written.append(path)

    path = out / "rank.csv"
    rows = []
    if stats is not None:
        cd = stats.nemenyi.critical_difference
        for c, mean_rank in stats.friedman.mean_ranks.items():
            rows.append([c, _f(mean_rank), _f(cd)])
    _write_rows(path, ["classifier", "mean_rank", "critical_difference"], rows)
    written.append(path)
    return written


def write_reports(
    summary: Mapping[tuple[str, str], tuple[float, float]],
    stats,
    out_dir: str | Path,
    *,
    datasets: Sequence[str],
    classifiers: Sequence[str],
    matrix=None,
    manifest: Mapping[str, str] | None = None,
) -> list[Path]:
    """Emit the full report set into ``out_dir`` and list what was written.

    Files: summary.csv (mean ± std, 4 decimals, one column per classifier),
    summary_raw.csv (binary64 mean/std companion), wilcoxon.csv,
    rank.csv (mean rank + the critical difference repeated per row),
    manifest.txt (sorted key = value lines), and, when ``matrix`` is given,
    cells.csv / timings.csv / failures.csv.  ``stats`` may be None (for
    grids too small to rank); the statistic files are then header-only.
    Identical inputs produce byte-identical files; timing data never goes
    into any byte-compared report, only into timings.csv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    path = out / "summary.csv"
    rows = []
    for ds in datasets:
        row = [ds]
        for c in classifiers:
            cell = summary.get((ds, c))
            row.append("" if cell is None else f"{cell[0]:.4f} ± {cell[1]:.4f}")
        rows.append(row)
    _write_rows(path, ["dataset", *classifiers], rows)
    written.append(path)

    path = out / "summary_raw.csv"
    header = ["dataset"]
    for c in classifiers:
        header += [f"{c}_mean", f"{c}_std"]
    rows = []
    for ds in datasets:
        row = [ds]
        for c in classifiers:
            cell = summary.get((ds, c))
            row += ["", ""] if cell is None else [_f(cell[0]), _f(cell[1])]
        rows.append(row)
    _write_rows(path, header, rows)
    written.append(path)

    written += write_stat_files(stats, out, datasets)

    if matrix is not None:
        path = out / "cells.csv"
        _write_rows(path, ["dataset", "classifier", "run", "fold", "accuracy"],
                    [(ds, c, r, f, _f(acc))
                     for ds, c, r, f, acc in matrix.to_rows()])
        written.append(path)

        path = out / "timings.csv"
        rows = []
        for ds in matrix.datasets:
            for c in matrix.classifiers:
                for r in range(matrix.runs):
                    for fold in (0, 1):
                        t = matrix.timings.get((ds, c, r, fold))
                        if t is not None:
                            rows.append([ds, c, r, fold, _f(t[0]), _f(t[1])])
        _write_rows(path, ["dataset", "classifier", "run", "fold",
                           "train_seconds", "test_seconds"], rows)
        written.append(path)

        path = out / "failures.csv"
        rows = []
        for ds in matrix.datasets:
            for c in matrix.classifiers:
                err = matrix.errors.get((ds, c))
                if err is not None:
                    rows.append([ds, c, err])
        _write_rows(path, ["dataset", "classifier", "error"], rows)
        written.append(path)

    path = out / "manifest.txt"
    fields = dict(manifest or {})
    with _replacing(path) as fh:
        for key in sorted(fields):
            fh.write(f"{key} = {fields[key]}\n")
    written.append(path)
    return written
