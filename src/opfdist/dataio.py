"""Dataset ingestion, normalization, model persistence, report emission.

Dataset files are either comma-separated text (optional header, one label
column by name or index) or svmlight/libsvm sparse lines
(``<label> <index>:<value> ...`` with 1-based strictly ascending indices).
Label tokens are mapped to contiguous 0-based integers in first-appearance
order; the original strings are kept in ``Dataset.class_names``.  The rows
are one float64 matrix, which ``fit_normalization`` and ``normalize`` read;
a CSV or svmlight file is read twice, to check and count its rows and
then to parse them into that matrix, so that its fields are never held
all at once.

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

Array fields are numpy blocks of raw binary64 or integers, written from
a forest's arrays with ``tobytes`` and read back as read-only
``frombuffer`` views, which the loaded forest keeps; a load thus
reproduces a save bit for bit.  The prototypes block is checked against the
predecessors (-1 exactly at the prototypes) and not kept: a forest
derives its prototypes from its predecessors.  Report writers use fixed
column orders, fixed "\\n" line endings, and repr float formatting, so
identical inputs give byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False, repr=False)
class Dataset(forest._Arrays):
    """Named, validated samples: read-only float64 (n, d) ``features``, int64
    ``labels`` (each of 0..n_classes-1 occurs, given as whole numbers) and
    positional ``ids``; the ``Sample`` rows are an ``_Arrays`` view, which a
    pickle leaves out and ``perfbench/wine.py`` reads."""

    name: str
    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X, given = forest._frozen(self.features, np.float64), self.labels
        labels, bad_label = forest._int_labels(given)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", labels)
        if not len(X):
            raise EmptyInput(f"dataset {self.name!r} has no samples")
        if X.ndim != 2 or labels.shape != X.shape[:1]:
            raise DimensionMismatch(f"features of shape {X.shape} and "
                                    f"labels of shape {labels.shape}")
        if self.n_features < 1:
            raise DimensionMismatch("datasets need at least one feature")
        # the first bad row; a row's values are checked before its label
        bad_value = ~np.isfinite(X).all(axis=1)
        bad = bad_value | bad_label | (labels < 0) | (labels >= self.n_classes)
        if bad.any():
            i = int(bad.argmax())
            if bad_value[i]:
                v = X[i][~np.isfinite(X[i])][0].item()
                raise ParseError(
                    f"non-finite feature value {v!r} in sample id {i}")
            if bad_label[i]:
                raise ParseError(f"label {np.asarray(given)[i].item()!r} of "
                                 f"sample id {i} is not a whole number")
            raise ParseError(
                f"label {labels[i]} of sample id {i} outside "
                f"0..{self.n_classes - 1}")
        # not np.unique, whose first int64 call touches ~1.3 MB of sort code
        seen = np.count_nonzero(np.bincount(labels, minlength=self.n_classes))
        if seen != self.n_classes:
            raise ParseError(
                f"dataset {self.name!r} declares {self.n_classes} classes but "
                f"only {seen} occur")
        if self.class_names is not None and len(self.class_names) != self.n_classes:
            raise ParseError("class_names length disagrees with n_classes")

    ids = property(lambda self: np.arange(len(self.labels)))


def _map_labels(tokens: Sequence[str]) -> tuple[list[int], tuple[str, ...]]:
    index = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    return [index[t] for t in tokens], tuple(index)


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


def _csv_rows(fh) -> Iterator[tuple[int, list[str]]]:
    """(1-based row number, fields) of each row of ``fh`` that has a
    non-blank field."""
    return ((i, row) for i, row in enumerate(csv.reader(fh), start=1)
            if any(field.strip() for field in row))


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
    header: list[str] | None = None
    n = width = 0
    # the first pass checks the widths and counts the data rows
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for line_no, row in _csv_rows(fh):
            if has_header and header is None:
                header_row, header = line_no, [f.strip() for f in row]
                continue
            if not n:
                width = len(row)
            elif len(row) != width:
                raise RaggedRows(f"expected {width} fields, found {len(row)}",
                                 path=path, row=line_no)
            n += 1
    if has_header and header is None:
        raise EmptyFile("no rows at all", path=path)
    if not n:
        raise EmptyFile("no data rows", path=path)
    if header is not None and len(header) != width:
        raise RaggedRows(f"header has {len(header)} fields, rows {width}",
                         path=path, row=header_row)

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

    # the second parses each row into its row of the matrix
    feats = np.empty((n, len(feature_cols)))
    tokens = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = _csv_rows(fh)
        if header is not None:
            next(rows)
        for out, (line_no, row) in zip(feats, rows):
            out[:] = [_parse_feature(row[c].strip(), path, line_no, c + 1)
                      for c in feature_cols]
            # an unlabeled file is one class without a name
            tokens.append("" if label_idx is None else row[label_idx].strip())
    labels, names = _map_labels(tokens)
    feats.flags.writeable = False  # frozen here, the Dataset keeps it uncopied
    return Dataset(name or path.stem, feats, labels, len(names),
                   None if label_idx is None else names)


def _svmlight_lines(fh) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) of each line of ``fh`` with a token
    before any ``#``."""
    for line_no, line in enumerate(fh, start=1):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


def load_svmlight(path: str | Path, *, name: str | None = None) -> Dataset:
    """Read sparse ``label index:value`` lines; densify to the max index.

    Indices are 1-based and must be strictly ascending within a line.
    Text after ``#`` is a comment.  Blank lines are skipped.  The file is
    read twice: the first pass checks each line's label and indices and
    counts the lines and the highest index, the second parses the values
    into the matrix; so a fault of the labels or indices anywhere in the
    file is reported before a value fault.
    """
    path = Path(path)
    n = max_index = 0
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, tokens in _svmlight_lines(fh):
            label = tokens[0]
            if re.fullmatch(r"[+-]?[0-9]+:.*", label):
                raise ParseError(
                    f"feature {label!r} where the label should be",
                    path=path, row=line_no)
            prev = 0
            for tok in tokens[1:]:
                idx_txt, sep, _ = tok.partition(":")
                if not sep:
                    raise ParseError(f"expected index:value, found {tok!r}",
                                     path=path, row=line_no)
                try:
                    idx = int(idx_txt)
                except ValueError:
                    raise ParseError(
                        f"feature index {idx_txt!r} is not an integer",
                        path=path, row=line_no) from None
                if idx < 1:
                    raise ParseError(f"feature index {idx} must be >= 1",
                                     path=path, row=line_no)
                if idx <= prev:
                    raise NonAscendingIndices(f"index {idx} after {prev}",
                                              path=path, row=line_no)
                prev = idx
            max_index = max(max_index, prev)
            n += 1
    if not n:
        raise EmptyFile("no data lines", path=path)
    if max_index == 0:
        raise ParseError("no features anywhere in the file", path=path)

    feats = np.zeros((n, max_index))
    tokens = []
    with open(path, encoding="utf-8-sig") as fh:
        for out, (line_no, (label, *pairs)) in zip(feats,
                                                   _svmlight_lines(fh)):
            tokens.append(label)
            for tok in pairs:
                idx_txt, _, val_txt = tok.partition(":")
                idx = int(idx_txt)
                out[idx - 1] = _parse_feature(val_txt, path, line_no, idx)
    labels, class_names = _map_labels(tokens)
    feats.flags.writeable = False
    return Dataset(name or path.stem, feats, labels, len(class_names),
                   class_names)


# --- normalization --------------------------------------------------------

NORMALIZATION_MODES = ("none", "min_max_01")


@dataclass(frozen=True)
class NormalizationSpec:
    """Feature scaling fitted on a training fold only."""

    mode: str
    feature_min: tuple[float, ...] | None = None
    feature_max: tuple[float, ...] | None = None


def fit_normalization(train, mode: str) -> NormalizationSpec:
    """``mode`` fitted on an (n, d) matrix or on ``Sample`` rows (as
    ``perfbench/wine.py`` fits its folds): min_max_01 keeps each column's
    minimum and maximum, and of -0.0 and +0.0 the first in row order, as a
    scan replacing a bound on a strict < or > does.  It refuses ragged
    rows (DimensionMismatch) and a NaN or infinite value (ValueError
    naming the sample id: a row's ``id``, or its position)."""
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if len(train) == 0:
        raise EmptyInput("cannot fit normalization on an empty training fold")
    if mode == "none":
        return NormalizationSpec("none")
    ids = range(len(train))
    if isinstance(train[0], forest.Sample):
        ids = [s.id for s in train]
        train = [s.features for s in train]
    X = distances._float_rows(train, "training")
    if X.ndim != 2:
        raise DimensionMismatch("training samples disagree on dimension")
    forest._finite_rows(X, ids)
    bounds = []
    for bound in X.min(axis=0), X.max(axis=0):
        # np.min and np.max may return either zero: take the first
        cols = np.flatnonzero(bound == 0.0)
        bound[cols] = X[(X[:, cols] == 0.0).argmax(axis=0), cols]
        bounds.append(tuple(bound.tolist()))
    return NormalizationSpec("min_max_01", *bounds)


def normalize(spec: NormalizationSpec, X) -> np.ndarray:
    """The rows of X, (n, d) or one row (d,), mapped by ``spec`` into a
    read-only float64 array: min_max_01 takes (x - lo) / (hi - lo), then
    t < 0 -> 0.0, t > 1 -> 1.0 and a constant feature -> 0.0.  Ragged
    rows raise DimensionMismatch."""
    X = distances._float_rows(X, "input")
    if spec.mode == "none":
        return forest._frozen(X, np.float64)
    lo, hi = np.array(spec.feature_min), np.array(spec.feature_max)
    if X.shape[-1:] != lo.shape:
        raise DimensionMismatch(
            f"rows of shape {X.shape}, normalization expects dim {len(lo)}")
    # overflow to inf, NaN and 0 / 0 (sent to 0.0 below) pass unwarned
    with np.errstate(all="ignore"):
        t = (X - lo) / (hi - lo)
        t[t < 0.0] = 0.0
        t[t > 1.0] = 1.0
    t[..., hi == lo] = 0.0
    t.flags.writeable = False
    return t


def apply_to_samples(
    spec: NormalizationSpec, samples: Sequence[forest.Sample]
) -> list[forest.Sample]:
    """``normalize`` of ``Sample`` rows, as rows with their labels and ids,
    for the folds of ``perfbench/wine.py``."""
    if spec.mode == "none" or not samples:
        return list(samples)
    X = normalize(spec, [s.features for s in samples]).tolist()
    return [forest.Sample(tuple(x), s.label, s.id) for x, s in zip(X, samples)]


# --- model archive --------------------------------------------------------

ARCHIVE_MAGIC = b"OPFA"
ARCHIVE_VERSION = 1


@dataclass(frozen=True)
class ForestArchive:
    format_version: int
    forest: forest.TrainedForest
    normalization: NormalizationSpec
    class_names: tuple[str, ...] | None


def _block(dtype: str, values) -> bytes:
    """``values`` as one little-endian block of ``dtype``, row-major."""
    return np.asarray(values, dtype=dtype).tobytes()


def save_forest(
    f: forest.TrainedForest,
    spec: NormalizationSpec,
    path: str | Path,
    *,
    class_names: Sequence[str] | None = None,
) -> None:
    """Write the documented versioned, checksummed binary archive, one
    block per array of the forest."""
    names = tuple(class_names) if class_names is not None else ()
    parts = [struct.pack("<III", *f.features.shape, len(names))]
    for s in names:
        b = s.encode("utf-8")
        parts += [struct.pack("<H", len(b)), b]
    code = f.distance.code.encode("ascii")
    parts += [struct.pack("<B", len(code)), code]
    if spec.mode == "none":
        parts.append(struct.pack("<B", 0))
    elif spec.mode == "min_max_01":
        parts += [struct.pack("<B", 1), _block("<f8", spec.feature_min),
                  _block("<f8", spec.feature_max)]
    else:
        raise ValueError(f"unknown normalization mode {spec.mode!r}")
    protos = np.flatnonzero(f.preds < 0)
    parts += [
        _block("<f8", f.features),
        _block("<i8", f.labels),
        _block("<i8", f.ids),
        struct.pack("<I", len(protos)),
        _block("<u4", protos),
        _block("<f8", f.costs),
        _block("<i8", f.preds),
        _block("<i8", f.root_labels),
        _block("<u4", f.order),
    ]

    payload = b"".join(parts)
    digest = hashlib.sha256(payload).digest()
    header = ARCHIVE_MAGIC + struct.pack("<IQ", ARCHIVE_VERSION, len(payload))
    with _replacing(Path(path), binary=True) as fh:
        fh.write(header + digest + payload)


def load_archive(path: str | Path) -> ForestArchive:
    """Read and verify an archive; bit-exact inverse of ``save_forest``.

    Beyond the header and checksum, the blocks are checked as numpy
    expressions: the scan order is a permutation, the prototypes ascend
    below n and are exactly the nodes whose predecessor is -1, the
    predecessors lie in -1..n-1, and the costs are finite and never
    decrease along the scan order.  Each failure raises CorruptArchive.
    """
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
    payload = memoryview(blob)[48:]  # slices below are views, not copies
    if len(payload) != payload_len:
        raise CorruptArchive(
            f"{path}: payload length {len(payload)}, header says {payload_len}")
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptArchive(f"{path}: checksum mismatch")

    off = 0

    def take(size: int) -> memoryview:
        nonlocal off
        if off + size > len(payload):
            raise CorruptArchive("payload ends mid-field")
        off += size
        return payload[off - size:off]

    def block(dtype: str, *shape: int) -> np.ndarray:
        # a read-only view of the payload
        dt = np.dtype(dtype)
        return np.frombuffer(take(math.prod(shape) * dt.itemsize),
                             dt).reshape(shape)

    def scalar(dtype: str) -> int:
        return block(dtype, 1).item()

    n, nf, n_names = block("<u4", 3).tolist()
    if n < 1 or nf < 1:
        raise CorruptArchive(f"{path}: {n} samples of {nf} features")

    def text(length: str, encoding: str, field: str) -> str:
        raw = take(scalar(length))
        try:
            return str(raw, encoding)
        except UnicodeDecodeError:
            raise CorruptArchive(f"{path}: {field} {bytes(raw)!r} is not "
                                 f"{encoding}") from None

    names = [text("<u2", "utf-8", "class name") for _ in range(n_names)]
    code = text("u1", "ascii", "distance code")
    try:
        distance = distances.resolve(code)
    except KeyError:
        raise CorruptArchive(f"{path}: unknown distance code {code!r}") from None
    mode = scalar("u1")
    if mode == 0:
        spec = NormalizationSpec("none")
    elif mode == 1:
        lo, hi = block("<f8", 2, nf).tolist()
        spec = NormalizationSpec("min_max_01", tuple(lo), tuple(hi))
    else:
        raise CorruptArchive(f"{path}: unknown normalization tag {mode}")
    features = block("<f8", n, nf)
    labels = block("<i8", n)
    ids = block("<i8", n)
    protos = block("<u4", scalar("<u4")).astype(np.int64)
    costs = block("<f8", n)
    preds = block("<i8", n)
    roots = block("<i8", n)
    ordered = block("<u4", n).astype(np.int64)
    if off != len(payload):
        raise CorruptArchive(f"{path}: {len(payload) - off} trailing bytes")
    # The checksum only shows the bytes are as written; indices that a
    # crafted payload puts out of range would fail later, in classify.
    if not np.array_equal(np.sort(ordered), np.arange(n)):
        raise CorruptArchive(f"{path}: ordered nodes are not a permutation "
                             f"of 0..{n - 1}")
    if (protos[1:] <= protos[:-1]).any() or (protos >= n).any():
        raise CorruptArchive(f"{path}: prototype indices are not strictly "
                             f"ascending below {n}")
    if ((preds < -1) | (preds >= n)).any():
        raise CorruptArchive(f"{path}: predecessor outside -1..{n - 1}")
    # A forest has no predecessor exactly at its prototypes.
    if not np.array_equal(np.flatnonzero(preds == -1), protos):
        raise CorruptArchive(f"{path}: the nodes without a predecessor are "
                             f"not the prototypes")
    # Training gives finite costs, non-decreasing in scan order.  The early
    # exit stops at the first node whose cost reaches the best offer, which
    # is exact only while costs never decrease in scan order.
    if not np.isfinite(costs).all():
        raise CorruptArchive(f"{path}: a node cost is not finite")
    scan = costs[ordered]
    if (scan[1:] < scan[:-1]).any():
        raise CorruptArchive(f"{path}: node costs decrease along the "
                             f"ordered nodes")

    model = forest.TrainedForest(features, labels, ids, distance, costs,
                                 preds, roots, ordered)
    return ForestArchive(version, model, spec, tuple(names) if names else None)


def load_forest(path: str | Path) -> tuple[forest.TrainedForest, NormalizationSpec]:
    arc = load_archive(path)
    return arc.forest, arc.normalization


# --- reports ---------------------------------------------------------------


@contextlib.contextmanager
def _replacing(path: Path, *, binary: bool = False):
    """File handle (text, or bytes when ``binary``) whose contents replace
    ``path`` only once complete.

    Writes go to ``<name>.tmp`` beside ``path``, which is flushed, fsynced
    and renamed over ``path`` on success and removed on failure.  A writer
    killed midway thus leaves the previous file whole: a row cut mid-number
    could still parse, and ``--resume`` would adopt it; a cut archive or
    predictions overwrite would lose the previous model or predictions.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (open(tmp, "wb") if binary else
              open(tmp, "w", newline="", encoding="utf-8")) as fh:
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


def _read_grid_csv(path: str | Path, value_names: Sequence[str]
                   ) -> Iterator[tuple[int, tuple]]:
    """(line number, (dataset, classifier, run, fold, *values)) for each
    row of a per-cell file whose header is dataset,classifier,run,fold
    followed by value_names."""
    path = Path(path)
    expected = ["dataset", "classifier", "run", "fold", *value_names]
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
                parsed = (row[0], row[1], int(row[2]), int(row[3]),
                          *(float(v) for v in row[4:]))
            except ValueError as exc:
                raise ParseError(str(exc), path=path, row=line_no) from None
            yield line_no, parsed


def read_cells_csv(path: str | Path) -> list[tuple[str, str, int, int, float]]:
    """Rows of a cells file: (dataset, classifier, run, fold, accuracy).
    A row with a negative run, a fold other than 0 or 1, or an accuracy
    outside [0, 1] (NaN included) raises ParseError naming file and row."""
    rows = []
    for line_no, row in _read_grid_csv(path, ["accuracy"]):
        _, _, r, f, acc = row
        if r < 0 or f not in (0, 1) or not 0.0 <= acc <= 1.0:
            raise ParseError(
                f"row {','.join(map(str, row))}: fold must be 0 or 1, "
                f"run >= 0 and accuracy in [0, 1]", path=path, row=line_no)
        rows.append(row)
    return rows


def read_timings_csv(
    path: str | Path,
) -> dict[tuple[str, str, int, int], tuple[float, float]]:
    """A timings file as (dataset, classifier, run, fold) ->
    (train_seconds, test_seconds)."""
    return {row[:4]: row[4:]
            for _, row in _read_grid_csv(path, ["train_seconds", "test_seconds"])}


def write_stat_files(stats, out_dir: str | Path) -> list[Path]:
    """wilcoxon.csv and rank.csv for a StatReport; header-only when
    ``stats`` is None (grid too small to rank) or a test was skipped.
    Rows follow the stats' own order (datasets, then classifier pairs, as
    ``friedman_nemenyi`` lists them), whose classifiers may be a subset of
    the full report columns."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wilcoxon, rank = out / "wilcoxon.csv", out / "rank.csv"
    _write_rows(wilcoxon, ["dataset", "classifier_a", "classifier_b",
                           "statistic", "p_value", "equivalent"],
                [] if stats is None else
                [[ds, a, b, _f(res.statistic), _f(res.p_value),
                  "false" if res.reject else "true"]
                 for (ds, a, b), res in stats.wilcoxon.items()])
    _write_rows(rank, ["classifier", "mean_rank", "critical_difference"],
                [] if stats is None else
                [[c, _f(mean_rank), _f(stats.nemenyi.critical_difference)]
                 for c, mean_rank in stats.friedman.mean_ranks.items()])
    return [wilcoxon, rank]


def write_reports(
    summary: Mapping[tuple[str, str], tuple[float, float]],
    stats,
    out_dir: str | Path,
    *,
    matrix,
    manifest: Mapping[str, str] | None = None,
    datasets: Sequence[str] | None = None,
    classifiers: Sequence[str] | None = None,
) -> list[Path]:
    """Emit the full report set of ``matrix`` into ``out_dir`` and list
    what was written.

    Files: summary.csv (mean ± std, 4 decimals, one column per classifier),
    summary_raw.csv (binary64 mean/std companion), wilcoxon.csv,
    rank.csv (mean rank + the critical difference repeated per row),
    cells.csv, timings.csv, failures.csv and manifest.txt (sorted
    key = value lines).  Rows and columns follow the matrix's datasets and
    classifiers.  ``datasets`` and ``classifiers`` must equal the matrix's
    own; they are accepted because the traced run of ``perfbench/wine.py``
    still passes them.
    ``stats`` may be None (for grids too small to rank); the statistic
    files are then header-only.  Identical inputs produce byte-identical
    files; timing data never goes into any byte-compared report, only into
    timings.csv.
    """
    if ((datasets is not None and tuple(datasets) != matrix.datasets)
            or (classifiers is not None
                and tuple(classifiers) != matrix.classifiers)):
        raise ValueError("datasets and classifiers must be the matrix's own")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    datasets, classifiers = matrix.datasets, matrix.classifiers

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

    written += write_stat_files(stats, out)

    path = out / "cells.csv"
    _write_rows(path, ["dataset", "classifier", "run", "fold", "accuracy"],
                [(ds, c, r, f, _f(acc))
                 for ds, c, r, f, acc in matrix.to_rows()])
    written.append(path)

    path = out / "timings.csv"
    _write_rows(path, ["dataset", "classifier", "run", "fold",
                       "train_seconds", "test_seconds"],
                [(*k, _f(t[0]), _f(t[1])) for k in matrix.grid()
                 if (t := matrix.timings.get(k)) is not None])
    written.append(path)

    path = out / "failures.csv"
    _write_rows(path, ["dataset", "classifier", "error"],
                [(ds, c, matrix.errors[(ds, c)])
                 for ds in datasets for c in classifiers
                 if (ds, c) in matrix.errors])
    written.append(path)

    path = out / "manifest.txt"
    fields = dict(manifest or {})
    with _replacing(path) as fh:
        for key in sorted(fields):
            fh.write(f"{key} = {fields[key]}\n")
    written.append(path)
    return written
