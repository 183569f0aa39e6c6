"""Benchmark protocol and rank statistics.

The experiment grid is: for each dataset and each distance measure, run
``runs`` repetitions of a stratified half split, training on one half and
testing on the other, then swapping.  Per-run accuracy is the mean of the
two fold accuracies.  Comparisons use a two-sided Wilcoxon signed-rank
test per dataset pair, and a tie-corrected Friedman test over all
(dataset, run) blocks followed by a Nemenyi critical difference.

Everything is deterministic given (seed, runs): split shuffles derive from
a per-run seed sequence, and results are keyed by grid position, so the
degree of parallelism cannot change any reported number.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import distances, forest
from .dataio import Dataset, apply_to_samples, fit_normalization
from .errors import (
    EmptyInput,
    LengthMismatch,
    MissingCells,
    TooFewClassifiers,
    TooFewPairs,
    TooFewSamplesPerClass,
)

# --- splits -------------------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    """One repetition's assignment of every sample to fold 0 or 1."""

    seed: int
    run_index: int
    fold_assignment: tuple[int, ...]

    def fold_indices(self, fold: int) -> tuple[int, ...]:
        if fold not in (0, 1):
            raise ValueError("fold must be 0 or 1")
        return tuple(i for i, f in enumerate(self.fold_assignment) if f == fold)


def make_splits(dataset: Dataset, seed: int, runs: int) -> list[SplitPlan]:
    """Stratified half splits, one plan per run.

    Per class the two folds differ by at most one sample; classes with an
    odd count donate their extra sample to alternating folds (first odd
    class to fold 0, next to fold 1, ...) so the global fold sizes also
    differ by at most one.  Shuffles are drawn from a generator seeded by
    (seed, run_index), so plans are independent of how many runs are
    requested before them.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    labels = [s.label for s in dataset.samples]
    by_class: list[list[int]] = [[] for _ in range(dataset.n_classes)]
    for i, lab in enumerate(labels):
        by_class[lab].append(i)
    for cls, members in enumerate(by_class):
        if len(members) < 2:
            raise TooFewSamplesPerClass(
                f"class {cls} of dataset {dataset.name!r} has {len(members)} "
                f"sample(s); stratified halving needs at least 2")

    plans = []
    for run in range(runs):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=(seed, run))))
        assignment = [0] * len(labels)
        odd_seen = 0
        for members in by_class:
            k = len(members)
            n0 = k // 2
            if k % 2 == 1:
                if odd_seen % 2 == 0:
                    n0 += 1
                odd_seen += 1
            order = rng.permutation(k)
            for pos, idx in enumerate(order):
                assignment[members[int(idx)]] = 0 if pos < n0 else 1
        plans.append(SplitPlan(seed, run, tuple(assignment)))
    return plans


# --- metrics ------------------------------------------------------------


def accuracy(predicted: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of positions where the labels agree."""
    if len(predicted) != len(truth):
        raise LengthMismatch(
            f"{len(predicted)} predictions against {len(truth)} labels")
    if len(truth) == 0:
        raise EmptyInput("accuracy over zero samples is undefined")
    hits = sum(1 for p, t in zip(predicted, truth) if p == t)
    return hits / len(truth)


def balanced_accuracy(predicted: Sequence[int], truth: Sequence[int]) -> float:
    """Mean of per-class recalls; a secondary metric, never substituted
    for plain accuracy in reports."""
    if len(predicted) != len(truth):
        raise LengthMismatch(
            f"{len(predicted)} predictions against {len(truth)} labels")
    if len(truth) == 0:
        raise EmptyInput("balanced accuracy over zero samples is undefined")
    per_class: dict[int, list[int]] = {}
    for p, t in zip(predicted, truth):
        per_class.setdefault(t, []).append(1 if p == t else 0)
    recalls = [sum(v) / len(v) for _, v in sorted(per_class.items())]
    return sum(recalls) / len(recalls)


# --- benchmark grid -----------------------------------------------------


@dataclass
class BenchmarkMatrix:
    """Accuracy per (dataset, classifier, run, fold), plus timing and
    per-column failure records.

    ``fold`` indexes the fold used for TESTING in that cell.  A failed
    (dataset, classifier) column has an entry in ``errors`` and no cells.
    """

    datasets: tuple[str, ...]
    classifiers: tuple[str, ...]
    runs: int
    cells: dict[tuple[str, str, int, int], float] = field(default_factory=dict)
    timings: dict[tuple[str, str, int, int], tuple[float, float]] = field(
        default_factory=dict)
    errors: dict[tuple[str, str], str] = field(default_factory=dict)

    def is_complete(self, dataset: str, classifier: str) -> bool:
        return all(
            (dataset, classifier, r, f) in self.cells
            for r in range(self.runs) for f in (0, 1))

    def run_values(self, dataset: str, classifier: str) -> list[float]:
        """Per-run accuracy (two folds averaged), in run order."""
        out = []
        for r in range(self.runs):
            try:
                a = self.cells[(dataset, classifier, r, 0)]
                b = self.cells[(dataset, classifier, r, 1)]
            except KeyError:
                raise MissingCells(
                    f"no cell for dataset={dataset!r} classifier={classifier!r} "
                    f"run={r}") from None
            out.append((a + b) / 2.0)
        return out

    def to_rows(self) -> list[tuple[str, str, int, int, float]]:
        rows = []
        for ds in self.datasets:
            for cls in self.classifiers:
                for r in range(self.runs):
                    for f in (0, 1):
                        key = (ds, cls, r, f)
                        if key in self.cells:
                            rows.append((ds, cls, r, f, self.cells[key]))
        return rows

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[tuple[str, str, int, int, float]],
        *,
        runs: int | None = None,
    ) -> "BenchmarkMatrix":
        """Rebuild a matrix from cell rows; dataset/classifier order is
        first appearance, run count the highest run index + 1."""
        datasets: list[str] = []
        classifiers: list[str] = []
        cells: dict[tuple[str, str, int, int], float] = {}
        max_run = -1
        for ds, c, r, f, acc in rows:
            if ds not in datasets:
                datasets.append(ds)
            if c not in classifiers:
                classifiers.append(c)
            key = (ds, c, int(r), int(f))
            if key in cells and cells[key] != acc:
                raise ValueError(f"conflicting duplicate cell {key}")
            cells[key] = float(acc)
            max_run = max(max_run, int(r))
        n_runs = runs if runs is not None else max_run + 1
        return cls(tuple(datasets), tuple(classifiers), n_runs, cells)


def _evaluate_cell(
    dataset: Dataset,
    code: str,
    train_idx: Sequence[int],
    test_idx: Sequence[int],
    normalization: str,
) -> tuple[float, float, float]:
    train_samples = [dataset.samples[i] for i in train_idx]
    test_samples = [dataset.samples[i] for i in test_idx]
    spec = fit_normalization(train_samples, normalization)
    train_samples = apply_to_samples(spec, train_samples)
    test_samples = apply_to_samples(spec, test_samples)

    t0 = time.perf_counter()
    graph = forest.TrainingGraph(tuple(train_samples), distances.resolve(code))
    model = forest.train(graph)
    t1 = time.perf_counter()
    preds = forest.classify_batch(model, [s.features for s in test_samples])
    t2 = time.perf_counter()
    acc = accuracy([p.label for p in preds], [s.label for s in test_samples])
    return acc, t1 - t0, t2 - t1


def benchmark_column(
    dataset: Dataset,
    code: str,
    seed: int,
    runs: int,
    normalization: str = "none",
    wanted: set[tuple[int, int]] | None = None,
) -> dict[tuple[int, int], tuple[float, float, float]]:
    """All cells of one (dataset, classifier) column.

    Returns (run, fold) -> (accuracy, train seconds, test seconds), where
    fold is the TEST fold of the cell.  ``wanted`` restricts computation to
    the given (run, fold) pairs (used to resume a partial grid).
    """
    plans = make_splits(dataset, seed, runs)
    out: dict[tuple[int, int], tuple[float, float, float]] = {}
    for plan in plans:
        folds = (plan.fold_indices(0), plan.fold_indices(1))
        for test_fold in (0, 1):
            key = (plan.run_index, test_fold)
            if wanted is not None and key not in wanted:
                continue
            out[key] = _evaluate_cell(
                dataset, code, folds[1 - test_fold], folds[test_fold],
                normalization)
    return out


def _column_task(args):
    name, dataset, code, seed, runs, normalization, wanted = args
    try:
        return name, code, benchmark_column(dataset, code, seed, runs,
                                            normalization, wanted), None
    except Exception as exc:  # recorded, never silently dropped
        return name, code, None, f"{type(exc).__name__}: {exc}"


def run_benchmark(
    datasets: Sequence[Dataset],
    distance_codes: Sequence[str | distances.DistanceId],
    seed: int,
    runs: int,
    *,
    normalization: str = "none",
    parallelism: int = 1,
    progress: Callable[[str, str, str | None], None] | None = None,
    done: Mapping[tuple[str, str, int, int], float] | None = None,
) -> BenchmarkMatrix:
    """Compute the full grid.

    ``done`` holds cells already computed, keyed (dataset, code, run,
    fold); they seed the matrix, and only the missing cells of each column
    are computed.  ``progress(dataset, code, error)`` is called as each
    computed column finishes.  A failing column is recorded in ``errors``
    and leaves no new cells; all other columns are unaffected.  Results
    are identical for any ``parallelism`` >= 1.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    names = [d.name for d in datasets]
    if len(set(names)) != len(names):
        raise ValueError("dataset names must be unique")
    codes = [distances.resolve(c).code for c in distance_codes]
    if len(set(codes)) != len(codes):
        raise ValueError("distance codes must be unique")
    if not names or not codes:
        raise EmptyInput("need at least one dataset and one distance")

    matrix = BenchmarkMatrix(tuple(names), tuple(codes), runs)
    grid_keys = {(r, f) for r in range(runs) for f in (0, 1)}
    for key, acc in (done or {}).items():
        if key[0] not in names or key[1] not in codes or key[2:] not in grid_keys:
            raise ValueError(f"done cell {key} lies outside the grid")
        matrix.cells[key] = acc

    tasks = []
    for d in datasets:
        for code in codes:
            missing = frozenset(k for k in grid_keys
                                if (d.name, code) + k not in matrix.cells)
            if missing:
                tasks.append((d.name, d, code, seed, runs, normalization,
                              missing))

    def record(name, code, cells, error):
        if error is not None:
            matrix.errors[(name, code)] = error
        else:
            for (r, f), (acc, t_train, t_test) in cells.items():
                matrix.cells[(name, code, r, f)] = acc
                matrix.timings[(name, code, r, f)] = (t_train, t_test)
        if progress is not None:
            progress(name, code, error)

    if parallelism == 1 or len(tasks) <= 1:
        for task in tasks:
            record(*_column_task(task))
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            pending = {pool.submit(_column_task, t) for t in tasks}
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    record(*fut.result())
    return matrix


def summarize(
    matrix: BenchmarkMatrix,
) -> dict[tuple[str, str], tuple[float, float]]:
    """(dataset, classifier) -> (mean, sample std) over per-run accuracies.

    Errored columns are omitted.  Std uses the n-1 denominator and is 0.0
    for a single run.
    """
    if not matrix.cells and not matrix.errors:
        raise EmptyInput("empty benchmark matrix")
    out: dict[tuple[str, str], tuple[float, float]] = {}
    for ds in matrix.datasets:
        for cls in matrix.classifiers:
            if (ds, cls) in matrix.errors:
                continue
            vals = matrix.run_values(ds, cls)
            mean = sum(vals) / len(vals)
            if len(vals) > 1:
                var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
                std = math.sqrt(var)
            else:
                std = 0.0
            out[(ds, cls)] = (mean, std)
    return out


# --- Wilcoxon signed-rank ------------------------------------------------


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    reject: bool


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) share ranks i+1..j+1
        r = (i + j + 2) / 2.0
        for t in range(i, j + 1):
            ranks[order[t]] = r
        i = j + 1
    return ranks


# Midranks over <= 25 observations are multiples of 1/2, so doubling makes
# them integers and the null distribution can be enumerated exactly.
_EXACT_MAX_N = 25


def _exact_two_sided_p(ranks: Sequence[float], w: float) -> float:
    scaled = [int(round(2.0 * r)) for r in ranks]
    total = sum(scaled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for s in scaled:
        for j in range(total, s - 1, -1):
            counts[j] += counts[j - s]
    w2 = int(round(2.0 * w))
    if w2 < 0:
        w2 = 0
    if w2 > total:
        w2 = total
    below = sum(counts[: w2 + 1])
    p = 2.0 * below / (1 << len(ranks))
    return p if p < 1.0 else 1.0


def _approx_two_sided_p(ranks: Sequence[float], w: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    tie_term = 0.0
    seen: dict[float, int] = {}
    for r in ranks:
        seen[r] = seen.get(r, 0) + 1
    for count in seen.values():
        tie_term += count ** 3 - count
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    if var <= 0.0:
        return 1.0
    z = (w - mean + 0.5) / math.sqrt(var)
    p = math.erfc(-z / math.sqrt(2.0))
    return p if p < 1.0 else 1.0


def wilcoxon_signed_rank(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> WilcoxonResult:
    """Two-sided paired signed-rank test of a against b.

    Zero differences are dropped; tied magnitudes get mid-ranks; the
    statistic is min(W+, W-).  With 25 or fewer nonzero differences the
    p-value comes from exact enumeration of the (tie-aware) null
    distribution, above that from the tie-corrected normal approximation
    with continuity correction.  All zero differences give p = 1.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"paired samples of length {len(a)} and {len(b)}")
    if len(a) < 5:
        raise TooFewPairs(f"need at least 5 pairs, got {len(a)}")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    nonzero = [d for d in diffs if d != 0.0]
    if not nonzero:
        return WilcoxonResult(0.0, 1.0, False)
    ranks = _midranks([abs(d) for d in nonzero])
    w_plus = sum(r for d, r in zip(nonzero, ranks) if d > 0.0)
    w_minus = sum(ranks) - w_plus
    w = w_plus if w_plus < w_minus else w_minus
    if len(nonzero) <= _EXACT_MAX_N:
        p = _exact_two_sided_p(ranks, w)
    else:
        p = _approx_two_sided_p(ranks, w)
    return WilcoxonResult(w, p, p < alpha)


# --- Friedman + Nemenyi ---------------------------------------------------

# Studentized range upper 5% points at infinite degrees of freedom,
# divided by sqrt(2); indexed by the number of compared classifiers.
_NEMENYI_Q_05: dict[int, float] = {
    2: 1.959964, 3: 2.343701, 4: 2.569032, 5: 2.727774, 6: 2.849705,
    7: 2.948320, 8: 3.030878, 9: 3.101730, 10: 3.163684, 11: 3.218654,
    12: 3.268004, 13: 3.312739, 14: 3.353618, 15: 3.391230, 16: 3.426041,
    17: 3.458425, 18: 3.488685, 19: 3.517073, 20: 3.543799, 21: 3.569040,
    22: 3.592946, 23: 3.615646, 24: 3.637252, 25: 3.657861, 26: 3.677556,
    27: 3.696413, 28: 3.714498, 29: 3.731869, 30: 3.748578, 31: 3.764672,
    32: 3.780193, 33: 3.795179, 34: 3.809664, 35: 3.823680, 36: 3.837254,
    37: 3.850413, 38: 3.863181, 39: 3.875579, 40: 3.887627, 41: 3.899344,
    42: 3.910747, 43: 3.921852, 44: 3.932673, 45: 3.943224, 46: 3.953518,
    47: 3.963566, 48: 3.973379, 49: 3.982969, 50: 3.992343, 51: 4.001512,
    52: 4.010485, 53: 4.019268, 54: 4.027869, 55: 4.036297, 56: 4.044556,
    57: 4.052654, 58: 4.060597, 59: 4.068390, 60: 4.076038,
}


def critical_difference(k: int, n_blocks: int, alpha: float = 0.05) -> float:
    """Nemenyi critical difference for k classifiers over n_blocks blocks."""
    if alpha != 0.05:
        raise ValueError("critical difference table is available for alpha=0.05 only")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    q = _NEMENYI_Q_05.get(k)
    if q is None:
        raise ValueError(f"no tabulated q value for k={k} (supported: 2..60)")
    return q * math.sqrt(k * (k + 1) / (6.0 * n_blocks))


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    p_value: float
    n_blocks: int
    mean_ranks: dict[str, float]


@dataclass(frozen=True)
class NemenyiResult:
    critical_difference: float
    significant_pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class StatReport:
    alpha: float
    wilcoxon: dict[tuple[str, str, str], WilcoxonResult]
    friedman: FriedmanResult
    nemenyi: NemenyiResult


def friedman_nemenyi(matrix: BenchmarkMatrix, alpha: float = 0.05) -> StatReport:
    """Rank statistics over the whole grid.

    Blocks are (dataset, run) pairs with the two folds averaged.  Within a
    block, classifiers are ranked ascending by accuracy with mid-ranks for
    ties (rank 1 = worst, rank k = best).  The Friedman statistic carries
    the standard tie correction; a fully tied grid yields statistic 0 and
    p = 1.  The per-dataset Wilcoxon grid is included when runs >= 5 (the
    test is undefined below that) and empty otherwise.  The Nemenyi
    critical difference always comes from the embedded alpha=0.05 table;
    ``alpha`` governs the Wilcoxon decisions and the Friedman p-value
    interpretation only.

    Raises TooFewClassifiers for k < 3 and MissingCells when any compared
    classifier lacks a cell.
    """
    k = len(matrix.classifiers)
    if k < 3:
        raise TooFewClassifiers(f"rank statistics need >= 3 classifiers, got {k}")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    per_run: dict[str, dict[str, list[float]]] = {
        ds: {c: matrix.run_values(ds, c) for c in matrix.classifiers}
        for ds in matrix.datasets
    }
    n_blocks = len(matrix.datasets) * matrix.runs
    if n_blocks < 2:
        raise ValueError("Friedman test needs at least 2 blocks")

    rank_sums = {c: 0.0 for c in matrix.classifiers}
    tie_correction_sum = 0.0
    for ds in matrix.datasets:
        for run in range(matrix.runs):
            values = [per_run[ds][c][run] for c in matrix.classifiers]
            ranks = _midranks(values)
            for c, r in zip(matrix.classifiers, ranks):
                rank_sums[c] += r
            seen: dict[float, int] = {}
            for v in values:
                seen[v] = seen.get(v, 0) + 1
            for count in seen.values():
                tie_correction_sum += count ** 3 - count

    n = n_blocks
    c_factor = 1.0 - tie_correction_sum / (k * (k * k - 1) * n)
    if c_factor == 0.0:
        stat = 0.0
        p = 1.0
    else:
        ssq = sum(rs * rs for rs in rank_sums.values())
        stat = (12.0 / (n * k * (k + 1)) * ssq - 3.0 * n * (k + 1)) / c_factor
        if stat < 0.0:
            stat = 0.0
        # imported here: scipy.stats is most of the package's import time,
        # and only this p-value needs it
        from scipy.stats import chi2
        p = float(chi2.sf(stat, k - 1))
    mean_ranks = {c: rank_sums[c] / n for c in matrix.classifiers}

    cd = critical_difference(k, n)
    significant = []
    for i, a_name in enumerate(matrix.classifiers):
        for b_name in matrix.classifiers[i + 1:]:
            if abs(mean_ranks[a_name] - mean_ranks[b_name]) >= cd:
                significant.append((a_name, b_name))

    wilcoxon: dict[tuple[str, str, str], WilcoxonResult] = {}
    if matrix.runs >= 5:
        for ds in matrix.datasets:
            for i, a_name in enumerate(matrix.classifiers):
                for b_name in matrix.classifiers[i + 1:]:
                    wilcoxon[(ds, a_name, b_name)] = wilcoxon_signed_rank(
                        per_run[ds][a_name], per_run[ds][b_name], alpha)

    return StatReport(
        alpha=alpha,
        wilcoxon=wilcoxon,
        friedman=FriedmanResult(stat, p, n_blocks, mean_ranks),
        nemenyi=NemenyiResult(cd, tuple(significant)),
    )
