"""Benchmark protocol and rank statistics.

The experiment grid is: for each dataset and each distance measure, run
``runs`` repetitions of a stratified half split, training on one half and
testing on the other, then swapping.  Per-run accuracy is the mean of the
two fold accuracies.  Comparisons use a two-sided Wilcoxon signed-rank
test per dataset pair, and a tie-corrected Friedman test over all
(dataset, run) blocks followed by a Nemenyi critical difference.  The
Friedman p-value comes from the closed-form chi-square tail for an integer
number of degrees of freedom (``_chi2_sf``), computed with ``math`` alone.
``rank_complete`` is the one step after the grid, for ``bench`` and
``rank`` alike: it picks the classifiers that can be ranked and ranks them.

The grid's unit of work is one (dataset, run, test fold): it masks the
dataset's matrix into that run's halves, normalizes both by the training
half's fit, and fits and tests every code with one ``forest.fit_and_label``
call, which owns how the forests are fitted, tested and timed.

Everything is deterministic given (seed, runs): split shuffles derive from
a per-run seed sequence, results are keyed by grid position, and a failed
column reports its lowest failing (run, fold), so the degree of
parallelism cannot change any reported number.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import distances, forest
from .dataio import Dataset, fit_normalization, normalize
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
    return [_split_run(dataset, seed, run) for run in range(runs)]


def _split_run(dataset: Dataset, seed: int, run: int) -> SplitPlan:
    """The plan of repetition ``run`` alone, as ``make_splits`` draws it."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    by_class = [np.flatnonzero(dataset.labels == cls)
                for cls in range(dataset.n_classes)]
    for cls, members in enumerate(by_class):
        if len(members) < 2:
            raise TooFewSamplesPerClass(
                f"class {cls} of dataset {dataset.name!r} has {len(members)} "
                f"sample(s); stratified halving needs at least 2")

    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(seed, run))))
    assignment = np.zeros(len(dataset.labels), dtype=np.int64)
    odd_seen = 0
    for members in by_class:
        k = len(members)
        n0 = k // 2 + (k % 2 == 1 and odd_seen % 2 == 0)
        odd_seen += k % 2
        assignment[members[rng.permutation(k)[n0:]]] = 1
    return SplitPlan(seed, run, tuple(assignment.tolist()))


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

    def grid(self, datasets: Iterable[str] | None = None,
             classifiers: Iterable[str] | None = None
             ) -> Iterator[tuple[str, str, int, int]]:
        """The (dataset, classifier, run, fold) keys of the grid in report
        order, over all datasets and classifiers unless given."""
        for ds in self.datasets if datasets is None else datasets:
            for c in self.classifiers if classifiers is None else classifiers:
                for r in range(self.runs):
                    for f in (0, 1):
                        yield ds, c, r, f

    def is_complete(self, dataset: str, classifier: str) -> bool:
        return all(k in self.cells for k in self.grid([dataset], [classifier]))

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
        return [(*k, self.cells[k]) for k in self.grid() if k in self.cells]

    @classmethod
    def from_rows(
        cls, rows: Iterable[tuple[str, str, int, int, float]]
    ) -> "BenchmarkMatrix":
        """Rebuild a matrix from cell rows; dataset/classifier order is
        first appearance, run count the highest run index + 1.  A row
        repeating a cell with another accuracy raises ValueError."""
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
                raise ValueError(f"row {ds},{c},{r},{f},{acc}: conflicts with "
                                 f"an earlier row of the same cell")
            cells[key] = float(acc)
            max_run = max(max_run, int(r))
        return cls(tuple(datasets), tuple(classifiers), max_run + 1, cells)


def _fold_task(args):
    """One (dataset, run, test fold): split and normalize once, then fit
    and test every code in ``codes`` with one ``forest.fit_and_label``
    call.  Returns (dataset name, run, fold, cells, errors) with code ->
    (accuracy, train s, test s) and code -> error text; a failing split or
    normalization fails every code.

    If the call raises, it is made once per code, so that a failing code
    fails alone, with its own message.  Each code is then refitted alone,
    a cost that only a call that raised pays.
    """
    dataset, seed, run, fold, normalization, codes = args
    X, y = dataset.features, dataset.labels
    try:
        test = np.array(_split_run(dataset, seed, run).fold_assignment) == fold
        train, queries = X[~test], X[test]
        spec = fit_normalization(train, normalization)
        train, queries = normalize(spec, train), normalize(spec, queries)
    except Exception as exc:  # recorded, never silently dropped
        error = f"{type(exc).__name__}: {exc}"
        return dataset.name, run, fold, {}, dict.fromkeys(codes, error)
    truth = y[test].tolist()
    cells, errors = {}, {}
    groups = [list(codes)]
    for group in groups:  # grows by one group per code if the first raises
        try:
            tested = forest.fit_and_label(train, y[~test], group, queries)
            cells.update({code: (accuracy(labels, truth), t_train, t_test)
                          for code, (labels, t_train, t_test)
                          in zip(group, tested)})
        except Exception as exc:  # recorded, never silently dropped
            if len(group) > 1:
                groups += [[code] for code in group]
            else:
                errors[group[0]] = f"{type(exc).__name__}: {exc}"
    return dataset.name, run, fold, cells, errors


def _init_worker(threads: int) -> None:
    # a grid worker's share of the CPUs, for forest's threaded scans
    forest._THREADS = threads


def run_benchmark(
    datasets: Sequence[Dataset],
    distance_codes: Sequence[str | distances.DistanceId],
    seed: int,
    runs: int,
    *,
    normalization: str = "none",
    parallelism: int = 1,
    progress: Callable[[str, int, int, dict[str, str]], None] | None = None,
    done: Mapping[tuple[str, str, int, int], float] | None = None,
) -> BenchmarkMatrix:
    """Compute the full grid, one task per (dataset, run, test fold).

    ``done`` holds cells already computed, keyed (dataset, code, run,
    fold); they seed the matrix, and each fold runs only its missing
    codes.  ``progress(dataset, run, fold, errors)`` is called as each
    task finishes, with its code -> error text.  A code failing in any
    fold fails its (dataset, code) column: the column keeps no cell from
    this call, and ``errors`` holds its lowest failing (run, fold)'s
    message.  Results are identical for any ``parallelism`` >= 1.

    With ``parallelism`` 1 the tasks run in this process, and a test
    that spans more than one chunk splits its queries over the process's
    CPUs (see ``forest``).  Otherwise each of the worker processes splits
    them over its share of the CPUs: max(1, CPUs // workers) threads, so
    two workers on two CPUs run one thread each.
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
    grid = set(matrix.grid())
    for key, acc in (done or {}).items():
        if key not in grid:
            raise ValueError(f"done cell {key} lies outside the grid")
        matrix.cells[key] = acc

    tasks = []
    for d in datasets:
        for r in range(runs):
            for f in (0, 1):
                missing = [c for c in codes
                           if (d.name, c, r, f) not in matrix.cells]
                if missing:
                    tasks.append((d, seed, r, f, normalization, missing))

    failed: dict[tuple[str, str], dict[tuple[int, int], str]] = {}

    def record(name, run, fold, cells, errors):
        for code, (acc, t_train, t_test) in cells.items():
            matrix.cells[(name, code, run, fold)] = acc
            matrix.timings[(name, code, run, fold)] = (t_train, t_test)
        for code, error in errors.items():
            failed.setdefault((name, code), {})[(run, fold)] = error
        if progress is not None:
            progress(name, run, fold, errors)

    if parallelism == 1 or len(tasks) <= 1:
        for task in tasks:
            record(*_fold_task(task))
    else:
        workers = min(parallelism, len(tasks))
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(max(1, forest._cpus() // workers),))
        try:
            for fut in as_completed([pool.submit(_fold_task, t) for t in tasks]):
                record(*fut.result())
        finally:
            # a raising task or progress call drops the tasks not started
            pool.shutdown(cancel_futures=True)

    for key, by_fold in failed.items():
        matrix.errors[key] = by_fold[min(by_fold)]
    # a failed column drops the cells computed here, the ones with a timing
    for key in [k for k in matrix.timings if k[:2] in failed]:
        del matrix.cells[key], matrix.timings[key]
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


def _tie_term(values: Iterable[float]) -> int:
    """sum(t^3 - t) over the groups of t equal values: the tie term of
    Wilcoxon's normal approximation and of the Friedman correction."""
    return sum(t ** 3 - t for t in Counter(values).values())


# Midranks over <= 25 observations are multiples of 1/2, so doubling makes
# them integers and the null distribution can be enumerated exactly.
_EXACT_MAX_N = 25


@lru_cache(maxsize=256)
def _null_cdf(scaled: tuple[int, ...]) -> tuple[int, ...]:
    """For the doubled ranks ``scaled``, sorted: entry j counts the sign
    assignments whose doubled W+ is <= j.  A grid's tests repeat rank
    patterns: wine's 1058 exact tests over 47 codes hold 22 distinct ones
    at 5 runs and 460 at 25.

    The subset-sum counts are one int64 array (a count is at most 2^25,
    since exact tests take n <= 25), updated a doubled rank s at a time.
    The right-hand side is a new array, so each update reads the counts
    from before it, as a loop over j from the top down would; s >= 2, so
    ``counts[:-s]`` is never the empty ``counts[:-0]``.  On a 25-run wine
    matrix of 47 codes this took ``friedman_nemenyi`` from 461-617 ms
    (that loop in Python) to 57-88 ms (in process, 2-vCPU x86_64 VM).
    """
    counts = np.zeros(sum(scaled) + 1, dtype=np.int64)
    counts[0] = 1
    for s in scaled:
        counts[s:] = counts[s:] + counts[:-s]
    return tuple(np.cumsum(counts).tolist())


def _exact_two_sided_p(ranks: Sequence[float], w: float) -> float:
    cdf = _null_cdf(tuple(sorted(int(round(2.0 * r)) for r in ranks)))
    w2 = min(max(int(round(2.0 * w)), 0), len(cdf) - 1)
    p = 2.0 * cdf[w2] / (1 << len(ranks))
    return p if p < 1.0 else 1.0


def _approx_two_sided_p(ranks: Sequence[float], w: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - _tie_term(ranks) / 48.0
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


def critical_difference(k: int, n_blocks: int) -> float:
    """Nemenyi critical difference at alpha = 0.05, the only level the
    table holds, for k classifiers over n_blocks blocks."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    q = _NEMENYI_Q_05.get(k)
    if q is None:
        raise ValueError(f"no tabulated q value for k={k} (supported: 2..60)")
    return q * math.sqrt(k * (k + 1) / (6.0 * n_blocks))


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X >= x) of a chi-square variable with integer ``dof``.

    Closed form, with h = x/2: for even dof, exp(-h) * sum_{i<dof/2}
    h^i / i!; for odd dof, erfc(sqrt(h)) + exp(-h) * sum_{i=1}^{(dof-1)/2}
    h^(i-1/2) / Gamma(i+1/2).  Below the mean (x < dof) the tail is near
    1, where the rounding of that sum lets it rise with x by up to about
    1e-15; there it is 1 - P instead, with the lower tail P from its
    series exp(-h) h^a / Gamma(a+1) * sum_n h^n / ((a+1)...(a+n)),
    a = dof/2.  For dof <= 2 the closed form is one libm call and is kept
    everywhere.  For x above about 1416 exp(-h) is subnormal, so the
    tail (there below 1e-250 for dof < 60) loses relative precision and
    reaches 0.
    """
    h = x / 2.0
    if dof % 2:
        q, term, k = math.erfc(math.sqrt(h)), 2.0 * math.sqrt(h / math.pi), 1.5
    else:
        q, term, k = 0.0, 1.0, 1.0
    total = 0.0
    for _ in range(dof // 2):
        total += term
        term *= h / k
        k += 1.0
    if dof <= 2 or x >= dof:
        return q + math.exp(-h) * total
    # term is now h^a / Gamma(a+1) and k is a+1
    series = t = 1.0
    while t > series * 1e-17:
        t *= h / k
        k += 1.0
        series += t
    return 1.0 - math.exp(-h) * term * series


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
            tie_correction_sum += _tie_term(values)

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
        p = _chi2_sf(stat, k - 1)
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


def rank_complete(
    matrix: BenchmarkMatrix, alpha: float = 0.05
) -> tuple[list[str], StatReport | None, str | None]:
    """Rank statistics over the classifiers that ``matrix`` holds in full.

    Returns (ranked, stats, blocked).  ``ranked`` lists, in matrix order,
    the classifiers with every cell and no failed column.  ``stats`` is
    ``friedman_nemenyi`` over them alone, or None when they cannot be
    ranked; ``blocked`` then says why: fewer than 3 of them, more than the
    60 of the Nemenyi table, or fewer than 2 (dataset, run) blocks.
    """
    ranked = [c for c in matrix.classifiers
              if all((ds, c) not in matrix.errors and matrix.is_complete(ds, c)
                     for ds in matrix.datasets)]
    k, top = len(ranked), max(_NEMENYI_Q_05)
    blocks = len(matrix.datasets) * matrix.runs
    if k < 3:
        return ranked, None, f"need >= 3 complete classifiers, got {k}"
    if k > top:
        return ranked, None, (f"need <= {top} classifiers (Nemenyi table), "
                              f"got {k}")
    if blocks < 2:
        return ranked, None, f"need >= 2 blocks (datasets x runs), got {blocks}"
    stats = friedman_nemenyi(replace(matrix, classifiers=tuple(ranked)), alpha)
    return ranked, stats, None
