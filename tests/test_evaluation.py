"""Splits, metrics, the benchmark grid, and the rank statistics."""
from __future__ import annotations

import itertools
import math
import os
import pickle
import random
import sys
import threading
import time

import numpy as np
import pytest

from opfdist import (
    BenchmarkMatrix,
    accuracy,
    critical_difference,
    distances,
    evaluation,
    forest,
    friedman_nemenyi,
    make_splits,
    run_benchmark,
    summarize,
    wilcoxon_signed_rank,
)
from opfdist.errors import (
    EmptyInput,
    LengthMismatch,
    MissingCells,
    TooFewClassifiers,
    TooFewPairs,
    TooFewSamplesPerClass,
)

from conftest import exhaustive_signed_rank_p, make_dataset


def toy_dataset(name="toy", per_class=8, seed=5):
    rng = random.Random(seed)
    features, labels = [], []
    for cls, centre in enumerate(((0.0, 0.0), (4.0, 4.0))):
        for _ in range(per_class):
            features.append([centre[0] + rng.uniform(-1.0, 1.0),
                             centre[1] + rng.uniform(-1.0, 1.0)])
            labels.append(cls)
    return make_dataset(features, labels, name=name)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def test_splits_are_stratified_within_one_sample():
    ds = make_dataset(
        [[float(i)] for i in range(17)],
        [0] * 9 + [1] * 5 + [2] * 3,
        name="odd",
    )
    for plan in make_splits(ds, seed=3, runs=10):
        fold0 = set(plan.fold_indices(0))
        fold1 = set(plan.fold_indices(1))
        assert fold0 | fold1 == set(range(17))
        assert fold0.isdisjoint(fold1)
        for members in (range(0, 9), range(9, 14), range(14, 17)):
            c0 = sum(1 for i in members if i in fold0)
            c1 = sum(1 for i in members if i in fold1)
            assert abs(c0 - c1) <= 1
        assert abs(len(fold0) - len(fold1)) <= 1


def test_odd_classes_alternate_their_extra_sample():
    ds = make_dataset(
        [[float(i)] for i in range(6)],
        [0, 0, 0, 1, 1, 1],
        name="two-odd",
    )
    plan = make_splits(ds, seed=0, runs=1)[0]
    # first odd class tips fold 0, second tips fold 1: global sizes 3/3
    assert len(plan.fold_indices(0)) == 3
    assert len(plan.fold_indices(1)) == 3


def test_splits_deterministic_and_prefix_stable():
    ds = toy_dataset()
    a = make_splits(ds, seed=9, runs=6)
    b = make_splits(ds, seed=9, runs=6)
    prefix = make_splits(ds, seed=9, runs=3)
    assert [p.fold_assignment for p in a] == [p.fold_assignment for p in b]
    assert [p.fold_assignment for p in a[:3]] == \
        [p.fold_assignment for p in prefix]
    other_seed = make_splits(ds, seed=10, runs=3)
    assert any(
        p.fold_assignment != q.fold_assignment
        for p, q in zip(prefix, other_seed)
    )


def test_split_input_validation():
    ds = toy_dataset()
    with pytest.raises(ValueError):
        make_splits(ds, seed=0, runs=0)
    with pytest.raises(ValueError):
        make_splits(ds, seed=-1, runs=1)
    with pytest.raises(ValueError):
        make_splits(ds, seed=0, runs=1)[0].fold_indices(2)


def test_split_rejects_singleton_classes():
    ds = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1], name="thin")
    with pytest.raises(TooFewSamplesPerClass):
        make_splits(ds, seed=0, runs=1)


def test_wine_halves_are_89_89(wine_dataset):
    plan = make_splits(wine_dataset, seed=0, runs=1)[0]
    assert sorted(
        (len(plan.fold_indices(0)), len(plan.fold_indices(1)))) == [89, 89]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_accuracy_counts_agreements():
    assert accuracy([1, 0, 1, 1], [1, 1, 1, 0]) == 0.5
    assert accuracy([2], [2]) == 1.0


def test_accuracy_validation():
    with pytest.raises(LengthMismatch):
        accuracy([1], [1, 2])
    with pytest.raises(EmptyInput):
        accuracy([], [])


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank
# ---------------------------------------------------------------------------

def test_signed_rank_matches_exhaustive_enumeration():
    rng = random.Random(79)
    for trial in range(40):
        n = rng.randint(5, 12)
        a = [round(rng.uniform(0, 10), 1) for _ in range(n)]
        b = [round(rng.uniform(0, 10), 1) for _ in range(n)]
        if trial % 3 == 0 and n > 5:
            b[0] = a[0]  # force a zero difference
        if trial % 4 == 0:
            b[1] = a[1] - (a[0] - b[0])  # force a tied magnitude
        expected = exhaustive_signed_rank_p(
            [x - y for x, y in zip(a, b)])
        got = wilcoxon_signed_rank(a, b)
        if expected is None:
            assert got.p_value == 1.0 and got.statistic == 0.0
        else:
            assert abs(got.p_value - expected) <= 1e-12, (a, b)


def _loop_cdf(scaled):
    """The cumulative subset-sum counts over the doubled ranks ``scaled``,
    as a pure-Python loop over the counts from the top down."""
    total = sum(scaled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for s in scaled:
        for j in range(total, s - 1, -1):
            counts[j] += counts[j - s]
    return tuple(itertools.accumulate(counts))


def _dp_two_sided_p(ranks, w):
    """The exact p of the subset-sum DP over doubled ranks, run afresh."""
    cdf = _loop_cdf([int(round(2.0 * r)) for r in ranks])
    w2 = min(max(int(round(2.0 * w)), 0), len(cdf) - 1)
    p = 2.0 * cdf[w2] / (1 << len(ranks))
    return p if p < 1.0 else 1.0


def test_exact_p_memo_equals_the_dp_on_tied_rank_patterns():
    rng = random.Random(1081)
    evaluation._null_cdf.cache_clear()
    for _ in range(300):
        n = rng.randint(1, 25)
        # magnitudes from a few levels, so most patterns hold ties
        values = [rng.randint(1, rng.randint(1, n)) for _ in range(n)]
        ranks = evaluation._midranks(values)
        total = sum(ranks)
        shuffled = rng.sample(ranks, n)
        # the numpy DP's counts are the loop's, as Python ints
        scaled = tuple(sorted(int(round(2.0 * r)) for r in ranks))
        cdf = evaluation._null_cdf(scaled)
        assert cdf == _loop_cdf(scaled), ranks
        assert {type(c) for c in cdf} == {int}
        for w in (-1.0, 0.0, rng.randint(0, int(2 * total)) / 2.0,
                  total / 2.0, total, total + 3.0):
            want = _dp_two_sided_p(ranks, w)
            assert evaluation._exact_two_sided_p(ranks, w) == want, (ranks, w)
            # the memo is keyed by the sorted pattern, not the rank order
            assert evaluation._exact_two_sided_p(shuffled, w) == want
    assert evaluation._null_cdf.cache_info().hits > 0


def test_signed_rank_single_positive_rank_eight_of_ten():
    # Nine negative differences with magnitude ranks {1..10}\{8} and one
    # positive difference at rank 8: the enumerated two-sided p is
    # 2 * 25 / 1024.
    a = [float(i) for i in range(1, 11)]
    b = [a[i] + (i + 1) for i in range(10)]
    b[7] = a[7] - 8.0
    res = wilcoxon_signed_rank(a, b)
    assert res.statistic == 8.0
    assert res.p_value == 0.048828125
    assert res.reject is True


def test_signed_rank_matches_scipy_exact_on_tie_free_data():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randint(6, 25)
        while True:
            diffs = [rng.randint(1, 60) * (1 if rng.random() < 0.5 else -1)
                     for _ in range(n)]
            if len({abs(d) for d in diffs}) == n:
                break
        a = [float(d) for d in diffs]
        b = [0.0] * n
        ours = wilcoxon_signed_rank(a, b)
        ref = scipy_stats.wilcoxon(a, b, alternative="two-sided",
                                   method="exact")
        assert abs(ours.p_value - float(ref.pvalue)) <= 1e-12
        assert ours.statistic == float(ref.statistic)


def test_signed_rank_all_zero_differences():
    res = wilcoxon_signed_rank([1.0] * 6, [1.0] * 6)
    assert res == wilcoxon_signed_rank([2.0] * 6, [2.0] * 6)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.reject is False


def test_signed_rank_validation():
    with pytest.raises(TooFewPairs):
        wilcoxon_signed_rank([1.0] * 4, [2.0] * 4)
    with pytest.raises(LengthMismatch):
        wilcoxon_signed_rank([1.0] * 6, [2.0] * 5)
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0] * 6, [2.0] * 6, alpha=0.0)
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0] * 6, [2.0] * 6, alpha=1.0)


def test_signed_rank_large_sample_uses_normal_tail():
    rng = random.Random(89)
    n = 40
    a = [rng.uniform(0, 1) for _ in range(n)]
    b = [x + rng.uniform(-0.5, 1.0) for x in a]
    res = wilcoxon_signed_rank(a, b)
    assert 0.0 < res.p_value <= 1.0
    assert res.reject == (res.p_value < 0.05)
    # statistic is still the smaller rank sum
    diffs = [x - y for x, y in zip(a, b)]
    from conftest import midranks
    ranks = midranks([abs(d) for d in diffs if d != 0.0])
    nz = [d for d in diffs if d != 0.0]
    wp = sum(r for d, r in zip(nz, ranks) if d > 0)
    wm = sum(ranks) - wp
    assert res.statistic == min(wp, wm)


# ---------------------------------------------------------------------------
# Critical difference
# ---------------------------------------------------------------------------

def test_critical_difference_hand_formula():
    expected = 2.343701 * math.sqrt(3 * 4 / (6.0 * 10))
    assert abs(critical_difference(3, 10) - expected) <= 1e-12


def test_critical_difference_two_classifiers_uses_normal_quantile():
    expected = 1.959964 * math.sqrt(2 * 3 / (6.0 * 20))
    assert abs(critical_difference(2, 20) - expected) <= 1e-12


def test_critical_difference_validation():
    with pytest.raises(ValueError):
        critical_difference(1, 10)
    with pytest.raises(ValueError):
        critical_difference(61, 10)
    with pytest.raises(ValueError):
        critical_difference(3, 0)


def test_critical_difference_covers_full_table_range():
    for k in range(2, 61):
        assert critical_difference(k, 25) > 0.0


# ---------------------------------------------------------------------------
# Friedman + Nemenyi
# ---------------------------------------------------------------------------

def grid_matrix(values):
    """values[ds][cls][run] -> BenchmarkMatrix with both folds equal."""
    datasets = tuple(sorted(values))
    classifiers = tuple(sorted(next(iter(values.values()))))
    runs = len(values[datasets[0]][classifiers[0]])
    cells = {}
    for ds in datasets:
        for c in classifiers:
            for r, v in enumerate(values[ds][c]):
                cells[(ds, c, r, 0)] = v
                cells[(ds, c, r, 1)] = v
    return BenchmarkMatrix(datasets, classifiers, runs, cells)


def test_mean_ranks_sum_to_arithmetic_series():
    rng = random.Random(97)
    values = {
        ds: {c: [rng.random() for _ in range(4)] for c in "ABCD"}
        for ds in ("d1", "d2", "d3")
    }
    stats = friedman_nemenyi(grid_matrix(values))
    k = 4
    assert abs(sum(stats.friedman.mean_ranks.values())
               - k * (k + 1) / 2) <= 1e-9
    assert stats.friedman.n_blocks == 12


def test_fully_tied_grid_gives_zero_statistic():
    values = {
        "d": {c: [0.5] * 5 for c in "ABC"},
    }
    stats = friedman_nemenyi(grid_matrix(values))
    assert stats.friedman.statistic == 0.0
    assert stats.friedman.p_value == 1.0
    assert stats.nemenyi.significant_pairs == ()


def test_friedman_matches_scipy_on_untied_data():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(101)
    while True:
        values = {
            ds: {c: [rng.random() for _ in range(3)] for c in "ABCDE"}
            for ds in ("d1", "d2")
        }
        flat = [v for per in values.values()
                for vs in per.values() for v in vs]
        if len(set(flat)) == len(flat):
            break
    stats = friedman_nemenyi(grid_matrix(values))
    blocks = []
    m = grid_matrix(values)
    for ds in m.datasets:
        for r in range(m.runs):
            blocks.append([values[ds][c][r] for c in m.classifiers])
    ref = scipy_stats.friedmanchisquare(
        *[[row[i] for row in blocks] for i in range(5)])
    assert abs(stats.friedman.statistic - float(ref.statistic)) <= 1e-9
    assert abs(stats.friedman.p_value - float(ref.pvalue)) <= 1e-9


# x from 1e-12 to 31623: where the tail is near 1, around the mean, far
# out, and past the point (x ~ 1416) where exp(-x/2) turns subnormal
CHI2_XS = sorted({0.0, *(1e-12 * 10 ** (i / 60) for i in range(991)),
                  *(i / 4 for i in range(1 + 300 * 4))})


def test_chi2_tail_closed_forms():
    for dof in range(1, 60):
        assert evaluation._chi2_sf(0.0, dof) == 1.0
    for x in CHI2_XS:
        assert evaluation._chi2_sf(x, 2) == math.exp(-x / 2)
        assert evaluation._chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))


def test_chi2_tail_does_not_increase_with_x():
    # neighbouring grid points are far apart next to rounding error; x
    # values a few ulps apart can read a few ulps out of order, as they
    # also do in scipy's chi2.sf
    for dof in range(1, 60):
        tail = [evaluation._chi2_sf(x, dof) for x in CHI2_XS]
        assert all(b <= a for a, b in zip(tail, tail[1:])), dof
        assert tail[0] == 1.0 and tail[-1] >= 0.0


def test_chi2_tail_matches_scipy():
    chi2 = pytest.importorskip("scipy.stats").chi2
    for dof in range(1, 60):
        for x, ref in zip(CHI2_XS, chi2.sf(CHI2_XS, dof)):
            got = evaluation._chi2_sf(x, dof)
            assert abs(got - ref) <= 1e-12, (dof, x)
            if ref > 1e-250:
                assert abs(got - ref) <= 1e-12 * ref, (dof, x)


def test_clearly_ordered_classifiers_are_flagged_by_nemenyi():
    runs = 12
    values = {
        ds: {
            "A": [0.9 + 0.001 * r for r in range(runs)],
            "B": [0.5 + 0.001 * r for r in range(runs)],
            "C": [0.1 + 0.001 * r for r in range(runs)],
        }
        for ds in ("d1", "d2")
    }
    stats = friedman_nemenyi(grid_matrix(values))
    assert stats.friedman.mean_ranks["A"] == 3.0
    assert stats.friedman.mean_ranks["C"] == 1.0
    assert ("A", "C") in stats.nemenyi.significant_pairs
    cd = critical_difference(3, 24)
    assert stats.nemenyi.critical_difference == cd
    for a, b in stats.nemenyi.significant_pairs:
        gap = abs(stats.friedman.mean_ranks[a] - stats.friedman.mean_ranks[b])
        assert gap >= cd
    # Wilcoxon grid covers every dataset and unordered pair
    assert set(stats.wilcoxon) == {
        (ds, a, b)
        for ds in ("d1", "d2")
        for a, b in (("A", "B"), ("A", "C"), ("B", "C"))
    }
    assert stats.wilcoxon[("d1", "A", "C")].reject is True


def test_wilcoxon_grid_absent_below_five_runs():
    rng = random.Random(103)
    values = {
        "d": {c: [rng.random() for _ in range(4)] for c in "ABC"},
    }
    stats = friedman_nemenyi(grid_matrix(values))
    assert stats.wilcoxon == {}


def test_rank_statistics_validation():
    rng = random.Random(107)
    two = {
        "d": {c: [rng.random() for _ in range(5)] for c in "AB"},
    }
    with pytest.raises(TooFewClassifiers):
        friedman_nemenyi(grid_matrix(two))
    three = {
        "d": {c: [rng.random()] for c in "ABC"},
    }
    with pytest.raises(ValueError):
        friedman_nemenyi(grid_matrix(three))  # a single block
    incomplete = grid_matrix(
        {"d": {c: [rng.random() for _ in range(5)] for c in "ABC"}})
    del incomplete.cells[("d", "B", 3, 1)]
    with pytest.raises(MissingCells):
        friedman_nemenyi(incomplete)
    with pytest.raises(ValueError):
        friedman_nemenyi(
            grid_matrix({"d": {c: [0.1, 0.2] for c in "ABC"}}), alpha=1.5)


def test_rank_complete_leaves_out_failed_and_incomplete_classifiers():
    rng = random.Random(109)
    values = {ds: {c: [rng.random() for _ in range(5)] for c in "ABCDE"}
              for ds in ("d1", "d2")}
    matrix = grid_matrix(values)
    for key in [k for k in matrix.cells if k[:2] == ("d2", "B")]:
        del matrix.cells[key]
    matrix.errors[("d2", "B")] = "SomeError: boom"
    del matrix.cells[("d1", "D", 4, 1)]
    ranked, stats, blocked = evaluation.rank_complete(matrix, 0.1)
    assert ranked == ["A", "C", "E"] and blocked is None
    hand = BenchmarkMatrix(
        ("d1", "d2"), ("A", "C", "E"), 5,
        {k: v for k, v in matrix.cells.items() if k[1] in "ACE"})
    assert stats == friedman_nemenyi(hand, 0.1)
    # a failed column is left out even when every cell stands
    matrix = grid_matrix(values)
    matrix.errors[("d1", "C")] = "SomeError: boom"
    assert evaluation.rank_complete(matrix)[0] == ["A", "B", "D", "E"]


def test_rank_complete_says_why_it_cannot_rank():
    rng = random.Random(113)

    def refusal(classifiers, runs):
        matrix = grid_matrix({"d": {c: [rng.random() for _ in range(runs)]
                                    for c in classifiers}})
        ranked, stats, blocked = evaluation.rank_complete(matrix)
        assert ranked == sorted(classifiers) and stats is None
        return blocked

    assert refusal(["A", "B"], 5) == "need >= 3 complete classifiers, got 2"
    assert refusal([f"C{i:02d}" for i in range(61)], 2) == (
        "need <= 60 classifiers (Nemenyi table), got 61")
    assert refusal(["A", "B", "C"], 1) == (
        "need >= 2 blocks (datasets x runs), got 1")
    # the classifier count is checked first
    assert refusal(["A", "B"], 1) == "need >= 3 complete classifiers, got 2"


# ---------------------------------------------------------------------------
# Benchmark grid
# ---------------------------------------------------------------------------

def test_benchmark_grid_is_complete_and_bounded():
    datasets = [toy_dataset("t1", seed=5), toy_dataset("t2", seed=6)]
    matrix = run_benchmark(datasets, ["D3", "D6", "D7"], seed=1, runs=3)
    assert matrix.datasets == ("t1", "t2")
    assert matrix.classifiers == ("D3", "D6", "D7")
    assert not matrix.errors
    for ds in matrix.datasets:
        for c in matrix.classifiers:
            assert matrix.is_complete(ds, c)
            for v in matrix.run_values(ds, c):
                assert 0.0 <= v <= 1.0
    assert len(matrix.cells) == 2 * 3 * 3 * 2
    assert set(matrix.timings) == set(matrix.cells)


def test_benchmark_results_do_not_depend_on_parallelism():
    datasets = [toy_dataset("t1", seed=5), toy_dataset("t2", seed=6)]
    serial = run_benchmark(datasets, ["D3", "D7"], seed=2, runs=2)
    parallel = run_benchmark(datasets, ["D3", "D7"], seed=2, runs=2,
                             parallelism=3)
    assert serial.cells == parallel.cells

    # seeding half the cells computes only the other half, to the same
    # bits, and the seeded cells keep their seconds
    half = {k: (serial.cells[k], *serial.timings[k])
            for k in sorted(serial.cells)[3:11]}
    seen = []
    resumed = run_benchmark(
        datasets, ["D3", "D7"], seed=2, runs=2, parallelism=3, done=half,
        progress=lambda name, run, fold, cells, errors: seen.extend(
            (name, code, run, fold, *record) for code, record in cells.items()))
    assert resumed.cells == serial.cells
    assert set(resumed.timings) == set(serial.cells)
    assert {k: resumed.timings[k] for k in half} == \
        {k: serial.timings[k] for k in half}
    # progress sees each computed cell once, with the matrix's record
    assert sorted(row[:4] for row in seen) == \
        sorted(set(serial.cells) - set(half))
    for *key, acc, t_train, t_test in seen:
        key = tuple(key)
        assert (acc, (t_train, t_test)) == (resumed.cells[key],
                                            resumed.timings[key])
    with pytest.raises(ValueError):
        run_benchmark(datasets, ["D3", "D7"], seed=2, runs=2,
                      done={("t1", "D3", 2, 0): (0.5, 0.0, 0.0)})


def test_grid_workers_after_threads_in_the_parent_give_the_same_cells(
        monkeypatch):
    datasets = [toy_dataset("t1", seed=5), toy_dataset("t2", seed=6)]
    codes = ["D3", "D7", "D33"]
    monkeypatch.setattr(forest, "_THREADS", 1)
    serial = run_benchmark(datasets, codes, seed=2, runs=2)
    # the parent first fits and tests on three threads (8 x 8 folds in
    # blocks of 16 entries), and joins them; then the workers fork from it
    monkeypatch.setattr(forest, "_BLOCK_ENTRIES", 16)
    monkeypatch.setattr(forest, "_THREADS", 3)
    before = threading.active_count()
    threaded = run_benchmark(datasets, codes, seed=2, runs=2)
    assert threading.active_count() == before
    parallel = run_benchmark(datasets, codes, seed=2, runs=2, parallelism=2)
    assert not serial.errors and not threaded.errors and not parallel.errors
    assert threaded.cells == serial.cells
    assert parallel.cells == serial.cells


def test_grid_workers_split_the_cpus_between_them(monkeypatch):
    pools = []
    real = evaluation.ProcessPoolExecutor

    class Spy(real):
        def __init__(self, max_workers, **kwargs):
            pools.append((max_workers, kwargs["initargs"]))
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)),
                        raising=False)
    ds = toy_dataset("t1", seed=5)
    # two runs make four tasks: at most four workers
    for parallelism in (2, 3, 8):
        run_benchmark([ds], ["D3"], seed=1, runs=2, parallelism=parallelism)
    assert pools == [(2, (2,)), (3, (1,)), (4, (1,))]
    # a worker's initializer sets its threads
    monkeypatch.setattr(forest, "_THREADS", 5)
    evaluation._init_worker(2)
    assert forest._THREADS == 2


# where _slow_logged_task notes each run; set before the workers fork
_TASK_LOG = None
_FOLD_TASK = evaluation._fold_task


def _slow_logged_task(task):
    # a fold task that takes 0.1 s and appends one byte to _TASK_LOG
    with open(_TASK_LOG, "ab") as log:
        log.write(b".")
    time.sleep(0.1)
    return _FOLD_TASK(task)


def test_a_raising_progress_call_drops_the_queued_grid_tasks(
        monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "_TASK_LOG",
                        tmp_path / "ran")
    monkeypatch.setattr(evaluation, "_fold_task", _slow_logged_task)

    def progress(name, run, fold, cells, errors):
        raise BrokenPipeError  # as printing to a closed pipe does

    # 12 runs make 24 tasks; after the first result only the tasks
    # already handed to the 2 workers (2 running and 3 queued) still run
    with pytest.raises(BrokenPipeError):
        run_benchmark([toy_dataset()], ["D3"], seed=1, runs=12,
                      parallelism=2, progress=progress)
    assert (tmp_path / "ran").stat().st_size <= 12


def test_benchmark_records_per_column_failures():
    bad = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 1],
                       name="thin")
    good = toy_dataset("ok")
    matrix = run_benchmark([bad, good], ["D3", "D6"], seed=0, runs=2)
    assert set(matrix.errors) == {("thin", "D3"), ("thin", "D6")}
    for msg in matrix.errors.values():
        assert "TooFewSamplesPerClass" in msg
    assert matrix.is_complete("ok", "D3")
    assert not matrix.is_complete("thin", "D3")
    with pytest.raises(MissingCells):
        matrix.run_values("thin", "D3")


def test_benchmark_input_validation():
    ds = toy_dataset()
    with pytest.raises(ValueError):
        run_benchmark([ds], ["D3"], seed=0, runs=0)
    with pytest.raises(ValueError):
        run_benchmark([ds], ["D3"], seed=0, runs=1, parallelism=0)
    with pytest.raises(ValueError):
        run_benchmark([ds, ds], ["D3"], seed=0, runs=1)
    with pytest.raises(ValueError):
        run_benchmark([ds], ["D3", "D3"], seed=0, runs=1)
    with pytest.raises(EmptyInput):
        run_benchmark([], [], seed=0, runs=1)
    with pytest.raises(KeyError):
        run_benchmark([ds], ["D99"], seed=0, runs=1)


def test_a_code_failing_on_some_folds_fails_its_whole_column(monkeypatch):
    datasets = [toy_dataset("t1", seed=5), toy_dataset("t2", seed=6)]
    codes = ["D3", "D6", "D7"]
    # t1's training halves, by (run, test fold); features are not
    # normalized, so the graph's samples identify the fold
    fold_of = {
        frozenset(datasets[0].samples[i].features
                  for i in plan.fold_indices(1 - f)): (plan.run_index, f)
        for plan in make_splits(datasets[0], seed=2, runs=3) for f in (0, 1)}
    blocks = distances._BLOCKS[distances.KERNELS]
    d6 = blocks["D6"]

    def flaky_block(A, B):
        key = fold_of.get(frozenset(map(tuple, A.tolist())))
        if key in {(1, 1), (2, 0)}:
            raise RuntimeError(f"boom at run {key[0]} fold {key[1]}")
        return d6(A, B)

    # D6's kernel, in a shared fill or alone: these 8-row training halves
    # fill in one block of full rows.  The pool's workers are forked, so
    # they inherit the patch.
    monkeypatch.setitem(blocks, "D6", flaky_block)
    serial = run_benchmark(datasets, codes, seed=2, runs=3)
    parallel = run_benchmark(datasets, codes, seed=2, runs=3, parallelism=3)

    assert serial.errors == {("t1", "D6"): "RuntimeError: boom at run 1 fold 1"}
    assert not [k for k in serial.cells if k[:2] == ("t1", "D6")]
    assert not [k for k in serial.timings if k[:2] == ("t1", "D6")]
    for ds in ("t1", "t2"):
        for c in codes:
            assert serial.is_complete(ds, c) == ((ds, c) != ("t1", "D6"))
    assert len(serial.cells) == 5 * 3 * 2
    assert parallel.cells == serial.cells
    assert parallel.errors == serial.errors


def test_a_failed_column_drops_its_adopted_cells_too(monkeypatch):
    datasets = [toy_dataset("t")]
    real = evaluation.forest.fit_and_label

    def d5_raises(features, labels, measures, queries):
        if "D5" in measures:
            raise RuntimeError("boom")
        return real(features, labels, measures, queries)

    monkeypatch.setattr(evaluation.forest, "fit_and_label", d5_raises)
    # D5's first cell and D3's are adopted; the rest of both are computed
    done = {("t", "D5", 0, 0): (0.5, 0.0, 0.0),
            ("t", "D3", 0, 0): (0.75, 0.0, 0.0)}
    matrix = run_benchmark(datasets, ["D3", "D5"], seed=0, runs=2,
                           done=done)
    assert matrix.errors == {("t", "D5"): "RuntimeError: boom"}
    assert not [k for k in matrix.cells if k[1] == "D5"]
    assert not [k for k in matrix.timings if k[1] == "D5"]
    assert matrix.cells[("t", "D3", 0, 0)] == 0.75
    assert matrix.is_complete("t", "D3")
    assert not [row for row in matrix.to_rows() if row[1] == "D5"]


def test_a_code_raising_in_the_shared_test_fails_alone(monkeypatch):
    datasets = [toy_dataset("t1", seed=5)]
    codes = ["D3", "D7", "D28", "D35"]
    clean = run_benchmark(datasets, codes, seed=2, runs=2)
    blocks = distances._BLOCKS[distances.KERNELS]
    d7 = blocks["D7"]
    calls = []

    def test_only_block(A, B):
        # an 8-row training half fills in one block of full rows, so
        # A equals B; a test rectangle pairs it with the test half
        calls.append(np.array_equal(A, B))
        if not calls[-1]:
            raise RuntimeError("boom in test")
        return d7(A, B)

    monkeypatch.setitem(blocks, "D7", test_only_block)
    tested = []
    real = evaluation.forest.fit_and_label

    def spy(features, labels, measures, queries):
        tested.append(len(measures))
        return real(features, labels, measures, queries)

    monkeypatch.setattr(evaluation.forest, "fit_and_label", spy)
    got = run_benchmark(datasets, codes, seed=2, runs=2)
    # the shared test of each fold raised, and each code was then fitted
    # and tested alone
    assert tested == [4, 1, 1, 1, 1] * 4
    assert calls.count(False) == 4 * 2
    assert got.errors == {("t1", "D7"): "RuntimeError: boom in test"}
    assert got.cells == {k: v for k, v in clean.cells.items() if k[1] != "D7"}


def test_grid_tasks_build_and_carry_no_sample_rows(monkeypatch):
    ds = toy_dataset("t1", seed=5)
    blobs = []
    real = evaluation._fold_task

    def pickling_task(task):
        # a fold task as a worker process receives it
        blobs.append(pickle.dumps(task))
        return real(task)

    monkeypatch.setattr(evaluation, "_fold_task", pickling_task)
    run_benchmark([ds], ["D3", "D7"], seed=1, runs=2,
                  normalization="min_max_01")
    assert "samples" not in ds.__dict__
    # the Sample rows are a view, built on request and left out of a
    # pickled task
    assert ds.samples[3].features == tuple(ds.features[3].tolist())
    run_benchmark([ds], ["D3", "D7"], seed=1, runs=2,
                  normalization="min_max_01")
    assert len(blobs) == 2 * 2 * 2
    assert all(b"Sample" not in blob for blob in blobs)
    sent = pickle.loads(blobs[-1])[0]
    assert sent == ds and "samples" not in sent.__dict__
    assert not sent.features.flags.writeable


def test_serial_grid_normalizes_once_per_fold(monkeypatch):
    datasets = [toy_dataset("t1", seed=5), toy_dataset("t2", seed=6)]
    calls = []
    real_fit = evaluation.fit_normalization

    def counting_fit(train, mode):
        calls.append(mode)
        return real_fit(train, mode)

    monkeypatch.setattr(evaluation, "fit_normalization", counting_fit)
    for codes in (["D3"], ["D3", "D6", "D7"]):
        calls.clear()
        run_benchmark(datasets, codes, seed=1, runs=3,
                      normalization="min_max_01")
        assert calls == ["min_max_01"] * (2 * 3 * 2)


def test_summarize_means_and_sample_std():
    values = {
        "d": {"A": [0.5, 0.7], "B": [1.0, 1.0], "C": [0.0, 0.5]},
    }
    matrix = grid_matrix(values)
    summary = summarize(matrix)
    mean, std = summary[("d", "A")]
    assert mean == pytest.approx(0.6)
    assert std == pytest.approx(math.sqrt(0.02), rel=1e-12)
    assert summary[("d", "B")] == (1.0, 0.0)


def test_summarize_skips_errored_columns_and_rejects_empty():
    matrix = BenchmarkMatrix(("d",), ("A",), 1)
    with pytest.raises(EmptyInput):
        summarize(matrix)
    matrix.errors[("d", "A")] = "boom"
    assert summarize(matrix) == {}


def test_matrix_round_trip_through_rows():
    values = {
        "d1": {"A": [0.5, 0.75], "B": [0.25, 1.0]},
        "d2": {"A": [0.125, 0.5], "B": [0.0, 0.375]},
    }
    matrix = grid_matrix(values)
    rebuilt = BenchmarkMatrix.from_rows(matrix.to_rows())
    assert rebuilt.cells == matrix.cells
    assert rebuilt.datasets == matrix.datasets
    assert rebuilt.classifiers == matrix.classifiers
    assert rebuilt.runs == matrix.runs


def test_matrix_from_rows_rejects_conflicting_duplicates():
    rows = [("d", "A", 0, 0, 0.5), ("d", "A", 0, 0, 0.6)]
    with pytest.raises(ValueError):
        BenchmarkMatrix.from_rows(rows)
    # identical duplicates collapse silently
    same = BenchmarkMatrix.from_rows(
        [("d", "A", 0, 0, 0.5), ("d", "A", 0, 0, 0.5)])
    assert same.cells == {("d", "A", 0, 0): 0.5}
