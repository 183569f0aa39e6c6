"""Package gate checks.

Each check prints exactly one PASS/FAIL/SKIP line (visible in the live
pytest output) and then asserts, so the verdict is readable even inside a
long test run.  Tolerances are pinned here and nowhere else.
"""
from __future__ import annotations

import math
import random
import shutil
import time
from pathlib import Path

import pytest

from opfdist import (
    ASYMMETRIC_CODES,
    classify,
    classify_batch,
    critical_difference,
    distance_function,
    evaluate,
    friedman_nemenyi,
    graph_from_arrays,
    registry,
    run_benchmark,
    summarize,
    train,
    wilcoxon_signed_rank,
)
from opfdist.cli import main as cli_main
from opfdist.evaluation import BenchmarkMatrix

from conftest import (
    class_separation_holds,
    exhaustive_signed_rank_p,
    midranks,
    oracle_costs,
    pairwise_matrix,
    random_graph_spec,
    separated_dataset,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
ALL_CODES = [d.code for d in registry()]

REPORT_FILES = ("summary.csv", "summary_raw.csv", "wilcoxon.csv", "rank.csv",
                "cells.csv", "failures.csv", "manifest.txt")


def _line(capsys, criterion: str, status: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance criterion {criterion}: {status} ({detail})")


@pytest.fixture(scope="session")
def graph_corpus():
    """500 random training graphs shared by the first two checks."""
    rng = random.Random(424242)
    return [random_graph_spec(rng) for _ in range(500)]


# ---------------------------------------------------------------------------
# 1. training cost maps equal the brute-force bottleneck oracle exactly
# ---------------------------------------------------------------------------

def test_criterion_1_cost_map_equals_bottleneck_oracle(graph_corpus, capsys):
    t0 = time.perf_counter()
    combos = 0
    mismatches = 0
    first_bad = None
    for g_index, (features, labels) in enumerate(graph_corpus):
        for code in ALL_CODES:
            forest = train(graph_from_arrays(features, labels, code))
            matrix = pairwise_matrix(features, distance_function(code))
            expected = oracle_costs(matrix, sorted(forest.prototypes))
            combos += 1
            if list(forest.cost) != expected:
                mismatches += 1
                if first_bad is None:
                    first_bad = (g_index, code)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    _line(capsys, "1", "PASS" if ok else "FAIL",
          f"{combos - mismatches}/{combos} cost maps exactly equal the "
          f"minimax-path oracle across {len(graph_corpus)} graphs x "
          f"{len(ALL_CODES)} distances in {elapsed:.1f}s")
    assert ok, f"first mismatch at graph {first_bad}"


# ---------------------------------------------------------------------------
# 2. early-exit classification equals the full scan
# ---------------------------------------------------------------------------

def test_criterion_2_early_exit_scan_equivalence(graph_corpus, capsys):
    rng = random.Random(515151)
    target = 10_000
    queries = 0
    disagreements = 0
    t0 = time.perf_counter()
    while queries < target:
        features, labels = graph_corpus[rng.randrange(len(graph_corpus))]
        code = ALL_CODES[rng.randrange(len(ALL_CODES))]
        forest = train(graph_from_arrays(features, labels, code))
        for _ in range(5):
            q = [rng.random() for _ in range(len(features[0]))]
            fast = classify(forest, q, early_exit=True)
            slow = classify(forest, q, early_exit=False)
            if fast != slow:
                disagreements += 1
            queries += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0
    _line(capsys, "2", "PASS" if ok else "FAIL",
          f"{queries - disagreements}/{queries} random queries identical in "
          f"cost, label and conqueror in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. zero training error on class-separated data
# ---------------------------------------------------------------------------

def test_criterion_3_zero_training_error_when_classes_separate(capsys):
    rng = random.Random(616161)
    features, labels = separated_dataset(rng)
    identity_codes = [d.code for d in registry() if d.satisfies_identity]

    premise_failed = []
    wrong = []
    verified = 0
    for code in identity_codes:
        kernel = distance_function(code)
        if not class_separation_holds(features, labels, kernel,
                                      code in ASYMMETRIC_CODES):
            # sign-flipping form: no dataset can put every inter-class
            # value above every intra-class value, so the premise is void
            premise_failed.append(code)
            continue
        forest = train(graph_from_arrays(features, labels, code))
        got = [p.label for p in classify_batch(forest, features)]
        if got != labels:
            wrong.append(code)
        verified += 1

    ok = (not wrong
          and set(premise_failed) <= {"D33", "D47"}
          and verified >= len(identity_codes) - 2)
    _line(capsys, "3", "PASS" if ok else "FAIL",
          f"self-classification exact for {verified} identity-satisfying "
          f"distances; separation premise void for "
          f"{sorted(premise_failed) or 'none'}")
    assert ok, (wrong, premise_failed)


# ---------------------------------------------------------------------------
# 4. internal formula identities + registry completeness
# ---------------------------------------------------------------------------

def test_criterion_4_internal_identities(capsys):
    rng = random.Random(717171)
    d3 = distance_function("D3")
    d32 = distance_function("D32")
    d6 = distance_function("D6")
    d12 = distance_function("D12")

    def rel_close(a, b):
        return a == b or abs(a - b) <= 1e-9 * max(abs(a), abs(b))

    bad = 0
    pairs = 10_000
    for _ in range(pairs):
        dim = rng.randint(1, 8)
        x = tuple(rng.uniform(-100.0, 100.0) for _ in range(dim))
        y = tuple(rng.uniform(-100.0, 100.0) for _ in range(dim))
        if not rel_close(d32(x, y), d3(x, y) ** 2):
            bad += 1
        if not rel_close(d12(x, y), 0.5 * d6(x, y)):
            bad += 1
    registry_ok = len(registry()) == 47
    ok = bad == 0 and registry_ok
    _line(capsys, "4", "PASS" if ok else "FAIL",
          f"square and half relations hold on {pairs} random pairs within "
          f"1e-9 relative; registry size {len(registry())}")
    assert ok


# ---------------------------------------------------------------------------
# 5. exact signed-rank p-values
# ---------------------------------------------------------------------------

def test_criterion_5_signed_rank_exactness(capsys):
    rng = random.Random(818181)
    worst = 0.0
    cases = 0
    for n in range(5, 13):
        for trial in range(25):
            diffs = [round(rng.uniform(-5, 5), 1) for _ in range(n)]
            if trial % 3 == 0:
                diffs[0] = 0.0
            if trial % 4 == 0:
                diffs[1] = -diffs[2]  # tied magnitudes, opposite signs
            expected = exhaustive_signed_rank_p(diffs)
            got = wilcoxon_signed_rank(diffs, [0.0] * n)
            if expected is None:
                err = abs(got.p_value - 1.0)
            else:
                err = abs(got.p_value - expected)
            worst = max(worst, err)
            cases += 1

    pinned = wilcoxon_signed_rank(
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -8.0, 9.0, 10.0],
        [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, -16.0, 18.0, 20.0])
    # nine negative differences, one positive at magnitude rank 8
    pin_ok = (pinned.statistic == 8.0
              and abs(pinned.p_value - 0.048828125) <= 1e-12)

    ok = worst <= 1e-12 and pin_ok
    _line(capsys, "5", "PASS" if ok else "FAIL",
          f"{cases} enumerated cases for n=5..12, worst |dp|={worst:.2e}; "
          f"single-positive-rank-8 case p={pinned.p_value!r}")
    assert ok


# ---------------------------------------------------------------------------
# 6. rank-test arithmetic sanity
# ---------------------------------------------------------------------------

def test_criterion_6_rank_and_critical_difference_sanity(capsys):
    rng = random.Random(919191)

    # per-block ranks are a partition of 1..k: their sum is k(k+1)/2
    block_sums_ok = True
    mean_rank_ok = True
    for k, runs in ((3, 4), (5, 3), (7, 2)):
        classifiers = [f"D{i + 1}" for i in range(k)]
        values = {
            "d": {c: [rng.random() for _ in range(runs)]
                  for c in classifiers},
        }
        cells = {}
        for c in classifiers:
            for r, v in enumerate(values["d"][c]):
                cells[("d", c, r, 0)] = v
                cells[("d", c, r, 1)] = v
        matrix = BenchmarkMatrix(("d",), tuple(classifiers), runs, cells)
        for r in range(runs):
            ranks = midranks([values["d"][c][r] for c in classifiers])
            if abs(sum(ranks) - k * (k + 1) / 2) > 1e-12:
                block_sums_ok = False
        stats = friedman_nemenyi(matrix)
        if abs(sum(stats.friedman.mean_ranks.values())
               - k * (k + 1) / 2) > 1e-12:
            mean_rank_ok = False

    tied = {("d", c, r, f): 0.5 for c in ("D1", "D2", "D3")
            for r in range(3) for f in (0, 1)}
    tied_stats = friedman_nemenyi(
        BenchmarkMatrix(("d",), ("D1", "D2", "D3"), 3, tied))
    tied_ok = (tied_stats.friedman.statistic == 0.0
               and tied_stats.friedman.p_value == 1.0)

    cd_expected = 2.343701 * math.sqrt(3 * 4 / (6.0 * 10))
    cd_ok = abs(critical_difference(3, 10) - cd_expected) <= 1e-12

    ok = block_sums_ok and mean_rank_ok and tied_ok and cd_ok
    _line(capsys, "6", "PASS" if ok else "FAIL",
          f"block rank sums k(k+1)/2: {block_sums_ok}; tied grid statistic "
          f"{tied_stats.friedman.statistic}; CD(3,10) err "
          f"{abs(critical_difference(3, 10) - cd_expected):.1e}")
    assert ok


# ---------------------------------------------------------------------------
# 7. small-scale accuracy reproduction
# ---------------------------------------------------------------------------

def test_criterion_7_wine_bray_curtis_accuracy(wine_dataset, capsys):
    t0 = time.perf_counter()
    matrix = run_benchmark([wine_dataset], ["D7"], seed=0, runs=25,
                           normalization="min_max_01")
    mean, std = summarize(matrix)[("wine", "D7")]
    elapsed = time.perf_counter() - t0
    ok = abs(mean - 0.9415) <= 0.04
    _line(capsys, "7 (wine)", "PASS" if ok else "FAIL",
          f"D7 mean accuracy {mean:.4f} +/- {std:.4f} vs target "
          f"0.9415 +/- 0.04, 25 runs in {elapsed:.1f}s")
    assert ok


def test_criterion_7_sonar_jaccard_accuracy(capsys):
    path = DATA_DIR / "sonar.csv"
    if not path.exists():
        _line(capsys, "7 (sonar)", "SKIP",
              "data/sonar.csv not present in this offline environment; "
              "run scripts/fetch_datasets.py with network access")
        pytest.skip("sonar.csv not available offline")
    from opfdist import load_csv
    ds = load_csv(path, label_column=-1, name="sonar")
    t0 = time.perf_counter()
    matrix = run_benchmark([ds], ["D17"], seed=0, runs=25,
                           normalization="min_max_01")
    mean, std = summarize(matrix)[("sonar", "D17")]
    elapsed = time.perf_counter() - t0
    ok = abs(mean - 0.7610) <= 0.06
    _line(capsys, "7 (sonar)", "PASS" if ok else "FAIL",
          f"D17 mean accuracy {mean:.4f} +/- {std:.4f} vs target "
          f"0.7610 +/- 0.06, 25 runs in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 8. byte-identical reports across repeats and parallelism
# ---------------------------------------------------------------------------

def test_criterion_8_reports_are_byte_identical(tmp_path, capsys):
    shutil.copyfile(DATA_DIR / "wine.csv", tmp_path / "wine.csv")
    cfg = tmp_path / "repro.yaml"
    cfg.write_text(
        "seed: 0\n"
        "runs: 25\n"
        "normalization: min_max_01\n"
        "distances: [D7, D17]\n"
        "datasets:\n"
        "  - path: wine.csv\n"
        "    label_column: label\n"
        "    has_header: true\n")

    t0 = time.perf_counter()
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    rc1 = cli_main(["bench", "--config", str(cfg), "--out", str(out1),
                    "--parallelism", "1"])
    rc2 = cli_main(["bench", "--config", str(cfg), "--out", str(out2),
                    "--parallelism", "2"])
    elapsed = time.perf_counter() - t0

    differing = [
        name for name in REPORT_FILES
        if (out1 / name).read_bytes() != (out2 / name).read_bytes()
    ]
    ok = rc1 == 0 and rc2 == 0 and not differing
    _line(capsys, "8", "PASS" if ok else "FAIL",
          f"two runs (parallelism 1 vs 2) byte-identical on "
          f"{len(REPORT_FILES) - len(differing)}/{len(REPORT_FILES)} report "
          f"files in {elapsed:.1f}s"
          + (f"; differing: {differing}" if differing else ""))
    assert ok


# ---------------------------------------------------------------------------
# 9. degenerate-input totality fuzz
# ---------------------------------------------------------------------------

def test_criterion_9_degenerate_fuzz_is_total(capsys):
    rng = random.Random(101010)
    entries = registry()

    def vector(dim):
        kind = rng.randrange(6)
        if kind == 0:
            return tuple(0.0 for _ in range(dim))
        if kind == 1:
            v = rng.uniform(-10.0, 10.0)
            return tuple(v for _ in range(dim))
        if kind == 2:
            return tuple(-rng.uniform(0.0, 10.0) for _ in range(dim))
        if kind == 3:
            return tuple(rng.choice((0.0, 1.0, -1.0)) for _ in range(dim))
        if kind == 4:
            return tuple(rng.uniform(-1e6, 1e6) for _ in range(dim))
        return tuple(rng.uniform(0.0, 1.0) for _ in range(dim))

    calls = 100_000
    non_finite = 0
    t0 = time.perf_counter()
    for i in range(calls):
        entry = entries[i % len(entries)]
        dim = rng.randint(1, 6)
        x = vector(dim)
        y = x if rng.random() < 0.15 else vector(dim)
        v = evaluate(entry, x, y)
        if not math.isfinite(v):
            non_finite += 1
    elapsed = time.perf_counter() - t0
    ok = non_finite == 0
    _line(capsys, "9", "PASS" if ok else "FAIL",
          f"{calls - non_finite}/{calls} evaluate calls finite across all "
          f"47 measures with zero/equal/negative inputs in {elapsed:.1f}s")
    assert ok
