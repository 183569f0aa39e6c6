"""Optimum-path forest classification over a 47-measure distance catalogue,
with dataset I/O, a benchmark harness, and rank statistics."""

__version__ = "1.0.0"

from . import errors
from .distances import (
    ASYMMETRIC_CODES,
    AxiomCheck,
    AxiomReport,
    DistanceId,
    EPS,
    EXP_MAX,
    Taxonomy,
    check_axioms,
    distance_function,
    evaluate,
    registry,
    resolve,
)
from .forest import (
    Prediction,
    Sample,
    TrainedForest,
    TrainingGraph,
    classify,
    classify_batch,
    find_prototypes,
    graph_from_arrays,
    train,
    train_measures,
)
from .dataio import (
    Dataset,
    ForestArchive,
    NormalizationSpec,
    apply_to_samples,
    fit_normalization,
    load_archive,
    load_csv,
    load_forest,
    load_svmlight,
    normalize,
    save_forest,
    write_reports,
    write_stat_files,
)
from .evaluation import (
    BenchmarkMatrix,
    FriedmanResult,
    NemenyiResult,
    SplitPlan,
    StatReport,
    WilcoxonResult,
    accuracy,
    critical_difference,
    friedman_nemenyi,
    make_splits,
    rank_complete,
    run_benchmark,
    summarize,
    wilcoxon_signed_rank,
)
