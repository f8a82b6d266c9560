"""Partitioned ensemble classification with one-class SVM noise filtering.

Pipeline: parse, scale, partition, filter each partition with a one-class
SVM whose removal fraction minimizes a clean/noisy impurity ratio, boost a
weak learner on each cleaned partition, and combine partitions by
accuracy-weighted voting.
"""

from .data import (
    Dataset,
    ParseError,
    Partition,
    ScalingSpec,
    apply_scale,
    dataset_stats,
    min_max_scale,
    parse_csv,
    parse_libsvm,
    partition,
)
from .ensemble import (
    DegenerateEnsembleError,
    GlobalModel,
    LearnerConfig,
    PartitionEnsemble,
    adaboost_train,
    compute_beta,
    load_model,
    save_model,
)
from .learners import (
    DecisionStump,
    KnnHypothesis,
    KnnReference,
    RandomTree,
    train_random_tree,
    train_stump,
    uniform_weights,
)
from .noise_filter import (
    FilterResult,
    GiniScanPoint,
    default_grid,
    filter_partition,
    gini_impurity,
    scan_split_percentage,
    split_by_score,
)
from .ocsvm import (
    ConvergenceWarning,
    KernelSpec,
    OcSvmModel,
    decision_values,
    kkt_residual,
    train_ocsvm,
)
from .pipeline import (
    EvalReport,
    PartitionError,
    RunConfig,
    evaluate,
    gini_scan,
    run_training,
)

__version__ = "0.1.0"
