"""End-to-end training pipeline: ingest, scale, partition, filter each
partition, boost each cleaned partition, combine, evaluate.

All randomness flows from the run seed through named per-stage streams, so
reports and model files are byte-identical across runs of the same config.
Wall-clock timings are collected but written to a separate side file to keep
the report itself deterministic.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import (
    Dataset,
    ScalingSpec,
    apply_scale,
    dataset_stats,
    min_max_scale,
    parse_csv,
    parse_libsvm,
)
from .data import partition as make_partitions
from .ensemble import (
    DegenerateEnsembleError,
    GlobalModel,
    LearnerConfig,
    adaboost_train,
    compute_beta,
    global_predict_batch,
    load_model,
    save_model,
)
from .noise_filter import (
    FilterResult,
    default_grid,
    filter_partition,
    gini_impurity,
    ranked_splits,
    scan_to_csv,
    split_by_score,
)
from .ocsvm import KernelSpec, check_nu, default_kernel

logger = logging.getLogger("noisegate")

# named sub-seed streams; every consumer derives independently of run order
_STREAM_PARTITION = 1
_STREAM_BOOST = 2
_STREAM_HOLDOUT = 3

_BETA_HOLDOUT_FRACTION = 0.2

FORMATS = ("libsvm", "csv")
BETA_MODES = ("holdout", "train")


class PartitionError(RuntimeError):
    """A per-partition stage failed; carries the partition id for context.

    ``degenerate`` says whether the cause was a DegenerateEnsembleError.
    """

    def __init__(self, partition_id: int, cause: BaseException):
        super().__init__(f"partition {partition_id}: {cause}")
        self.partition_id = partition_id
        self.degenerate = isinstance(cause, DegenerateEnsembleError)


def derive_seed(*parts: int) -> int:
    """Stable integer sub-seed for a named stream of the run seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass
class RunConfig:
    train_path: str
    output_dir: str
    test_path: str | None = None
    format: str = "libsvm"
    label_column: int = -1
    partitions: int = 50
    nu: float = 0.5
    kernel: str = "rbf"
    gamma: float | None = None
    grid_step: float = 0.05
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    rounds: int = 50
    seed: int = 0
    filtering: bool = True
    beta_mode: str = "holdout"
    scaling: bool = True
    repetitions: int = 50

    def validate(self) -> None:
        """Reject a bad setting before any file is read."""
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        check_nu(self.nu)
        # the kernel and grid constructors hold the rules for kind, gamma and step
        self.kernel_spec(1)
        default_grid(self.grid_step)
        if self.partitions < 1:
            raise ValueError("partition count must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.beta_mode not in BETA_MODES:
            raise ValueError(f"unknown beta mode {self.beta_mode!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")

    def kernel_spec(self, d: int) -> KernelSpec:
        """The filter kernel for d features: an rbf kernel without a gamma
        gets 1/d."""
        if self.kernel == "rbf" and self.gamma is None:
            return default_kernel(d)
        return KernelSpec(self.kernel, self.gamma)

    def snapshot(self) -> dict:
        """The settings a report records: every field but ``output_dir``."""
        settings = asdict(self)
        del settings["output_dir"]
        return settings


@dataclass
class PartitionSummary:
    partition_id: int
    size: int
    retained: int
    removed: int
    chosen_p: float
    gini_clean: float
    gini_noisy: float | None
    ratio: float | None
    beta: float


@dataclass
class RepetitionResult:
    repetition: int
    seed: int
    accuracy: float | None
    partitions: list[PartitionSummary]


@dataclass
class EvalReport:
    config: dict
    dataset: dict
    label_names: list[str]
    repetitions: list[RepetitionResult]
    mean_accuracy: float | None
    std_accuracy: float | None
    confusion: np.ndarray | None
    unseen_label_counts: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "dataset": self.dataset,
            "label_names": self.label_names,
            "repetitions": [asdict(r) for r in self.repetitions],
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "confusion_matrix": None if self.confusion is None else self.confusion.tolist(),
            "unseen_test_labels": self.unseen_label_counts,
        }


def _parse(path, format: str, label_column: int) -> Dataset:
    """Read and parse the file at path; a format outside FORMATS is rejected
    before the file is opened."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    with open(path) as fh:
        text = fh.read()
    if format == "csv":
        return parse_csv(text, label_column)
    return parse_libsvm(text)


def _parse_training(cfg: RunConfig) -> Dataset:
    """The training file of cfg, parsed; a single-class file is rejected,
    since no partition of it can be filtered by class impurity or boosted."""
    train = _parse(cfg.train_path, cfg.format, cfg.label_column)
    if train.K < 2:
        raise ValueError("training data has a single class")
    return train


def _fit_to_model(test: Dataset, n_features: int, scaling: ScalingSpec | None) -> Dataset:
    """test at a model's width and scale: zero columns padded on the right up
    to ``n_features``, then mapped through ``scaling`` unless it is None.

    Each step drops its input once its output exists, so a caller that passes
    its only reference holds at most two copies of the features at once, and
    only the column-major scaled one afterwards.
    """
    if test.d > n_features:
        raise ValueError(f"test data has {test.d} features, model expects {n_features}")
    if test.d < n_features:
        pad = np.zeros((test.n, n_features - test.d))
        test = Dataset(np.hstack([test.features, pad]), test.labels, test.label_names)
    if scaling is not None:
        test = apply_scale(scaling, test)
    return test


def evaluate_model(model: GlobalModel, test: Dataset):
    """Accuracy, summed confusion matrix, and unseen-label counts.

    ``test`` is already at the model's width and scale (``_fit_to_model``).
    Test labels never seen at training time count as always-wrong and are
    reported separately rather than raising.
    """
    token_to_id = {name: i for i, name in enumerate(model.label_names)}
    mapped = np.array([token_to_id.get(name, -1) for name in test.label_names])
    truth = mapped[test.labels]
    preds = global_predict_batch(model, test.features)
    known = truth >= 0
    accuracy = float(((preds == truth) & known).sum() / test.n)
    K = model.K
    confusion = np.zeros((K, K), dtype=np.int64)
    np.add.at(confusion, (truth[known], preds[known]), 1)
    unseen = {}
    for i, name in enumerate(test.label_names):
        if mapped[i] < 0:
            unseen[name] = int((test.labels == i).sum())
    return accuracy, confusion, unseen


def _holdout_split(n_clean: int, beta_mode: str, seed: int):
    """Positions of the clean rows to boost, and of those held out for beta
    (None when there is no holdout)."""
    if beta_mode == "holdout":
        n_hold = max(1, int(math.floor(_BETA_HOLDOUT_FRACTION * n_clean + 0.5)))
        if n_clean - n_hold >= 2:
            order = np.random.default_rng(seed).permutation(n_clean)
            return order[n_hold:], order[:n_hold]
    return np.arange(n_clean), None


def _boostable_split(part, fr: FilterResult, labels, beta_mode: str, holdout_seed: int):
    """The best-ranked cut of the scan whose boosted rows hold two classes.

    A clean side that is pure by chance scores ratio 0 and wins the scan, and
    a holdout can take the one row of the clean side's minority class; boosting
    cannot train on either. So the cuts are tried best first, and the first
    whose boosted rows (the clean side less the holdout ``_holdout_split``
    draws) hold two or more classes is taken. When none does, the scan's own
    pick stands and boosting rejects the partition.
    Returns the clean indices and the chosen scan point.
    """
    ranked = ranked_splits(fr.scan)
    for pt in ranked:
        clean = split_by_score(part.indices, fr.scores, pt.p)[0]
        boosted = _holdout_split(len(clean), beta_mode, holdout_seed)[0]
        if np.unique(labels[clean[boosted]]).size >= 2:
            return clean, pt
    return fr.clean_indices, ranked[0]  # the scan's own pick, fr.chosen_p


def _partition_stage(part, data, cfg, kernel, grid, rep_seed):
    pid = part.partition_id
    try:
        holdout_seed = derive_seed(rep_seed, _STREAM_HOLDOUT, pid)
        if cfg.filtering:
            fr = filter_partition(part, data, nu=cfg.nu, kernel=kernel, grid=grid)
            clean_idx, pt = _boostable_split(part, fr, data.labels, cfg.beta_mode,
                                             holdout_seed)
            chosen_p, g_clean, g_noisy, ratio = pt.p, pt.gini_clean, pt.gini_noisy, pt.ratio
        else:
            clean_idx = part.indices
            chosen_p = 1.0
            g_clean = gini_impurity(data.labels[part.indices])
            g_noisy = None
            ratio = None

        X = data.rows(clean_idx)
        y = data.labels[clean_idx]
        n_clean = len(clean_idx)
        train_sel, holdout_sel = _holdout_split(n_clean, cfg.beta_mode, holdout_seed)

        ensemble = adaboost_train(X[train_sel], y[train_sel], cfg.rounds, cfg.learner,
                                  seed=derive_seed(rep_seed, _STREAM_BOOST, pid),
                                  n_classes=data.K, partition_id=pid)
        sel = holdout_sel if holdout_sel is not None else train_sel
        compute_beta(ensemble, X[sel], y[sel])

        summary = PartitionSummary(
            partition_id=pid, size=part.size, retained=n_clean, removed=part.size - n_clean,
            chosen_p=chosen_p, gini_clean=g_clean, gini_noisy=g_noisy, ratio=ratio,
            beta=ensemble.beta)
        return ensemble, summary
    except Exception as exc:
        raise PartitionError(pid, exc) from exc


def run_training(cfg: RunConfig) -> tuple[GlobalModel, EvalReport]:
    """Run the full pipeline once per repetition and write model + reports.

    The persisted model is the first repetition's (seed = cfg.seed); all
    repetitions contribute to the report. With filtering off the filter
    stage is the identity and every partition reports chosen_p = 1.0.
    """
    cfg.validate()
    timings: dict[str, float] = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    train = _parse_training(cfg)
    test = _parse(cfg.test_path, cfg.format, cfg.label_column) if cfg.test_path else None
    timings["parse"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    scaling_spec = None
    working = train
    if cfg.scaling:
        working, scaling_spec = min_max_scale(train)
    if test is not None:  # every repetition's model has train's width and scaling
        test = _fit_to_model(test, train.d, scaling_spec)
    timings["scale"] = time.perf_counter() - t0

    kernel = cfg.kernel_spec(train.d)
    grid = default_grid(cfg.grid_step)
    snapshot = cfg.snapshot()

    reps: list[RepetitionResult] = []
    accuracies: list[float] = []
    confusion = None
    unseen_totals: dict[str, int] = {}
    first_model: GlobalModel | None = None

    timings["train"] = 0.0
    timings["evaluate"] = 0.0
    for r in range(cfg.repetitions):
        rep_seed = cfg.seed + r
        t0 = time.perf_counter()
        parts = make_partitions(
            working, cfg.partitions, derive_seed(rep_seed, _STREAM_PARTITION)
        )
        staged = [_partition_stage(p, working, cfg, kernel, grid, rep_seed) for p in parts]
        ensembles = [ensemble for ensemble, _ in staged]
        summaries = [summary for _, summary in staged]
        model = GlobalModel(
            ensembles, train.label_names, scaling_spec, snapshot, n_features=train.d
        )
        timings["train"] += time.perf_counter() - t0
        if first_model is None:
            first_model = model

        accuracy = None
        if test is not None:
            t0 = time.perf_counter()
            accuracy, conf, unseen = evaluate_model(model, test)
            confusion = conf if confusion is None else confusion + conf
            for name, count in unseen.items():
                unseen_totals[name] = unseen_totals.get(name, 0) + count
            accuracies.append(accuracy)
            timings["evaluate"] += time.perf_counter() - t0
        reps.append(RepetitionResult(r, rep_seed, accuracy, summaries))
        logger.info("repetition %d/%d done (accuracy=%s)", r + 1, cfg.repetitions,
                    "n/a" if accuracy is None else f"{accuracy:.4f}")

    timings["total"] = time.perf_counter() - t_total
    report = EvalReport(
        config=snapshot,
        dataset=dataset_stats(train),
        label_names=train.label_names,
        repetitions=reps,
        mean_accuracy=float(np.mean(accuracies)) if accuracies else None,
        std_accuracy=float(np.std(accuracies)) if accuracies else None,
        confusion=confusion,
        unseen_label_counts=unseen_totals,
    )

    os.makedirs(cfg.output_dir, exist_ok=True)
    save_model(first_model, os.path.join(cfg.output_dir, "model.json"))
    with open(os.path.join(cfg.output_dir, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")
    with open(os.path.join(cfg.output_dir, "timings.json"), "w") as fh:
        json.dump(timings, fh, indent=1)
        fh.write("\n")
    for name, took in timings.items():
        logger.info("stage %s: %.3fs", name, took)
    return first_model, report


def evaluate(model_path, test_path, format: str = "libsvm", label_column: int = -1) -> dict:
    """Score a saved model against a test file."""
    model = load_model(model_path)
    # the parsed and padded arrays are freed before the vote
    test = _fit_to_model(_parse(test_path, format, label_column), model.n_features,
                         model.scaling)
    accuracy, confusion, unseen = evaluate_model(model, test)
    return {
        "accuracy": accuracy,
        "n_test": test.n,
        "label_names": model.label_names,
        "confusion_matrix": confusion.tolist(),
        "unseen_test_labels": unseen,
    }


def predict_labels(model_path, data_path, format: str = "libsvm",
                   label_column: int = -1) -> list[str]:
    """Predicted label tokens, one per input row."""
    model = load_model(model_path)
    features = _fit_to_model(_parse(data_path, format, label_column), model.n_features,
                             model.scaling).features
    return [model.label_names[p] for p in global_predict_batch(model, features)]


def gini_scan(cfg: RunConfig) -> dict:
    """Write per-partition impurity scans plus a cross-partition aggregate.

    Reads the input and filter settings of ``cfg`` as ``run_training`` does;
    the boosting settings play no part. A partition's best retained fraction
    is the best-ranked cut whose clean side holds two classes, as ``train
    --beta-mode train`` picks it. Returns a summary with each partition's best
    fraction (in partition-id order), the modal best across partitions and the
    file paths; nothing is printed.
    """
    cfg.validate()
    train = _parse_training(cfg)
    working = min_max_scale(train)[0] if cfg.scaling else train
    kernel = cfg.kernel_spec(train.d)
    grid = default_grid(cfg.grid_step)
    parts = make_partitions(working, cfg.partitions, derive_seed(cfg.seed, _STREAM_PARTITION))

    os.makedirs(cfg.output_dir, exist_ok=True)
    best_ps = []
    scans = []
    full_ginis = []
    paths = []
    for part in parts:
        try:
            fr = filter_partition(part, working, nu=cfg.nu, kernel=kernel, grid=grid)
        except Exception as exc:
            raise PartitionError(part.partition_id, exc) from exc
        best_p = _boostable_split(part, fr, working.labels, "train", 0)[1].p
        best_ps.append(best_p)
        scans.append(fr.scan)
        full_ginis.append(gini_impurity(working.labels[part.indices]))
        path = os.path.join(cfg.output_dir, f"gini_partition_{part.partition_id:03d}.csv")
        with open(path, "w") as fh:
            fh.write(scan_to_csv(fr.scan))
        paths.append(path)

    agg_path = os.path.join(cfg.output_dir, "gini_aggregate.csv")
    mean_full = float(np.mean(full_ginis))
    with open(agg_path, "w") as fh:
        fh.write("p,gini_clean,gini_noisy,ratio,gini_full\n")
        for gi, p in enumerate(grid):
            gc = float(np.mean([s[gi].gini_clean for s in scans]))
            gn = float(np.mean([s[gi].gini_noisy for s in scans]))
            ratio = float(np.mean([s[gi].ratio for s in scans]))
            fh.write(f"{p:g},{gc:.12g},{gn:.12g},{ratio:.12g},{mean_full:.12g}\n")

    values, counts = np.unique(best_ps, return_counts=True)
    modal = float(values[counts == counts.max()].max())  # tie -> larger p
    return {
        "best_p_per_partition": best_ps,
        "modal_best_p": modal,
        "partition_csvs": paths,
        "aggregate_csv": agg_path,
        "mean_full_gini": mean_full,
    }
