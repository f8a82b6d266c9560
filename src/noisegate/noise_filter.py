"""Score-ranked noise splitting driven by a Gini impurity ratio.

Each partition's instances are ranked by their one-class SVM decision value;
candidate retained fractions p are scanned and the one minimizing
gini(clean) / gini(noisy) wins. Ties prefer larger p (keep more data), and
splits whose noisy side is pure or empty rank behind every finite ratio.

A clean side with a single class scores ratio 0, the best possible. That is
the right answer when a partition's clean rows really are one class, but
boosting cannot train on one class, so the training pipeline walks
``ranked_splits`` for the best cut it can boost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Partition
# decision_values is unused here, but bench/tracing.py wraps it by this name
from .ocsvm import KernelSpec, decision_values, train_ocsvm  # noqa: F401


@dataclass(frozen=True)
class GiniScanPoint:
    p: float
    gini_clean: float
    gini_noisy: float
    ratio: float


@dataclass(frozen=True)
class FilterResult:
    clean_indices: np.ndarray
    noisy_indices: np.ndarray
    chosen_p: float
    scan: list[GiniScanPoint]
    scores: np.ndarray

    @property
    def chosen_point(self) -> GiniScanPoint:
        for pt in self.scan:
            if pt.p == self.chosen_p:
                return pt
        raise ValueError("chosen percentage missing from scan")


def gini_impurity(labels) -> float:
    """1 - sum of squared class probabilities; 0 for a pure set."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("gini impurity of an empty label set is undefined")
    _, counts = np.unique(labels, return_counts=True)
    probs = counts / labels.size
    return float(1.0 - probs @ probs)


def _clean_count(p: float, n: int) -> int:
    # round half up, floored at 1 so the clean side is never empty
    return max(1, int(math.floor(p * n + 0.5)))


def _rank_by_score(scores: np.ndarray, order_keys: np.ndarray) -> np.ndarray:
    """Positions sorted by descending score; ties go to the lower key."""
    return np.lexsort((order_keys, -np.asarray(scores, dtype=np.float64)))


def split_by_score(indices, scores, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Keep the round(p*n) highest-scoring indices as clean, rest as noisy."""
    indices = np.asarray(indices, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if not 0.0 < p < 1.0:
        raise ValueError(f"split percentage must be in (0, 1), got {p}")
    if indices.shape != scores.shape:
        raise ValueError("scores are not aligned with indices")
    ranked = _rank_by_score(scores, indices)
    k = _clean_count(p, len(indices))
    clean = np.sort(indices[ranked[:k]])
    noisy = np.sort(indices[ranked[k:]])
    return clean, noisy


def scan_split_percentage(labels, scores, grid) -> tuple[float, list[GiniScanPoint]]:
    """Evaluate the impurity ratio at every grid percentage and pick the argmin.

    Ties break toward the larger percentage. A zero (or undefined) noisy-side
    impurity means the split discarded a coherent block, so those points get
    an infinite ratio and lose to every finite candidate.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    grid = [float(p) for p in grid]
    if not grid:
        raise ValueError("percentage grid is empty")
    if any(not 0.0 < p < 1.0 for p in grid):
        raise ValueError("grid percentages must be in (0, 1)")
    n = len(labels)
    ranked = _rank_by_score(scores, np.arange(n))
    scan = []
    for p in grid:
        k = _clean_count(p, n)
        clean_labels = labels[ranked[:k]]
        noisy_labels = labels[ranked[k:]]
        gc = gini_impurity(clean_labels)
        gn = gini_impurity(noisy_labels) if noisy_labels.size else 0.0
        ratio = gc / gn if gn > 0 else math.inf
        scan.append(GiniScanPoint(p, gc, gn, ratio))
    return ranked_splits(scan)[0].p, scan


def ranked_splits(scan: list[GiniScanPoint]) -> list[GiniScanPoint]:
    """Scan points best first: lowest ratio, ties to the larger percentage."""
    return sorted(scan, key=lambda pt: (pt.ratio, -pt.p))


def filter_partition(
    part: Partition,
    data: Dataset,
    nu: float = 0.5,
    kernel: KernelSpec | None = None,
    grid=None,
    tol: float = 1e-3,
    max_iter: int | None = None,
) -> FilterResult:
    """Train the boundary on the partition's pooled features and split it.

    Labels are ignored during training; they only enter the impurity scan.
    """
    if part.size < 2:
        raise ValueError(f"partition {part.partition_id} has fewer than 2 instances")
    if grid is None:
        grid = default_grid()
    rows = data.rows(part.indices)
    model = train_ocsvm(rows, nu=nu, kernel=kernel, tol=tol, max_iter=max_iter)
    scores = model.train_scores
    labels = data.labels[part.indices]
    best_p, scan = scan_split_percentage(labels, scores, grid)
    clean, noisy = split_by_score(part.indices, scores, best_p)
    return FilterResult(clean, noisy, best_p, scan, scores)


def default_grid(step: float = 0.05) -> list[float]:
    """Percentages {step, 2*step, ...} strictly inside (0, 1)."""
    if not 0.0 < step < 1.0:
        raise ValueError("grid step must be in (0, 1)")
    count = int(math.ceil((1.0 - 1e-9) / step)) - 1
    if count < 1:
        raise ValueError(f"grid step {step} leaves no percentage inside (0, 1)")
    return [round(step * i, 10) for i in range(1, count + 1)]


def scan_to_csv(scan: list[GiniScanPoint]) -> str:
    lines = ["p,gini_clean,gini_noisy,ratio"]
    for pt in scan:
        lines.append(f"{pt.p:g},{pt.gini_clean:.12g},{pt.gini_noisy:.12g},{pt.ratio:.12g}")
    return "\n".join(lines) + "\n"
