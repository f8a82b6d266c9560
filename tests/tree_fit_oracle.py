"""Reference random-tree fit: one recursive call per node, two gathers and two
class-mass bincounts per candidate, Gini through its own helper.

Kept independent of the package's builder, which gathers a node's labels and
weights once, reuses a column drawn twice and counts both sides of a cut in
one bincount. Both make the same draws from the Generator in the same order,
so the package must return a tree whose ``to_dict()`` equals this one's, bit
for bit, and leave the Generator in the same state.
"""

from __future__ import annotations

import math

import numpy as np

from noisegate.learners import RandomTree, validate_weights


def _weighted_class_mass(y, w, n_classes):
    return np.bincount(y, weights=w, minlength=n_classes)


def _weighted_gini(mass: np.ndarray) -> float:
    total = mass.sum()
    if total <= 0:
        return 0.0
    p = mass / total
    return float(1.0 - p @ p)


def train_random_tree(X, y, w, max_depth: int = 4, k_candidates: int | None = None,
                      seed=0) -> RandomTree:
    """Grow a tree by drawing k random (feature, threshold) pairs per node
    and keeping the one with the lowest weighted child impurity.

    Stops on pure nodes, nodes below 2 instances, or at max_depth.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    w = validate_weights(w, n)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if k_candidates is None:
        k_candidates = int(math.ceil(math.sqrt(d)))
    if k_candidates < 1:
        raise ValueError("k_candidates must be >= 1")
    rng = np.random.default_rng(seed)
    n_classes = int(y.max()) + 1

    split, feature, threshold, leaf = [], [], [], []

    def build(idx, depth) -> None:
        """Append the subtree over rows idx in pre-order."""
        best = None
        if depth < max_depth and idx.size >= 2 and not np.all(y[idx] == y[idx[0]]):
            best_score = math.inf
            for _ in range(k_candidates):
                f = int(rng.integers(d))
                col = X[idx, f]
                lo, hi = float(col.min()), float(col.max())
                if lo == hi:
                    continue
                thr = float(rng.uniform(lo, hi))
                mask = col <= thr
                if not mask.any() or mask.all():
                    continue
                left_mass = _weighted_class_mass(y[idx[mask]], w[idx[mask]], n_classes)
                right_mass = _weighted_class_mass(y[idx[~mask]], w[idx[~mask]], n_classes)
                score = (left_mass.sum() * _weighted_gini(left_mass)
                         + right_mass.sum() * _weighted_gini(right_mass))
                if score < best_score:
                    best_score = score
                    best = (f, thr, mask)
        split.append(best is not None)
        if best is None:
            leaf.append(int(np.argmax(_weighted_class_mass(y[idx], w[idx], n_classes))))
            return
        f, thr, mask = best
        feature.append(f)
        threshold.append(thr)
        build(idx[mask], depth + 1)
        build(idx[~mask], depth + 1)

    build(np.arange(n), 0)
    return RandomTree(split, feature, threshold, leaf)
