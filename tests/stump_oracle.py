"""Reference decision-stump search: one stable sort per column per fit.

Kept independent of the package's presorted column index: every call sorts
each column afresh, accumulates the one-hot class weights along it, and
scores the cuts between distinct values column by column. The package must
return a stump whose ``to_dict()`` equals this one's, bit for bit.
"""

from __future__ import annotations

import numpy as np

from noisegate.learners import DecisionStump, validate_weights


def train_stump(X, y, w) -> DecisionStump:
    """Exhaustive search over (feature, midpoint) splits.

    Minimizes weighted misclassification with weighted-majority leaves.
    Ties keep the lowest feature index, then the lowest threshold.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    w = validate_weights(w, n)
    n_classes = int(y.max()) + 1
    total_mass = np.bincount(y, weights=w, minlength=n_classes)
    majority = int(np.argmax(total_mass))
    best_err = float(total_mass.sum() - total_mass.max())
    best = DecisionStump(0, 0.0, majority, majority)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    weighted = onehot * w[:, None]
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        vals = X[order, f]
        cum = np.cumsum(weighted[order], axis=0)
        cuts = np.flatnonzero(vals[:-1] < vals[1:])
        if cuts.size == 0:
            continue
        left = cum[cuts]
        right = total_mass[None, :] - left
        err = (left.sum(axis=1) - left.max(axis=1)) + (right.sum(axis=1) - right.max(axis=1))
        b = int(np.argmin(err))
        if err[b] < best_err - 1e-15:
            thr = float((vals[cuts[b]] + vals[cuts[b] + 1]) / 2.0)
            best_err = float(err[b])
            best = DecisionStump(
                f, thr, int(np.argmax(left[b])), int(np.argmax(right[b]))
            )
    return best
