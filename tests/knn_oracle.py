"""Brute-force reference for weighted k-nearest-neighbour voting.

Kept independent of the package's blocked neighbour search: each query row
sorts every reference by (squared distance, reference index) in pure Python,
so a distance tie goes to the lower reference index, and summed vote ties go
to the lower class id. On integer-valued inputs the squared distances are
exact, so the package must agree with it exactly.
"""

from __future__ import annotations

import numpy as np


def knn_nearest(refs, x, k: int) -> list[int]:
    """Indices of the k nearest references to x, nearest first."""
    dist = [(float(np.sum((np.asarray(r) - x) ** 2)), i) for i, r in enumerate(refs)]
    return [i for _, i in sorted(dist)[:k]]


def knn_predict(refs, labels, ref_weights, x, k: int) -> int:
    """Class with the largest summed reference weight among the k nearest."""
    if not 1 <= k <= len(refs):
        raise ValueError(f"k must be in [1, {len(refs)}], got {k}")
    x = np.asarray(x, dtype=np.float64)
    votes: dict[int, float] = {}
    for i in knn_nearest(refs, x, k):
        c = int(labels[i])
        votes[c] = votes.get(c, 0.0) + float(ref_weights[i])
    top = max(votes.values())
    return min(c for c, v in votes.items() if v == top)
