"""Reference accuracy-weighted votes: one 2-D fancy-index add per member.

Kept independent of the package's flat-index vote sums: each member's vote
goes in through ``scores[rows, pred] += weight``, and every k-NN member
searches its neighbours afresh. Each row gets one add per member, in member
order, so the package's sums must equal these bit for bit, and argmax ties
go to the lowest class id in both.
"""

from __future__ import annotations

import numpy as np


def ensemble_scores(E, X) -> np.ndarray:
    """Summed member vote weight per class, shape (rows, K)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    scores = np.zeros((X.shape[0], E.K))
    rows = np.arange(X.shape[0])
    for alpha, h in E.members:
        scores[rows, h.predict(X)] += alpha
    return scores


def global_scores(G, X) -> np.ndarray:
    """Summed ensemble vote weight (beta) per class, shape (rows, K)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    votes = np.zeros((X.shape[0], G.K))
    rows = np.arange(X.shape[0])
    for E in G.ensembles:
        votes[rows, np.argmax(ensemble_scores(E, X), axis=1)] += E.beta
    return votes


def global_predict_batch(G, X) -> np.ndarray:
    return np.argmax(global_scores(G, X), axis=1)
