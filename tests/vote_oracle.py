"""Reference accuracy-weighted votes: one 2-D fancy-index add per member.

Kept independent of the package's flat-index vote sums and threshold
tables: each member's vote goes in through ``scores[rows, pred] += weight``,
every random tree is routed by ``tree_oracle`` over its nested form, and
every k-NN member searches its neighbours afresh. Each row gets one add per
member, in member order, so the package's sums must equal these bit for bit,
and argmax ties go to the lowest class id in both.
"""

from __future__ import annotations

import numpy as np

import tree_oracle
from noisegate.learners import RandomTree


def _predict(h, X) -> np.ndarray:
    return tree_oracle.predict(h, X) if isinstance(h, RandomTree) else h.predict(X)


def ensemble_scores(E, X) -> np.ndarray:
    """Summed member vote weight per class, shape (rows, K)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    scores = np.zeros((X.shape[0], E.K))
    rows = np.arange(X.shape[0])
    for alpha, h in E.members:
        scores[rows, _predict(h, X)] += alpha
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
