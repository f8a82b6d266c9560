"""Reference random-tree routing: recursion over the nested ``root`` tree.

Kept independent of the package's flat node arrays: every node splits the
row indices that reached it into ``X[idx, feature] <= threshold`` (left) and
the rest (right, NaN included), and a leaf writes its class. The package must
predict the same labels, bit for bit.
"""

from __future__ import annotations

import numpy as np


def predict(tree, X) -> np.ndarray:
    X = np.atleast_2d(X)
    out = np.empty(X.shape[0], dtype=np.int64)
    _route(tree.root, X, np.arange(X.shape[0]), out)
    return out


def _route(node, X, idx, out):
    if "leaf" in node:
        out[idx] = node["leaf"]
        return
    mask = X[idx, node["feature"]] <= node["threshold"]
    _route(node["left"], X, idx[mask], out)
    _route(node["right"], X, idx[~mask], out)


def node_count(node) -> int:
    if "leaf" in node:
        return 1
    return 1 + node_count(node["left"]) + node_count(node["right"])


def depth(node) -> int:
    if "leaf" in node:
        return 0
    return 1 + max(depth(node["left"]), depth(node["right"]))
