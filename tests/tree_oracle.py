"""Reference random-tree routing: recursion over a nested tree of dicts,
built here from the tree's own node arrays.

Kept independent of the package's routing and of its model-file layout:
``nested`` reads only ``feature``, ``threshold``, ``children`` and ``value``
(node i splits when its threshold is finite, and its children are
``children[2i]`` and ``children[2i + 1]``). Every node splits the row indices
that reached it into ``X[idx, feature] <= threshold`` (left) and the rest
(right, NaN included), and a leaf writes its class. The package must predict
the same labels, bit for bit.

``document`` goes the other way, from a nested tree to the model file's
tree member, so that tests can write trees by hand.
"""

from __future__ import annotations

import math

import numpy as np


def nested(tree) -> dict:
    """tree as {"feature", "threshold", "left", "right"} and {"leaf"} dicts."""
    def node(i):
        if not math.isfinite(tree.threshold[i]):
            return {"leaf": int(tree.value[i])}
        return {"feature": int(tree.feature[i]), "threshold": float(tree.threshold[i]),
                "left": node(int(tree.children[2 * i])),
                "right": node(int(tree.children[2 * i + 1]))}

    return node(0)


def document(root) -> dict:
    """The model file's tree member for a nested tree: its pre-order split
    mask, its split nodes' features and thresholds and its leaves' classes."""
    doc = {"split": [], "feature": [], "threshold": [], "leaf": []}

    def visit(node):
        doc["split"].append(0 if "leaf" in node else 1)
        if "leaf" in node:
            doc["leaf"].append(node["leaf"])
            return
        doc["feature"].append(node["feature"])
        doc["threshold"].append(node["threshold"])
        visit(node["left"])
        visit(node["right"])

    visit(root)
    return doc


def predict(tree, X) -> np.ndarray:
    X = np.atleast_2d(X)
    out = np.empty(X.shape[0], dtype=np.int64)
    _route(nested(tree), X, np.arange(X.shape[0]), out)
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
