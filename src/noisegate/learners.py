"""Weight-aware weak learners: decision stumps, single randomized trees,
and weighted k-nearest-neighbour voting.

All learners consume a per-instance weight vector (nonnegative, summing
to 1) and are deterministic given their inputs and seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def uniform_weights(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def validate_weights(w, n: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    return w


def _weighted_class_mass(y, w, n_classes):
    return np.bincount(y, weights=w, minlength=n_classes)


def _weighted_gini(mass: np.ndarray) -> float:
    total = mass.sum()
    if total <= 0:
        return 0.0
    p = mass / total
    return float(1.0 - p @ p)


def _integer(what: str, value) -> int:
    """value itself when it is an int; a model file's "1", 1.5 or true is
    rejected rather than converted."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _number(what: str, value) -> float:
    """value as a float when it is an int or a float; a model file's "0.5" or
    true is rejected rather than converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _check_range(what: str, values, stop: int) -> None:
    """Raise ValueError unless every one of ``values`` lies in [0, stop)."""
    values = np.asarray(values)
    bad = values[(values < 0) | (values >= stop)]
    if bad.size:
        raise ValueError(f"{what} {bad[0]} is not in [0, {stop})")


class DecisionStump:
    """Single axis threshold; rows with x[feature] <= threshold go left."""

    kind = "stump"

    def __init__(self, feature: int, threshold: float, left: int, right: int):
        if not math.isfinite(threshold):
            raise ValueError("stump threshold must be finite")
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.where(X[:, self.feature] <= self.threshold, self.left, self.right)

    def check(self, n_features: int, K: int) -> None:
        """Raise ValueError unless the stump fits a model of this shape."""
        _check_range("stump feature", [self.feature], n_features)
        _check_range("stump class", [self.left, self.right], K)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionStump":
        return cls(_integer("stump feature", doc["feature"]),
                   _number("stump threshold", doc["threshold"]),
                   _integer("stump class", doc["left"]), _integer("stump class", doc["right"]))


# Temporaries stay near this many elements for any input: the stump search
# takes columns in blocks of this many (row, column, class) values, the k-NN
# search takes query rows in blocks of this many distances. Columns are
# independent, so blocking cannot change a stump. A k-NN query set that fits
# one block gets one matrix product; BLAS picks kernels by shape, so cutting
# a product into row blocks can change its last bit.
_BLOCK_ELEMENTS = 1 << 20
# Tree routing and the vote's tree tables take rows in blocks whose buffers
# hold about this many bytes, reused across blocks: a few hundred KB per
# call, where (node, row) blocks of _BLOCK_ELEMENTS churned MBs per tree,
# which malloc may return to the system and fault back in between calls.
_ROUTE_BYTES = 1 << 18


class StumpIndex:
    """Each column's stable sort order over one training set, and which of the
    n - 1 cuts along it fall between two distinct values. Shared by every
    stump fit of one boosted ensemble: only the weights change between rounds.
    """

    def __init__(self, X):
        X = np.asarray(X, dtype=np.float64)
        # one row per column, so each column's order is contiguous
        self.order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        vals = np.take_along_axis(X.T, self.order, axis=1)
        # cut i lies between sorted positions i and i + 1; the last position
        # has no successor
        self.no_cut = np.ones(self.order.shape, dtype=bool)
        self.no_cut[:, :-1] = ~(vals[:, :-1] < vals[:, 1:])


def _misclassified(masses: list) -> np.ndarray:
    """Per cut, the summed mass of the classes other than the largest.

    The classes add in the order ``mass.sum(axis=-1)`` on the stacked (cut,
    class) array adds them, so the sum is that of the one-array search bit for
    bit: numpy adds fewer than 8 values one by one, more pairwise.
    """
    if len(masses) < 8:
        total = masses[0] + masses[1]
        for m in masses[2:]:
            total += m
    else:
        total = np.stack(masses, axis=-1).sum(axis=-1)
    top = np.maximum(masses[0], masses[1])
    for m in masses[2:]:
        np.maximum(top, m, out=top)
    total -= top
    return total


def train_stump(X, y, w, index: StumpIndex | None = None) -> DecisionStump:
    """Exhaustive search over (feature, midpoint) splits.

    Minimizes weighted misclassification with weighted-majority leaves.
    Ties keep the lowest feature index, then the lowest threshold. ``index``
    is X's column index; without one the fit builds its own.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    w = validate_weights(w, n)
    if index is None:
        index = StumpIndex(X)
    elif index.order.shape != (d, n):
        raise ValueError(f"stump index is for shape {index.order.shape[::-1]}, not {(n, d)}")
    n_classes = int(y.max()) + 1
    total_mass = _weighted_class_mass(y, w, n_classes)
    majority = int(np.argmax(total_mass))
    best_err = float(total_mass.sum() - total_mass.max())
    best = DecisionStump(0, 0.0, majority, majority)
    if n_classes < 2:
        return best
    class_w = [np.where(y == c, w, 0.0) for c in range(n_classes)]
    # per column: least error over its cuts, where it falls, and the class
    # masses left of it
    col_err = np.empty(d)
    col_cut = np.empty(d, dtype=np.intp)
    col_left = np.empty((n_classes, d))
    step = max(1, _BLOCK_ELEMENTS // (n * n_classes))
    for lo in range(0, d, step):
        order = index.order[lo:lo + step]
        left = [np.take(wc, order) for wc in class_w]
        for m in left:
            np.cumsum(m, axis=1, out=m)
        err = _misclassified(left)
        err += _misclassified([t - m for t, m in zip(total_mass, left)])
        err[index.no_cut[lo:lo + step]] = np.inf
        cut = np.argmin(err, axis=1)
        rows = np.arange(cut.size)
        col_err[lo:lo + step] = err[rows, cut]
        col_cut[lo:lo + step] = cut
        for c, m in enumerate(left):
            col_left[c, lo:lo + step] = m[rows, cut]
    for f, err_f in enumerate(col_err.tolist()):
        if err_f < best_err - 1e-15:
            below, above = index.order[f, col_cut[f]:col_cut[f] + 2]
            left_mass = col_left[:, f]
            best_err = err_f
            best = DecisionStump(f, float((X[below, f] + X[above, f]) / 2.0),
                                 int(np.argmax(left_mass)),
                                 int(np.argmax(total_mass - left_mass)))
    return best


class RandomTree:
    """Randomized splitter; rows with x[feature] <= threshold go left.

    The tree is four flat pre-order node arrays: ``feature``, ``threshold``,
    ``children`` (left and right of node i at 2i and 2i + 1) and ``value``. A
    leaf's children are the leaf itself and its threshold is +inf, so a row
    that has reached a leaf stays there. The nested tree of dicts is only the
    model file's form, which ``to_dict`` writes and ``from_dict`` reads.
    """

    kind = "random_tree"

    def __init__(self, feature, threshold, children, value, max_depth: int):
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.children = np.array(children, dtype=np.intp)
        self.value = np.array(value, dtype=np.int64)
        self.max_depth = max_depth
        kids = self.children.tolist()
        level = [0] * self.value.size  # pre-order: parents before children
        for i in self.split_nodes().tolist():
            level[kids[2 * i]] = level[kids[2 * i + 1]] = level[i] + 1
        self._depth = max(level)

    def split_nodes(self) -> np.ndarray:
        """The internal nodes, in pre-order: those with a finite threshold."""
        return np.flatnonzero(np.isfinite(self.threshold))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route rows a block at a time: compare the block once per internal
        node, then take ``depth()`` steps from the root.

        Boosting calls this once per round on the training rows. The vote
        calls it only for a tree of more than 64 leaves or one in a mixed
        ensemble; it scores other all-tree ensembles from threshold tables.

        A row's state is u = 2 * node + 1, so with le = 1 when it goes left
        its next node is ``children[u - le]``. The internal nodes are sorted
        by feature, so each feature is one broadcast compare into a (compare
        row, block row) matrix; a leaf reads compare row 0, as both its
        children are itself. The matrix and row buffers are allocated once
        per call and written through ``out=``. Every index is in range by
        construction, so ``take`` runs in "clip" mode, which does no bounds
        check and buffers no copy.
        """
        X = np.atleast_2d(X)
        n = X.shape[0]
        internal = self.split_nodes()
        internal = internal[self.feature[internal].argsort(kind="stable")]
        features = self.feature[internal].tolist()
        thresholds = self.threshold[internal, None]
        groups = []  # (first compare row, end, feature, thresholds)
        for f, run in itertools.groupby(features):
            a = groups[-1][1] if groups else 0
            b = a + len(list(run))
            groups.append((a, b, f, thresholds[a:b]))
        # per block row: one byte per compare, a uint8 and two intp buffers
        m = max(1, min(n, _ROUTE_BYTES // (max(1, internal.size) + 17)))
        compare_row = np.zeros(self.value.size, dtype=np.intp)
        compare_row[internal] = np.arange(0, internal.size * m, m)
        row_start = compare_row.repeat(2)  # indexed by u
        next_u = 2 * self.children + 1
        value = self.value.repeat(2)
        le = np.zeros((max(1, internal.size), m), dtype=bool)
        le_bytes = le.view(np.uint8).ravel()
        rows = np.arange(m)
        u_buf = np.empty(m, dtype=np.intp)
        flat_buf = np.empty(m, dtype=np.intp)
        bit_buf = np.empty(m, dtype=np.uint8)
        out = np.empty(n, dtype=np.int64)
        for lo in range(0, n, m):
            B = X[lo:lo + m]
            k = B.shape[0]
            # a NaN fails <= at any node and goes right
            for a, b, f, t in groups:
                np.less_equal(B[:, f], t, out=le[a:b, :k])
            u, flat, bit = u_buf[:k], flat_buf[:k], bit_buf[:k]
            u.fill(1)
            for _ in range(self._depth):
                row_start.take(u, out=flat, mode="clip")
                flat += rows[:k]
                le_bytes.take(flat, out=bit, mode="clip")
                u -= bit
                next_u.take(u, out=flat, mode="clip")
                u, flat = flat, u
            value.take(u, out=out[lo:lo + k], mode="clip")
        return out

    def depth(self) -> int:
        return self._depth

    def check(self, n_features: int, K: int) -> None:
        """Raise ValueError unless the tree fits a model of this shape."""
        internal = self.split_nodes()
        _check_range("tree feature", self.feature[internal], n_features)
        _check_range("tree leaf class", np.delete(self.value, internal), K)

    def to_dict(self) -> dict:
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        kids, value = self.children.tolist(), self.value.tolist()
        # children come after their parent, so a backward pass has them ready
        nodes = [None] * len(value)
        for i in reversed(range(len(value))):
            nodes[i] = {"leaf": value[i]} if threshold[i] == math.inf else {
                "feature": feature[i], "threshold": threshold[i],
                "left": nodes[kids[2 * i]], "right": nodes[kids[2 * i + 1]]}
        return {"kind": self.kind, "max_depth": self.max_depth, "root": nodes[0]}

    @classmethod
    def from_dict(cls, doc: dict) -> "RandomTree":
        max_depth = _integer("tree max_depth", doc["max_depth"])
        feature, threshold, children, value = [], [], [], []
        stack = [(doc["root"], None)]  # (node, its slot in children)
        while stack:
            node, slot = stack.pop()
            i = len(value)
            if slot is not None:
                children[slot] = i
            leaf = "leaf" in node
            thr = math.inf if leaf else _number("tree threshold", node["threshold"])
            if not leaf and not math.isfinite(thr):
                raise ValueError("tree threshold must be finite")
            feature.append(0 if leaf else _integer("tree feature", node["feature"]))
            threshold.append(thr)
            value.append(_integer("tree leaf class", node["leaf"]) if leaf else -1)
            children += [i, i]
            if not leaf:
                stack += [(node["right"], 2 * i + 1), (node["left"], 2 * i)]
        return cls(feature, threshold, children, value, max_depth)


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

    feature, threshold, children, value = [], [], [], []

    def build(idx, depth) -> int:
        """Append the subtree over rows idx in pre-order; its root's index."""
        i = len(value)
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
        f, thr, mask = best or (0, math.inf, None)  # a leaf: feature 0, threshold +inf
        feature.append(f)
        threshold.append(thr)
        value.append(-1 if best else
                     int(np.argmax(_weighted_class_mass(y[idx], w[idx], n_classes))))
        children.extend((i, i))
        if best:
            children[2 * i] = build(idx[mask], depth + 1)
            children[2 * i + 1] = build(idx[~mask], depth + 1)
        return i

    build(np.arange(n), 0)
    return RandomTree(feature, threshold, children, value, max_depth)


def _top_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries per row, in exactly the order
    ``np.argsort(d2, axis=1, kind="stable")[:, :k]`` gives them.

    Each of k passes takes every row's first (lowest-index) minimum and masks
    it with +inf; d2 is restored before returning. While the picked values
    are finite, each pick is the least unpicked value with ties to the lower
    index. A row where some pick is not (a NaN, or +inf within reach) falls
    back to the full stable sort.
    """
    rows = np.arange(d2.shape[0])
    out = np.empty((d2.shape[0], k), dtype=np.intp)
    picked = np.empty((d2.shape[0], k))
    for j in range(k):
        col = d2.argmin(axis=1)
        out[:, j] = col
        picked[:, j] = d2[rows, col]
        d2[rows, col] = np.inf
    # reverse order: a pick taken twice (masked, then picked as +inf) gets
    # its first recorded value back last
    for j in reversed(range(k)):
        d2[rows, out[:, j]] = picked[:, j]
    odd = np.flatnonzero(~np.isfinite(picked).all(axis=1))
    if odd.size:
        out[odd] = np.argsort(d2[odd], axis=1, kind="stable")[:, :k]
    return out


class KnnReference:
    """Reference rows, their labels and k, shared by the k-NN members of one
    boosted ensemble: only the per-reference weights change between rounds.
    """

    def __init__(self, refs, labels, k: int):
        self.refs = np.asarray(refs, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (self.refs.shape[0],):
            raise ValueError("reference labels are not aligned with the reference rows")
        if not 1 <= k <= self.refs.shape[0]:
            raise ValueError(f"k must be in [1, {self.refs.shape[0]}], got {k}")
        self.k = k
        self.n_classes = int(self.labels.max()) + 1

    def neighbours(self, X) -> np.ndarray:
        """Indices of the k nearest references per query row, shape (rows, k).

        Nearest first; distance ties prefer the lower reference index.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        ref_sq = np.einsum("ij,ij->i", self.refs, self.refs)
        out = np.empty((X.shape[0], self.k), dtype=np.intp)
        step = max(1, _BLOCK_ELEMENTS // self.refs.shape[0])
        for lo in range(0, X.shape[0], step):
            # row-contiguous whatever X's layout: BLAS and einsum pick their
            # kernels by layout, and a distance tie can hang on the last bit
            B = np.ascontiguousarray(X[lo:lo + step])
            # |x|^2 - 2 x.r + |r|^2, evaluated in place in that order
            d2 = (2.0 * B) @ self.refs.T
            np.subtract(np.einsum("ij,ij->i", B, B)[:, None], d2, out=d2)
            d2 += ref_sq
            out[lo:lo + step] = _top_k(d2, self.k)
        return out

    def check(self, n_features: int, K: int) -> None:
        """Raise ValueError unless the references fit a model of this shape."""
        if self.refs.shape[1] != n_features:
            raise ValueError(f"k-NN references have {self.refs.shape[1]} features, "
                             f"not {n_features}")
        _check_range("k-NN reference label", self.labels, K)

    def equals(self, other: "KnnReference") -> bool:
        return (
            self.k == other.k
            and np.array_equal(self.refs, other.refs)
            and np.array_equal(self.labels, other.labels)
        )

    def to_dict(self) -> dict:
        return {"refs": self.refs.tolist(), "labels": self.labels.tolist(), "k": self.k}

    @classmethod
    def from_dict(cls, doc: dict) -> "KnnReference":
        labels = [_integer("k-NN reference label", v) for v in doc["labels"]]
        refs = doc["refs"]
        if not {type(v) for row in refs for v in row} <= {int, float}:
            for row in refs:
                for v in row:
                    _number("k-NN reference", v)
        refs = np.array(refs, dtype=np.float64)
        if not np.isfinite(refs).all():
            raise ValueError("k-NN references must be finite")
        return cls(refs, labels, _integer("k-NN k", doc["k"]))


class KnnHypothesis:
    """Weighted-vote k-NN over a shared reference set."""

    kind = "knn"

    def __init__(self, reference: KnnReference, weights):
        self.reference = reference
        self.weights = validate_weights(weights, reference.refs.shape[0])

    def vote(self, nearest: np.ndarray) -> np.ndarray:
        """Class with the largest summed weight among each row's neighbours,
        given ``reference.neighbours(X)``; vote ties take the lower class id.
        """
        return np.argmax(self._vote_sums(nearest), axis=1)

    def _vote_sums(self, nearest: np.ndarray) -> np.ndarray:
        """Summed neighbour weight per (row, class). One bincount over the flat
        index row * C + label adds the weights in input order from 0.0, as
        ``np.add.at`` on a (rows, C) array does, so the sums are its bits.
        """
        n, C = nearest.shape[0], self.reference.n_classes
        flat = self.reference.labels[nearest]
        flat += np.arange(0, n * C, C)[:, None]
        votes = np.bincount(flat.ravel(), weights=self.weights[nearest].ravel(),
                            minlength=n * C)
        return votes.reshape(n, C)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.vote(self.reference.neighbours(X))

    def check(self, n_features: int, K: int) -> None:
        self.reference.check(n_features, K)

    def to_dict(self) -> dict:
        """The member's own state; its ensemble stores the reference set once."""
        return {"kind": self.kind, "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, doc: dict, reference: KnnReference | None = None) -> "KnnHypothesis":
        """Rebuild on the ensemble's reference set; a version-1 document, which
        carries its own ``refs``/``labels``/``k``, needs none.
        """
        if reference is None:
            reference = KnnReference.from_dict(doc)
        return cls(reference, doc["weights"])


def weighted_error(hypothesis, X, y, w) -> float:
    """Total weight on the rows the hypothesis misclassifies."""
    y = np.asarray(y, dtype=np.int64)
    w = validate_weights(w, y.shape[0])
    return float(w[hypothesis.predict(X) != y].sum())


_HYPOTHESIS_KINDS = {
    DecisionStump.kind: DecisionStump,
    RandomTree.kind: RandomTree,
    KnnHypothesis.kind: KnnHypothesis,
}


def hypothesis_from_dict(doc: dict, knn: KnnReference | None = None):
    """Rebuild a member; ``knn`` is its ensemble's k-NN reference set, if any."""
    try:
        cls = _HYPOTHESIS_KINDS[doc["kind"]]
    except KeyError:
        raise ValueError(f"unknown hypothesis kind {doc.get('kind')!r}") from None
    if cls is KnnHypothesis:
        return cls.from_dict(doc, knn)
    return cls.from_dict(doc)
