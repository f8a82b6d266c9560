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


def _json_array(what: str, values, dtype, ndim: int = 1) -> np.ndarray:
    """A model file's JSON array (of arrays, for ``ndim=2``) as an array of ``dtype``.
    One type check per array; a "0.5" or true, which ``np.array`` would convert, is named."""
    rows = values if ndim == 2 and isinstance(values, list) else [values]
    if not all(isinstance(row, list) for row in rows):
        raise TypeError(f"{what} values must be a JSON array" + " of arrays" * (ndim - 1))
    scalar, types = (_integer, {int}) if np.dtype(dtype).kind == "i" else (_number, {int, float})
    if not {type(v) for row in rows for v in row} <= types:
        for v in itertools.chain.from_iterable(rows):
            scalar(what, v)
    return np.array(values, dtype=dtype)


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
        return {"feature": self.feature, "threshold": self.threshold,
                "left": self.left, "right": self.right}

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionStump":
        return cls(_integer("stump feature", doc["feature"]),
                   _number("stump threshold", doc["threshold"]),
                   _integer("stump class", doc["left"]), _integer("stump class", doc["right"]))


# Temporaries stay near this many elements for any input: the stump search
# takes columns in blocks of this many (row, column, class) values, which
# bounds the class masses it gathers at a block's cuts (at most n - 1 per
# column and class), while the block's weights and prefix sums take n and
# n + K values per column; the k-NN search takes query rows in blocks of this
# many distances. Columns are independent, so blocking cannot change a stump.
# A k-NN query set that fits one block gets one matrix product; BLAS picks
# kernels by shape, so cutting a product into row blocks can change its last
# bit.
_BLOCK_ELEMENTS = 1 << 20
# RandomTree.predict and the vote's tree ranking take _ROUTE_BYTES // 8 rows
# at a time, and the vote's tree tables size their blocks by it too: each
# temporary holds about this many bytes, however many rows a call is given.
_ROUTE_BYTES = 1 << 18


class StumpIndex:
    """One training set's columns and labels, sorted once and shared by every
    stump fit of one boosted ensemble: only the weights change between rounds.

    ``rows[f]`` holds column f's rows class by class, class c's at
    ``first[c]:first[c + 1]`` in the column's stable sort order. A fit sums
    each class's weights along its run into a (column, n + K) layout that
    puts class c's run one slot right of a 0.0 at ``first[c] + c``. A cut lies
    between sorted positions i and i + 1 that hold distinct values;
    ``cuts[c]`` holds per cut the flat index, in that layout, of class c's sum
    over the column's first i + 1 rows. Column f's cuts are
    ``cuts[:, start[f]:start[f + 1]]``, in sort order. The indices are int32
    while the layout holds fewer than 2**31 values, so a column takes 4 bytes
    per row plus 4 K per cut, at most n - 1 cuts, against its 8 bytes per row
    in X.
    """

    def __init__(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        self.first = np.concatenate(([0], np.cumsum(np.bincount(y))))
        K = self.first.size - 1
        zero = self.first[:-1] + np.arange(K)
        dtype = np.int32 if d * (n + K) < 2**31 else np.intp
        order = np.argsort(X.T, axis=1, kind="stable")
        labels = y[order]
        vals = np.take_along_axis(X.T, order, axis=1)
        column, pos = np.nonzero(vals[:, :-1] < vals[:, 1:])
        self.start = np.searchsorted(column, np.arange(d + 1)).astype(dtype)
        self.cuts = np.empty((K, column.size), dtype=dtype)
        base = column * (n + K)
        place = np.empty((d, n), dtype=dtype)  # each sorted position's place in rows
        for c in range(K):
            is_c = labels == c
            seen = np.cumsum(is_c, axis=1, dtype=dtype)  # class c's rows up to each position
            np.add(base + zero[c], seen[column, pos], out=self.cuts[c])
            np.copyto(place, seen + (self.first[c] - 1), where=is_c)
        self.rows = np.empty((d, n), dtype=dtype)
        np.put_along_axis(self.rows, place, order, axis=1)

    def check(self, X, y) -> None:
        """Raise ValueError unless the index was built from X's shape and labels y."""
        d, n = self.rows.shape
        if X.shape != (n, d):
            raise ValueError(f"stump index is for shape {(n, d)}, not {X.shape}")
        K = self.first.size - 1
        if y.shape != (n,) or d and not np.array_equal(
                y[self.rows[0]], np.repeat(np.arange(K), np.diff(self.first))):
            raise ValueError("stump index was built with other labels")


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
    is the index of (X, y); without one the fit builds its own.

    Each class's mass left of a cut is its prefix sum in the index's layout:
    the running sum the one-hot search takes along the whole column, since
    adding another class's 0.0 changes no sum.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    w = validate_weights(w, n)
    if index is None:
        index = StumpIndex(X, y)
    else:
        index.check(X, y)
    n_classes = int(y.max()) + 1
    total_mass = _weighted_class_mass(y, w, n_classes)
    majority = int(np.argmax(total_mass))
    best_err = float(total_mass.sum() - total_mass.max())
    if n_classes < 2:
        return DecisionStump(0, 0.0, majority, majority)
    # per column: least error over its cuts, the first cut where it falls,
    # and the class masses left of that cut
    col_err = np.full(d, np.inf)
    col_cut = np.zeros(d, dtype=np.intp)
    col_left = np.empty((n_classes, d))
    width = n + n_classes
    first = index.first.tolist()
    zero = index.first[:-1] + np.arange(n_classes)
    step = max(1, _BLOCK_ELEMENTS // (n * n_classes))
    sums = np.empty((min(step, d), width))
    sums[:, zero] = 0.0
    for lo in range(0, d, step):
        start = index.start[lo:lo + step + 1]
        cols = np.flatnonzero(start[:-1] < start[1:])
        if cols.size == 0:
            continue
        block = w.take(index.rows[lo:lo + step])
        for c in range(n_classes):
            a, b = first[c], first[c + 1]
            np.cumsum(block[:, a:b], axis=1, out=sums[:block.shape[0], a + c + 1:b + c + 1])
        flat = sums.ravel()
        left = [flat.take(cut - lo * width) for cut in index.cuts[:, start[0]:start[-1]]]
        err = _misclassified(left)
        err += _misclassified([t - m for t, m in zip(total_mass, left)])
        group = (start[cols] - start[0]).astype(np.intp)  # each column's first cut
        least = np.minimum.reduceat(err, group)
        hit = err == np.repeat(least, np.diff(start)[cols])
        cut = np.minimum.reduceat(np.where(hit, np.arange(err.size), err.size), group)
        col_err[lo + cols] = least
        col_cut[lo + cols] = cut + start[0]
        for c, m in enumerate(left):
            col_left[c, lo + cols] = m[cut]
    best = None
    for f, err_f in enumerate(col_err.tolist()):
        if err_f < best_err - 1e-15:
            best_err, best = err_f, f
    if best is None:
        return DecisionStump(0, 0.0, majority, majority)
    # the rows left of the cut: per class, its sum's index past its 0.0
    i = int((index.cuts[:, col_cut[best]] - (best * width + zero)).sum())
    below, above = np.partition(X[:, best], (i - 1, i))[i - 1:i + 1]
    left_mass = col_left[:, best]
    return DecisionStump(best, float((below + above) / 2.0),
                         int(np.argmax(left_mass)), int(np.argmax(total_mass - left_mass)))


class RandomTree:
    """Randomized splitter; rows with x[feature] <= threshold go left.

    Built from its pre-order form, as training grows it and the model file
    stores it (a ``split`` flag per node, the split nodes' features and
    thresholds, the leaves' classes), it holds four flat pre-order node
    arrays: ``feature``, ``threshold``, ``children`` (left and right of node i
    at 2i and 2i + 1) and ``value``. A leaf's children are the leaf itself and
    its threshold is +inf, so a row that has reached a leaf stays there.
    """

    kind = "tree"

    def __init__(self, split, feature, threshold, leaf):
        """One pass over ``split`` derives the children and the depth: each node
        fills the last open child slot, and a split node opens its right, then its
        left slot. A mask that leaves a node no slot, or slots open at its end, is
        not a pre-order full binary tree."""
        split = np.asarray(split, dtype=bool)
        n, n_split = split.size, int(split.sum())
        if (len(feature), len(threshold), len(leaf)) != (n_split, n_split, n - n_split):
            raise ValueError(f"tree has {n_split} split nodes and {n - n_split} leaves, but "
                             f"{len(feature)} features, {len(threshold)} thresholds and "
                             f"{len(leaf)} leaf classes")
        children = [0] * (2 * n + 1)
        slots = [(2 * n, 0)]  # (child slot, its depth); the root's is one past the children
        self._depth = 0
        for i, is_split in enumerate(split.tolist()):
            if not slots:
                raise ValueError(f"tree node {i} has no parent: the split mask is not "
                                 "a pre-order full binary tree")
            slot, depth = slots.pop()
            children[slot] = i
            if is_split:
                slots += ((2 * i + 1, depth + 1), (2 * i, depth + 1))
            else:
                children[2 * i] = children[2 * i + 1] = i
                self._depth = max(self._depth, depth)
        if slots:
            raise ValueError(f"tree split mask leaves {len(slots)} child slots empty: it is "
                             "not a pre-order full binary tree")
        self.feature = np.zeros(n, dtype=np.intp)
        self.threshold = np.full(n, math.inf)
        self.value = np.full(n, -1, dtype=np.int64)
        self.feature[split], self.threshold[split], self.value[~split] = feature, threshold, leaf
        self.children = np.array(children[:-1], dtype=np.intp)

    def split_nodes(self) -> np.ndarray:
        """The internal nodes, in pre-order: those with a finite threshold."""
        return np.flatnonzero(np.isfinite(self.threshold))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route rows level by level: each of ``depth()`` steps moves a row at
        node i to ``children[2i]`` if its value at ``feature[i]`` is ``<=``
        ``threshold[i]``, else to ``children[2i + 1]``. A NaN goes right and a
        row at a leaf stays there. Rows go in blocks of ``_ROUTE_BYTES // 8``,
        so the temporaries do not grow with the input.

        Boosting calls this on its training rows; the vote only for a tree
        ensemble that its threshold tables cannot take.
        """
        X = np.atleast_2d(X)
        n, m = X.shape[0], _ROUTE_BYTES // 8
        out = np.empty(n, dtype=np.int64)
        for lo in range(0, n, m):
            B = X[lo:lo + m]
            rows = np.arange(B.shape[0])
            node = np.zeros(B.shape[0], dtype=np.intp)
            for _ in range(self._depth):
                node = self.children[2 * node + ~(B[rows, self.feature[node]]
                                                   <= self.threshold[node])]
            out[lo:lo + m] = self.value[node]
        return out

    def check(self, n_features: int, K: int) -> None:
        """Raise ValueError unless the tree fits a model of this shape."""
        split = np.isfinite(self.threshold)
        _check_range("tree feature", self.feature[split], n_features)
        _check_range("tree leaf class", self.value[~split], K)

    def to_dict(self) -> dict:
        split = np.isfinite(self.threshold)
        return {"split": split.view(np.uint8).tolist(), "feature": self.feature[split].tolist(),
                "threshold": self.threshold[split].tolist(), "leaf": self.value[~split].tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "RandomTree":
        split = _json_array("tree split flag", doc["split"], np.int64)
        _check_range("tree split flag", split, 2)
        threshold = _json_array("tree threshold", doc["threshold"], np.float64)
        if not np.isfinite(threshold).all():
            raise ValueError("tree threshold must be finite")
        return cls(split, _json_array("tree feature", doc["feature"], np.intp), threshold,
                   _json_array("tree leaf class", doc["leaf"], np.int64))


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

    def to_dict(self) -> dict:
        return {"refs": self.refs.tolist(), "labels": self.labels.tolist(), "k": self.k}

    @classmethod
    def from_dict(cls, doc: dict) -> "KnnReference":
        labels = _json_array("k-NN reference label", doc["labels"], np.int64)
        refs = _json_array("k-NN reference", doc["refs"], np.float64, ndim=2)
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
        return {"weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, doc: dict, reference: KnnReference) -> "KnnHypothesis":
        return cls(reference, _json_array("k-NN weight", doc["weights"], np.float64))


def weighted_error(hypothesis, X, y, w) -> float:
    """Total weight on the rows the hypothesis misclassifies."""
    y = np.asarray(y, dtype=np.int64)
    w = validate_weights(w, y.shape[0])
    return float(w[hypothesis.predict(X) != y].sum())


# each learner by its one name in --learner, LearnerConfig and a model file
_HYPOTHESIS_KINDS = {
    DecisionStump.kind: DecisionStump,
    RandomTree.kind: RandomTree,
    KnnHypothesis.kind: KnnHypothesis,
}
