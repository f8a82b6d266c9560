import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from noisegate import ensemble, learners
from noisegate.learners import (
    DecisionStump,
    KnnHypothesis,
    KnnReference,
    RandomTree,
    StumpIndex,
    _misclassified,
    _top_k,
    train_random_tree,
    train_stump,
    uniform_weights,
    validate_weights,
    weighted_error,
)

from noisegate.data import min_max_scale, partition
from noisegate.ensemble import LearnerConfig, adaboost_train
from noisegate.synthetic import ring_noise_dataset, striped_ring_dataset

from knn_oracle import knn_nearest, knn_predict as knn_oracle
from stump_oracle import train_stump as stump_oracle
import tree_fit_oracle
import tree_oracle


def knn_predict(refs, labels, ref_weights, x, k):
    """The package's prediction for one query row."""
    h = KnnHypothesis(KnnReference(refs, labels, k), ref_weights)
    return int(h.predict(np.atleast_2d(x))[0])


def tie_heavy_grid(rng, n, d=2, side=3):
    """Integer points on a small grid: many repeated rows and equal distances."""
    return rng.integers(0, side, size=(n, d)).astype(np.float64)


def stump_oracle_error(X, y, w):
    """Brute-force enumeration of every (feature, midpoint) stump."""
    n, d = X.shape
    classes = np.unique(y)
    best = min(
        w[y != c].sum() for c in classes  # constant fallback
    )
    for f in range(d):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2
            left = X[:, f] <= thr
            err = 0.0
            for side in (left, ~left):
                side_best = min(w[side & (y != c)].sum() for c in classes)
                err += side_best
            best = min(best, err)
    return best


XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([0, 0, 1, 1])


class TestStump:
    def test_simple_1d_split(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        stump = train_stump(StumpIndex(X, y), uniform_weights(4))
        assert stump.threshold == 2.5
        assert weighted_error(stump, X, y, uniform_weights(4)) == 0.0

    def test_concentrated_weight(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        w = np.array([0.0, 0.0, 1.0, 0.0])
        stump = train_stump(StumpIndex(X, y), w)
        assert weighted_error(stump, X, y, w) == 0.0

    def test_single_class_returns_constant(self):
        X = np.array([[1.0], [5.0]])
        stump = train_stump(StumpIndex(X, np.array([2, 2])), uniform_weights(2))
        assert stump.left == stump.right == 2
        assert np.isfinite(stump.threshold)

    def test_tie_prefers_lowest_feature(self):
        col = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.c_[col, col]  # identical columns, identical best errors
        stump = train_stump(StumpIndex(X, np.array([0, 0, 1, 1])), uniform_weights(4))
        assert stump.feature == 0

    def test_exhaustive_optimality(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(1, 4))
            X = np.round(rng.normal(size=(n, d)), 1)
            y = rng.integers(0, 3, n)
            w = rng.uniform(0.01, 1, n)
            w /= w.sum()
            stump = train_stump(StumpIndex(X, y), w)
            got = weighted_error(stump, X, y, w)
            assert got == pytest.approx(stump_oracle_error(X, y, w), abs=1e-12)

    def test_never_worse_than_best_constant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 50))
            X = rng.normal(size=(n, 3))
            y = rng.integers(0, 4, n)
            w = rng.uniform(0, 1, n)
            w /= w.sum()
            stump = train_stump(StumpIndex(X, y), w)
            const_err = min(w[y != c].sum() for c in np.unique(y))
            assert weighted_error(stump, X, y, w) <= const_err + 1e-12


def random_weights(rng, n, zero_fraction=0.0):
    """Skewed weights summing to 1, a share of them exactly zero."""
    w = rng.random(n) ** 3
    w[rng.random(n) < zero_fraction] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    return w / w.sum()


def assert_stump_matches_oracle(X, y, w, index=None):
    index = StumpIndex(X, y) if index is None else index
    assert train_stump(index, w).to_dict() == stump_oracle(X, y, w).to_dict()


def sparse_columns(rng, n, d):
    """d columns of n // 20 nonzero rows each: at least 90% zeros from n = 10."""
    X = np.zeros((n, d))
    for f in range(d):
        X[rng.choice(n, max(1, n // 20), replace=False), f] = rng.random(max(1, n // 20))
    return X


def awkward_stump_columns(rng, n):
    """Constant columns first, between the others and last, sparse columns,
    and column 5, whose only cut is at position n - 2: every row but one is 0."""
    only_top = np.zeros(n)
    only_top[rng.integers(n)] = 1.0
    return np.c_[np.full(n, 3.0), np.zeros(n), sparse_columns(rng, n, 2), np.full(n, -1.0),
                 only_top, sparse_columns(rng, n, 3), np.full(n, 0.5)]


class TestStumpIndexMatchesOracle:
    @pytest.mark.parametrize("tie_heavy", [False, True], ids=["distinct", "tie-heavy"])
    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_random_fits(self, K, tie_heavy):
        rng = np.random.default_rng(100 * K + tie_heavy)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 6))
            X = tie_heavy_grid(rng, n, d) if tie_heavy else rng.normal(size=(n, d))
            y = rng.integers(0, K, n)
            assert_stump_matches_oracle(X, y, random_weights(rng, n))

    def test_nine_classes_add_pairwise(self):
        # from 8 classes on, numpy sums a row of class masses pairwise
        rng = np.random.default_rng(9)
        for _ in range(20):
            X = tie_heavy_grid(rng, 60, d=3, side=6)
            assert_stump_matches_oracle(X, rng.integers(0, 9, 60), random_weights(rng, 60))

    @pytest.mark.parametrize("K", range(2, 13))
    def test_class_planes_add_like_one_row_sum(self, K):
        # per-class planes must give the (cut, class) row sum bit for bit;
        # magnitudes far apart make any other addition order round differently
        rng = np.random.default_rng(K)
        mass = rng.random((50, 4, K)) * 10.0 ** rng.integers(-8, 8, (50, 4, K))
        planes = [np.ascontiguousarray(mass[..., c]) for c in range(K)]
        assert np.array_equal(_misclassified(planes),
                              mass.sum(axis=-1) - mass.max(axis=-1))

    def test_constant_and_cutless_columns(self):
        rng = np.random.default_rng(4)
        n = 12
        y = rng.integers(0, 3, n)
        w = random_weights(rng, n)
        assert_stump_matches_oracle(np.full((n, 3), 2.5), y, w)
        X = np.c_[np.zeros(n), tie_heavy_grid(rng, n, d=1), np.full(n, -1.0)]
        assert_stump_matches_oracle(X, y, w)

    def test_zero_weight_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            X = tie_heavy_grid(rng, n, d=3)
            y = rng.integers(0, 3, n)
            assert_stump_matches_oracle(X, y, random_weights(rng, n, zero_fraction=0.5))

    @pytest.mark.parametrize("X", [[[0.0], [1.0]], [[1.0], [1.0]], [[3.0, 1.0], [2.0, 1.0]]])
    def test_two_rows(self, X):
        for y in ([0, 1], [1, 0], [1, 1]):
            for w in ([0.5, 0.5], [0.25, 0.75], [1.0, 0.0]):
                assert_stump_matches_oracle(np.array(X), np.array(y), np.array(w))

    def test_one_row(self):
        for y in ([0], [2]):
            assert_stump_matches_oracle(np.array([[3.0, 1.0]]), np.array(y), np.array([1.0]))

    def test_blocked_columns_match_one_block(self, monkeypatch):
        # 10 rows, 3 classes and a 60-value block: two columns per block
        monkeypatch.setattr(learners, "_BLOCK_ELEMENTS", 60)
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = tie_heavy_grid(rng, 10, d=11)
            y = rng.integers(0, 3, 10)
            assert_stump_matches_oracle(X, y, random_weights(rng, 10, zero_fraction=0.2))

    @pytest.mark.parametrize("K", [2, 3, 9])
    def test_sparse_and_cutless_columns(self, K):
        rng = np.random.default_rng(30 + K)
        for _ in range(20):
            n = int(rng.integers(20, 80))
            X = awkward_stump_columns(rng, n)
            assert (X[:, [2, 3, 6, 7, 8]] == 0.0).mean(axis=0).min() >= 0.9
            y = rng.integers(0, K, n)
            w = random_weights(rng, n, zero_fraction=0.1)
            assert_stump_matches_oracle(X, y, w)
        # the cut at n - 2 separates the classes, so it wins
        y = (X[:, 5] > 0).astype(np.int64)
        stump = train_stump(StumpIndex(X, y), uniform_weights(n))
        assert (stump.feature, stump.threshold) == (5, 0.5)
        assert_stump_matches_oracle(X, y, uniform_weights(n))

    @pytest.mark.parametrize("K", [2, 3])
    def test_block_boundaries_split_the_columns(self, K, monkeypatch):
        # two columns per block: the first block has no cut at all, and the
        # others each pair two different kinds of column
        n = 40
        monkeypatch.setattr(learners, "_BLOCK_ELEMENTS", 2 * n * K)
        rng = np.random.default_rng(40 + K)
        for _ in range(20):
            X = awkward_stump_columns(rng, n)
            y = rng.integers(0, K, n)
            w = random_weights(rng, n, zero_fraction=0.1)
            assert_stump_matches_oracle(X, y, w)

    def test_shared_index_across_weight_vectors(self):
        rng = np.random.default_rng(12)
        X = tie_heavy_grid(rng, 40, d=4, side=5)
        y = rng.integers(0, 3, 40)
        index = StumpIndex(X, y)
        for _ in range(20):
            assert_stump_matches_oracle(X, y, random_weights(rng, 40, 0.1), index)

    def test_index_size_bounded_by_the_features(self):
        # distinct values: every one of the n - 1 positions per column is a cut;
        # X and y are the caller's own arrays, kept without a copy
        X = np.random.default_rng(0).normal(size=(200, 30))
        for K in (2, 3):
            y = np.arange(200) % K
            index = StumpIndex(X, y)
            assert index.X is X and index.y is y
            built = [a for name, a in vars(index).items() if name not in ("X", "y")]
            assert sum(a.nbytes for a in built) <= 2 * X.nbytes


class TestRandomTree:
    def test_pure_node_is_leaf(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        tree = train_random_tree(X, np.full(10, 3), uniform_weights(10), max_depth=4, seed=1)
        assert tree.to_dict() == {"split": [0], "feature": [], "threshold": [], "leaf": [3]}

    def test_xor_solved_at_depth_two(self):
        w = uniform_weights(4)
        tree = train_random_tree(XOR_X, XOR_Y, w, max_depth=2, k_candidates=64, seed=0)
        assert weighted_error(tree, XOR_X, XOR_Y, w) == 0.0

    def test_xor_not_solvable_at_depth_one(self):
        w = uniform_weights(4)
        for seed in range(5):
            tree = train_random_tree(XOR_X, XOR_Y, w, max_depth=1, k_candidates=64, seed=seed)
            assert weighted_error(tree, XOR_X, XOR_Y, w) >= 0.25

    def test_fixed_seed_identical_bytes(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, 30)
        w = uniform_weights(30)
        a = train_random_tree(X, y, w, max_depth=5, k_candidates=3, seed=77)
        b = train_random_tree(X, y, w, max_depth=5, k_candidates=3, seed=77)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_depth_bounded(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, 60)
        for depth in (1, 2, 3):
            tree = train_random_tree(X, y, uniform_weights(60), max_depth=depth, seed=0)
            assert tree._depth <= depth

    def test_never_worse_than_best_constant(self):
        rng = np.random.default_rng(21)
        for seed in range(15):
            n = 40
            X = rng.normal(size=(n, 3))
            y = rng.integers(0, 3, n)
            w = rng.uniform(0, 1, n)
            w /= w.sum()
            tree = train_random_tree(X, y, w, max_depth=3, seed=seed)
            const_err = min(w[y != c].sum() for c in np.unique(y))
            assert weighted_error(tree, X, y, w) <= const_err + 1e-12

    def test_argument_validation(self):
        X = np.zeros((3, 1))
        y = np.zeros(3, dtype=int)
        with pytest.raises(ValueError):
            train_random_tree(X, y, uniform_weights(3), max_depth=0)
        with pytest.raises(ValueError):
            train_random_tree(X, y, uniform_weights(3), k_candidates=0)

    @pytest.mark.parametrize("value, message", [
        (np.nan, "row 2 holds a non-finite value"),
        (np.inf, "row 2 holds a non-finite value"),
        (1e308, "column 1 spans more than float64 holds"),
    ], ids=["nan", "inf", "overflowing-span"])
    def test_bad_values_rejected_before_any_draw(self, value, message):
        X = np.array([[0.0, -1e308], [1.0, 0.5], [2.0, value], [3.0, 0.0]])
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            train_random_tree(X, np.array([0, 1, 0, 1]), uniform_weights(4), seed=rng)
        assert rng.bit_generator.state == state


class TestTreeFitMatchesOracle:
    """The builder against ``tests/tree_fit_oracle.py``: the same tree, bit
    for bit, and the same Generator state after every fit."""

    @staticmethod
    def awkward_columns(rng, n):
        """A constant column, a column of two adjacent floats (a drawn
        threshold lands on one of them), rounded values and a 3-value grid."""
        return np.column_stack([
            np.full(n, 0.25),
            np.where(rng.random(n) < 0.5, 1.0, np.nextafter(1.0, 2.0)),
            np.round(rng.normal(size=n), 1),
            rng.integers(0, 3, n).astype(np.float64),
            rng.normal(size=n),
        ])

    @pytest.mark.parametrize("k_candidates", [None, 3, 20])
    @pytest.mark.parametrize("max_depth", [1, 4, 8])
    @pytest.mark.parametrize("K", [2, 3, 5, 9, 12])  # 9 and 12 sum pairwise
    def test_fits_equal_oracle(self, K, max_depth, k_candidates):
        data = np.random.default_rng([K, max_depth, k_candidates or 0])
        n = 160
        X = self.awkward_columns(data, n)
        y = data.integers(0, K, n)
        mine, theirs = np.random.default_rng(K), np.random.default_rng(K)
        for _ in range(4):  # one Generator through consecutive fits, as boosting does
            w = random_weights(data, n, zero_fraction=0.3)
            got = train_random_tree(X, y, w, max_depth, k_candidates, seed=mine)
            want = tree_fit_oracle.train_random_tree(X, y, w, max_depth, k_candidates,
                                                     seed=theirs)
            assert got.to_dict() == want.to_dict()
            assert mine.bit_generator.state == theirs.bit_generator.state

    def test_boosted_members_equal_oracle(self, monkeypatch):
        data, _ = min_max_scale(ring_noise_dataset(n=600, n_classes=3, seed=3))
        X, y = data.rows(np.arange(600)), data.labels
        got = adaboost_train(X, y, 20, LearnerConfig("tree"), seed=9)
        monkeypatch.setattr(ensemble, "train_random_tree", tree_fit_oracle.train_random_tree)
        want = adaboost_train(X, y, 20, LearnerConfig("tree"), seed=9)
        assert len(got.members) > 10
        assert [a for a, _ in got.members] == [a for a, _ in want.members]
        assert [h.to_dict() for _, h in got.members] == [h.to_dict() for _, h in want.members]


def assert_routes_like_oracle(tree, X):
    got = tree.predict(X)
    want = tree_oracle.predict(tree, X)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def on_every_threshold(tree, X):
    """X with, per internal node, a copy whose split column equals its threshold."""
    copies = [X]
    for i in tree.split_nodes().tolist():
        on = X.copy()
        on[:, tree.feature[i]] = tree.threshold[i]
        copies.append(on)
    return np.vstack(copies)


def from_root(root):
    """The tree whose nested form is root, read from its model-file member."""
    return RandomTree.from_dict(tree_oracle.document(root))


HAND_TREE = {
    "feature": 1, "threshold": 0.5,
    "left": {"leaf": 0},
    "right": {"feature": 0, "threshold": -1.0, "left": {"leaf": 1}, "right": {"leaf": 2}},
}


class TestTreeRoutingMatchesOracle:
    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_trained_trees(self, K):
        rng = np.random.default_rng(K)
        X = rng.normal(size=(150, 3))
        y = rng.integers(0, K, 150)
        w = random_weights(rng, 150)
        probes = np.vstack([X, rng.normal(scale=2.0, size=(200, 3))])
        probes[-5:, rng.integers(3)] = np.nan  # fails <= at any node: goes right
        for max_depth in range(1, 9):
            tree = train_random_tree(X, y, w, max_depth=max_depth, seed=max_depth)
            assert tree._depth == tree_oracle.depth(tree_oracle.nested(tree)) <= max_depth
            assert_routes_like_oracle(tree, probes)

    def test_rows_on_a_threshold_go_left(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        tree = train_random_tree(X, y, uniform_weights(80), max_depth=6, seed=4)
        assert tree.split_nodes().size > 3
        assert_routes_like_oracle(tree, on_every_threshold(tree, X))
        hand = from_root(HAND_TREE)
        rows = np.array([[5.0, 0.5], [-1.0, 0.6], [np.nan, 0.6], [0.0, np.nan]])
        assert hand.predict(rows).tolist() == [0, 1, 2, 2]

    def test_constant_columns(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.full(60, 0.25), rng.normal(size=60), np.zeros(60)])
        y = rng.integers(0, 3, 60)
        for seed in range(4):
            tree = train_random_tree(X, y, uniform_weights(60), max_depth=5, seed=seed)
            assert set(tree.feature[tree.split_nodes()].tolist()) <= {1}
            assert_routes_like_oracle(tree, on_every_threshold(tree, X))

    def test_root_leaf(self):
        tree = from_root({"leaf": 2})
        assert tree._depth == 0
        assert tree.children.tolist() == [0, 0]
        assert tree.predict(np.zeros((4, 2))).tolist() == [2, 2, 2, 2]
        assert_routes_like_oracle(tree, np.zeros((0, 2)))

    def test_row_orders_and_sizes(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(120, 4))
        y = rng.integers(0, 3, 120)
        tree = train_random_tree(X, y, uniform_weights(120), max_depth=5, seed=1)
        want = tree_oracle.predict(tree, X)
        for layout in (np.ascontiguousarray(X), np.asfortranarray(X)):
            assert np.array_equal(tree.predict(layout), want)
            assert np.array_equal(tree.predict(layout[:1]), want[:1])
            assert tree.predict(layout[:0]).shape == (0,)
        assert np.array_equal(tree.predict(X[0]), want[:1])

    def test_blocks_of_rows(self, monkeypatch):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(90, 2))
        tree = train_random_tree(X, rng.integers(0, 3, 90), uniform_weights(90),
                                 max_depth=4, seed=2)
        X[::7, 1] = np.nan
        # blocks of _ROUTE_BYTES // 8 = 4 rows: 22 full ones and a last one of 2
        monkeypatch.setattr(learners, "_ROUTE_BYTES", 4 * 8 + 7)
        assert_routes_like_oracle(tree, X)
        assert_routes_like_oracle(tree, np.asfortranarray(X))

    def test_memory_bounded_by_blocks(self):
        rng = np.random.default_rng(14)
        tree = from_root(complete_tree(rng, 8, 3, 4))
        X = np.asfortranarray(rng.normal(size=(1 << 17, 3)))
        tree.predict(X[:8])  # any first-call allocations happen outside the trace
        tracemalloc.start()
        try:
            out = tree.predict(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured with numpy 2.4: 1.34 MB over the 1 MB output in blocks of
        # 32,768 rows, against 5.4 MB for these rows routed in one block
        assert peak < out.nbytes + (2 << 20)
        assert np.array_equal(out[::1000], tree_oracle.predict(tree, X[::1000]))

    def test_filter_tree_sized_ensemble(self):
        # the benchmark's tree ensemble: 10 partitions of 1000 scaled rows,
        # 50 boosting rounds each; routed at the package's own block sizes
        data, _ = min_max_scale(striped_ring_dataset(10_000, noise_fraction=0.2, seed=101))
        trees = []
        for part in partition(data, 10, seed=7):
            E = adaboost_train(data.rows(part.indices), data.labels[part.indices], 50,
                               LearnerConfig("tree"), seed=part.partition_id)
            trees += [h for _, h in E.members]
        assert len(trees) > 300
        X = np.asfortranarray(np.vstack([data.features] * 2))
        X[::97] = np.nan
        X[5::89, 1] = np.nan
        assert X.flags.f_contiguous
        for tree in trees:
            assert_routes_like_oracle(tree, X)
            assert_routes_like_oracle(tree, X[7:8])
            assert_routes_like_oracle(tree, X[:0])

    def test_deep_tree_arrays_sized_by_its_nodes(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 3))
        y = rng.integers(0, 4, 300)
        tree = train_random_tree(X, y, uniform_weights(300), max_depth=30, seed=0)
        root = tree_oracle.nested(tree)
        n_nodes = tree_oracle.node_count(root)
        assert tree._depth == tree_oracle.depth(root) > 8
        for arr in (tree.feature, tree.threshold, tree.value):
            assert arr.shape == (n_nodes,)
        assert tree.children.shape == (2 * n_nodes,)
        assert_routes_like_oracle(tree, np.vstack([X, rng.normal(size=(100, 3))]))


def assert_document_types(doc):
    """Keys in the file's order; int flags, features and leaves, float thresholds."""
    assert list(doc) == ["split", "feature", "threshold", "leaf"]
    assert set(doc["split"]) <= {0, 1}
    for key, kind in (("split", int), ("feature", int), ("threshold", float), ("leaf", int)):
        assert all(type(v) is kind for v in doc[key]), key


def complete_tree(rng, depth, d, K):
    """A nested tree with every leaf at ``depth``: 2 ** depth leaves."""
    if depth == 0:
        return {"leaf": int(rng.integers(K))}
    return {"feature": int(rng.integers(d)), "threshold": float(rng.normal()),
            "left": complete_tree(rng, depth - 1, d, K),
            "right": complete_tree(rng, depth - 1, d, K)}


def assert_same_arrays(a, b):
    for name in ("feature", "threshold", "children", "value"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a._depth == b._depth


class TestTreeLayout:
    def test_pre_order_arrays(self):
        tree = from_root(HAND_TREE)
        assert tree.feature.tolist() == [1, 0, 0, 0, 0]
        assert tree.threshold.tolist() == [0.5, np.inf, -1.0, np.inf, np.inf]
        assert tree.children.tolist() == [1, 2, 1, 1, 3, 4, 3, 3, 4, 4]
        assert tree.value[[1, 3, 4]].tolist() == [0, 1, 2]
        assert tree.split_nodes().tolist() == [0, 2]
        assert tree._depth == 2
        assert tree.to_dict() == {"split": [1, 0, 1, 0, 0], "feature": [1, 0],
                                  "threshold": [0.5, -1.0], "leaf": [0, 1, 2]}
        assert tree_oracle.nested(tree) == HAND_TREE

    def test_round_trip_rebuilds_equal_arrays(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(100, 3))
        y = rng.integers(0, 4, 100)
        trees = [train_random_tree(X, y, uniform_weights(100), max_depth=d, seed=d)
                 for d in range(1, 7)]
        trees += [from_root({"leaf": 3}), from_root(complete_tree(rng, 6, 3, 4))]
        assert [t._depth for t in trees[:6]] == list(range(1, 7))
        assert (~np.isfinite(trees[-1].threshold)).sum() == 64
        probes = np.vstack([X, rng.normal(scale=2.0, size=(200, 3))])
        probes[-5:, 1] = np.nan
        for tree in trees:
            back = RandomTree.from_dict(json.loads(json.dumps(tree.to_dict())))
            assert_same_arrays(tree, back)
            assert np.array_equal(back.predict(probes), tree.predict(probes))
            assert_routes_like_oracle(back, probes)

    def test_document_unchanged_by_predict(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 2))
        tree = train_random_tree(X, rng.integers(0, 2, 60), uniform_weights(60),
                                 max_depth=4, seed=5)
        before = json.dumps(tree.to_dict())
        tree.predict(X)
        assert json.dumps(tree.to_dict()) == before
        assert set(tree.to_dict()) == {"split", "feature", "threshold", "leaf"}

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_document_round_trip_keeps_its_bytes(self, K):
        rng = np.random.default_rng(20 + K)
        X = rng.normal(size=(120, 3))
        X[:, 1] = 0.5  # a constant column never splits
        y = rng.integers(0, K, 120)
        w = random_weights(rng, 120)
        trees = [train_random_tree(X, y, w, max_depth=d, seed=d) for d in (1, 4, 30)]
        # leaf-only roots: a pure node, and no column that splits
        trees += [train_random_tree(X, np.full(120, K - 1), w, seed=0),
                  train_random_tree(np.zeros_like(X), y, w, seed=0)]
        assert trees[2]._depth > 4 and trees[-1]._depth == trees[-2]._depth == 0
        for tree in trees:
            doc = tree.to_dict()
            assert_document_types(doc)
            assert tree_oracle.document(tree_oracle.nested(tree)) == doc
            back = RandomTree.from_dict(json.loads(json.dumps(doc)))
            assert json.dumps(back.to_dict()) == json.dumps(doc)
            for t in (tree, back):
                assert not hasattr(t, "root")
                assert all(isinstance(v, (np.ndarray, int)) for v in vars(t).values())

    def test_non_finite_threshold_rejected(self):
        with pytest.raises(ValueError, match="tree threshold must be finite"):
            from_root({"feature": 0, "threshold": float("nan"),
                       "left": {"leaf": 0}, "right": {"leaf": 1}})

    @pytest.mark.parametrize("split, message", [
        ([], "tree split mask leaves 1 child slots empty"),
        ([1, 0], "tree split mask leaves 1 child slots empty"),
        ([1, 1, 0, 0], "tree split mask leaves 1 child slots empty"),
        ([1, 1, 0], "tree split mask leaves 2 child slots empty"),
        ([0, 0], "tree node 1 has no parent"),
        ([1, 0, 0, 1, 0, 0], "tree node 3 has no parent"),
    ])
    def test_split_mask_must_be_a_pre_order_full_binary_tree(self, split, message):
        # the other arrays fit the mask, so only its shape is at fault
        doc = {"split": split,
               "feature": [0] * sum(split), "threshold": [0.5] * sum(split),
               "leaf": [0] * (len(split) - sum(split))}
        with pytest.raises(ValueError, match=re.escape(message)):
            RandomTree.from_dict(doc)

    @pytest.mark.parametrize("key, change", [
        ("feature", lambda v: v[:-1]), ("threshold", lambda v: v + [0.5]),
        ("leaf", lambda v: v[1:]), ("leaf", lambda v: v + [0]),
    ])
    def test_array_lengths_must_fit_the_mask(self, key, change):
        doc = tree_oracle.document(HAND_TREE)
        doc[key] = change(doc[key])
        with pytest.raises(ValueError, match="tree has 2 split nodes and 3 leaves, but"):
            RandomTree.from_dict(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("split", True, "tree split flag must be an integer, got True"),
        ("split", 1.0, "tree split flag must be an integer, got 1.0"),
        ("split", 2, "tree split flag 2 is not in [0, 2)"),
        ("split", -1, "tree split flag -1 is not in [0, 2)"),
        ("feature", "1", "tree feature must be an integer, got '1'"),
        ("leaf", False, "tree leaf class must be an integer, got False"),
        ("leaf", None, "tree leaf class must be an integer, got None"),
        ("threshold", None, "tree threshold must be a number, got None"),
        ("threshold", float("-inf"), "tree threshold must be finite"),
    ])
    def test_array_values_checked(self, key, value, message):
        doc = tree_oracle.document(HAND_TREE)
        doc[key][0] = value
        with pytest.raises(ValueError) as err:
            RandomTree.from_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("key", ["split", "feature", "threshold", "leaf"])
    def test_arrays_must_be_json_arrays(self, key):
        doc = tree_oracle.document(HAND_TREE)
        doc[key] = {"0": doc[key][0]}
        with pytest.raises(TypeError, match="values must be a JSON array$"):
            RandomTree.from_dict(doc)


class TestKnn:
    def test_exact_match_k1(self):
        refs = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        labels = np.array([0, 1, 2])
        assert knn_predict(refs, labels, uniform_weights(3), [5.0, 5.0], k=1) == 1

    def test_k_equals_n_is_weighted_majority(self):
        refs = np.random.default_rng(0).normal(size=(6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        w = np.array([0.1, 0.1, 0.1, 0.3, 0.2, 0.2])
        assert knn_predict(refs, labels, w, [100.0, 100.0], k=6) == 1

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            refs = rng.normal(size=(5, 2))
            labels = rng.integers(0, 3, 5)
            w = rng.uniform(0.01, 1, 5)
            w /= w.sum()
            x = rng.normal(size=2)
            assert knn_predict(refs, labels, w, x, k=3) == knn_oracle(refs, labels, w, x, k=3)

    def test_tie_heavy_grid_matches_oracle_for_every_k(self):
        rng = np.random.default_rng(12)
        refs = tie_heavy_grid(rng, 13)
        labels = rng.integers(0, 3, 13)
        w = rng.uniform(0.01, 1, 13)
        w /= w.sum()
        queries = tie_heavy_grid(rng, 40)
        for k in range(1, 14):
            h = KnnHypothesis(KnnReference(refs, labels, k), w)
            nearest = h.reference.neighbours(queries)
            assert nearest.tolist() == [knn_nearest(refs, x, k) for x in queries]
            assert h.predict(queries).tolist() == [
                knn_oracle(refs, labels, w, x, k) for x in queries
            ]

    def test_k_out_of_range(self):
        refs = np.zeros((3, 1))
        with pytest.raises(ValueError):
            knn_predict(refs, np.zeros(3, dtype=int), uniform_weights(3), [0.0], k=4)
        with pytest.raises(ValueError):
            knn_predict(refs, np.zeros(3, dtype=int), uniform_weights(3), [0.0], k=0)

    def test_distance_tie_prefers_lower_index(self):
        refs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
        labels = np.array([0, 1, 2])
        # both first refs are at distance 1 from the origin
        assert knn_predict(refs, labels, uniform_weights(3), [0.0, 0.0], k=1) == 0

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_vote_sums_equal_add_at_bit_for_bit(self, K):
        rng = np.random.default_rng(K)
        n_refs = 30
        labels = np.arange(n_refs) % K
        # a few repeated weights, so summed votes tie across classes
        w = rng.choice([0.1, 0.2, 0.3, 1 / 3], size=n_refs)
        w /= w.sum()
        h = KnnHypothesis(KnnReference(rng.normal(size=(n_refs, 2)), labels, 7), w)
        nearest = rng.integers(0, n_refs, size=(200, 7))
        votes = np.zeros((200, K))
        np.add.at(votes, (np.repeat(np.arange(200), 7), labels[nearest].ravel()),
                  w[nearest].ravel())
        assert h._vote_sums(nearest).tobytes() == votes.tobytes()
        assert np.array_equal(h.vote(nearest), np.argmax(votes, axis=1))


class TestNeighbourSearch:
    def test_top_k_matches_stable_argsort(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n, m = rng.integers(1, 25, size=2)
            d2 = rng.integers(0, 4, size=(n, m)).astype(np.float64)  # many ties
            for k in range(1, m + 1):
                assert np.array_equal(
                    _top_k(d2, k), np.argsort(d2, axis=1, kind="stable")[:, :k]
                )

    def test_top_k_non_finite_matches_stable_argsort_and_keeps_input(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n, m = rng.integers(1, 25, size=2)
            d2 = rng.integers(0, 4, size=(n, m)).astype(np.float64)  # many ties
            d2[rng.random((n, m)) < 0.2] = np.inf
            d2[rng.random((n, m)) < 0.05] = np.nan
            d2[rng.random((n, m)) < 0.02] = -np.inf
            before = d2.tobytes()
            for k in range(1, m + 1):
                assert np.array_equal(
                    _top_k(d2, k), np.argsort(d2, axis=1, kind="stable")[:, :k]
                )
                assert d2.tobytes() == before

    def test_overflowing_queries_match_stable_argsort(self):
        # 1e200 and 1e155 square past the float range: those rows' distances
        # are all +inf, and the nearest are the first k references
        rng = np.random.default_rng(16)
        refs = rng.normal(size=(9, 2))
        queries = np.array([[1e200, 0.0], [0.3, -0.2], [1e155, 1e155], [0.0, -1e200]])
        with np.errstate(over="ignore"):
            d2 = ((queries[:, None, :] - refs[None, :, :]) ** 2).sum(axis=2)
        assert np.isinf(d2[[0, 2, 3]]).all()
        for k in range(1, 10):
            ref = KnnReference(refs, rng.integers(0, 2, 9), k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                nearest = ref.neighbours(queries)
            assert np.array_equal(nearest, np.argsort(d2, axis=1, kind="stable")[:, :k])

    @pytest.mark.parametrize("n_queries", [1, 6, 7, 8, 29])
    def test_blocked_query_matches_full_sort(self, monkeypatch, n_queries):
        # 7 references and a 14-distance block: two query rows per block
        monkeypatch.setattr(learners, "_BLOCK_ELEMENTS", 14)
        rng = np.random.default_rng(n_queries)
        refs = tie_heavy_grid(rng, 7, d=3)
        queries = tie_heavy_grid(rng, n_queries, d=3)
        d2 = ((queries[:, None, :] - refs[None, :, :]) ** 2).sum(axis=2)
        for k in range(1, 8):
            ref = KnnReference(refs, rng.integers(0, 2, 7), k)
            assert np.array_equal(
                ref.neighbours(queries), np.argsort(d2, axis=1, kind="stable")[:, :k]
            )

    def test_column_major_queries_match_row_major(self):
        # tenths on a coarse grid: many distances tie up to the last bit, and
        # 2000 queries against 600 references span two blocks
        rng = np.random.default_rng(14)
        refs = rng.integers(0, 4, size=(600, 7)) * 0.1
        queries = rng.integers(0, 4, size=(2000, 7)) * 0.1
        ref = KnnReference(refs, rng.integers(0, 3, 600), 5)
        assert np.array_equal(ref.neighbours(np.asfortranarray(queries)),
                              ref.neighbours(queries))


class TestWeightedError:
    def test_perfect_hypothesis(self):
        X = np.array([[0.0], [1.0]])
        stump = DecisionStump(0, 0.5, 0, 1)
        assert weighted_error(stump, X, np.array([0, 1]), uniform_weights(2)) == 0.0

    def test_constant_on_balanced_binary(self):
        X = np.zeros((4, 1))
        stump = DecisionStump(0, 0.0, 1, 1)
        assert weighted_error(stump, X, np.array([0, 1, 0, 1]), uniform_weights(4)) == 0.5

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 2))
        y = rng.integers(0, 2, 20)
        w = rng.uniform(0, 1, 20)
        w /= w.sum()
        stump = train_stump(StumpIndex(X, y), w)
        preds = stump.predict(X)
        assert weighted_error(stump, X, y, w) == pytest.approx(
            sum(w[i] for i in range(20) if preds[i] != y[i]), abs=1e-12
        )

    def test_invalid_weights_rejected(self):
        X = np.zeros((2, 1))
        stump = DecisionStump(0, 0.0, 0, 0)
        with pytest.raises(ValueError, match="sum"):
            weighted_error(stump, X, np.array([0, 0]), np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_error(stump, X, np.array([0, 0]), np.array([1.5, -0.5]))


class TestSerialization:
    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 3))
        y = rng.integers(0, 3, 12)
        w = uniform_weights(12)
        hyps = [
            train_stump(StumpIndex(X, y), w),
            train_random_tree(X, y, w, max_depth=3, seed=2),
            KnnHypothesis(KnnReference(X, y, 3), w),
        ]
        probes = rng.normal(size=(40, 3))
        for h in hyps:
            # a k-NN member stores only its weights; the reference set comes back
            # from its ensemble
            doc = json.loads(json.dumps(h.to_dict()))
            back = (KnnHypothesis.from_dict(doc, hyps[2].reference) if h.kind == "knn"
                    else type(h).from_dict(doc))
            assert np.array_equal(h.predict(probes), back.predict(probes))

    @pytest.mark.parametrize("fields, message", [
        ({"labels": [0.7, 1]}, "k-NN reference label must be an integer, got 0.7"),
        ({"labels": [0, "1"]}, "k-NN reference label must be an integer, got '1'"),
        ({"k": "1"}, "k-NN k must be an integer, got '1'"),
    ])
    def test_knn_reference_rejects_non_integers(self, fields, message):
        doc = {"refs": [[0.0, 1.0], [1.0, 0.0]], "labels": [0, 1], "k": 1, **fields}
        with pytest.raises(ValueError) as err:
            KnnReference.from_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("value, message", [
        ("0.5", "k-NN reference must be a number, got '0.5'"),
        (True, "k-NN reference must be a number, got True"),
        (None, "k-NN reference must be a number, got None"),
        (float("nan"), "k-NN references must be finite"),
        (float("inf"), "k-NN references must be finite"),
    ])
    def test_knn_reference_rejects_non_numbers(self, value, message):
        doc = {"refs": [[0.0, 1.0], [1.0, value]], "labels": [0, 1], "k": 1}
        with pytest.raises(ValueError) as err:
            KnnReference.from_dict(doc)
        assert str(err.value) == message

    def test_knn_reference_integer_refs_load(self):
        ref = KnnReference.from_dict({"refs": [[0, 1], [1, 0.5]], "labels": [0, 1], "k": 1})
        assert ref.refs.dtype == np.float64
        assert ref.refs.tolist() == [[0.0, 1.0], [1.0, 0.5]]

    @pytest.mark.parametrize("value, message", [
        (True, "stump threshold must be a number, got True"),
        ("0.5", "stump threshold must be a number, got '0.5'"),
        (float("nan"), "stump threshold must be finite"),
    ])
    def test_stump_threshold_must_be_a_finite_number(self, value, message):
        doc = {"feature": 0, "threshold": value, "left": 0, "right": 1}
        with pytest.raises(ValueError) as err:
            DecisionStump.from_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("value, message", [
        (True, "tree threshold must be a number, got True"),
        ("0.5", "tree threshold must be a number, got '0.5'"),
        (float("inf"), "tree threshold must be finite"),
    ])
    def test_tree_threshold_must_be_a_finite_number(self, value, message):
        doc = {"split": [1, 0, 0], "feature": [0], "threshold": [value], "leaf": [0, 1]}
        with pytest.raises(ValueError) as err:
            RandomTree.from_dict(doc)
        assert str(err.value) == message

    def test_integer_thresholds_load(self):
        stump = DecisionStump.from_dict({"feature": 0, "threshold": 1, "left": 0, "right": 1})
        tree = RandomTree.from_dict({"split": [1, 0, 0], "feature": [0], "threshold": [1],
                                     "leaf": [0, 1]})
        X = np.array([[0.5], [1.0], [1.5]])
        assert stump.predict(X).tolist() == tree.predict(X).tolist() == [0, 0, 1]


def test_validate_weights_shape():
    with pytest.raises(ValueError, match="shape"):
        validate_weights(np.ones(3) / 3, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_weights_rejects_non_finite(bad):
    # NaN passes both the sign and the sum check, so it needs its own
    with pytest.raises(ValueError) as err:
        validate_weights([0.5, 0.5, bad], 3)
    assert str(err.value) == "weights must be finite"
