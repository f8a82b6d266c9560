import math
from collections import Counter

import numpy as np
import pytest

from noisegate.data import Dataset, Partition
from noisegate.noise_filter import (
    default_grid,
    filter_partition,
    gini_impurity,
    ranked_splits,
    scan_split_percentage,
    scan_to_csv,
    split_by_score,
)
from noisegate.ocsvm import KernelSpec


def impurity_naive(labels):
    if not len(labels):
        return 0.0
    counts = Counter(labels)
    return 1.0 - sum((c / len(labels)) ** 2 for c in counts.values())


def scan_naive(labels, scores, grid):
    """From-scratch re-evaluation of the ratio criterion, pure Python."""
    n = len(labels)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    points = []
    for p in grid:
        k = max(1, math.floor(p * n + 0.5))
        clean = [labels[i] for i in order[:k]]
        noisy = [labels[i] for i in order[k:]]
        gc = impurity_naive(clean)
        gn = impurity_naive(noisy)
        ratio = gc / gn if gn > 0 else math.inf
        points.append((p, gc, gn, ratio))
    best = min(points, key=lambda t: (t[3], -t[0]))
    return best[0], points


def ring_noise_dataset(seed, n_in=90, n_out=10, radius=10.0, n_classes=2):
    """Single dominant class plus far ring points with mixed labels."""
    rng = np.random.default_rng(seed)
    inliers = rng.normal(size=(n_in, 2))
    ang = rng.uniform(0, 2 * np.pi, size=n_out)
    outliers = radius * np.c_[np.cos(ang), np.sin(ang)]
    X = np.vstack([inliers, outliers])
    y = np.concatenate([np.zeros(n_in, dtype=int), rng.integers(0, n_classes, n_out)])
    names = [str(k) for k in range(n_classes)]
    return Dataset.from_arrays(X, y, names)


class TestGiniImpurity:
    def test_pure_set_is_zero(self):
        assert gini_impurity([3, 3, 3, 3]) == 0.0

    def test_balanced_binary(self):
        assert gini_impurity([0, 1, 0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_26_classes(self):
        labels = np.repeat(np.arange(26), 4)
        assert gini_impurity(labels) == pytest.approx(1 - 1 / 26, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini_impurity([])

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            labels = rng.integers(0, rng.integers(1, 6), size=rng.integers(1, 40))
            assert gini_impurity(labels) == pytest.approx(impurity_naive(list(labels)), abs=1e-12)


class TestSplitByScore:
    def test_top_scorers_go_clean(self):
        clean, noisy = split_by_score([0, 1, 2], [3.0, 1.0, 2.0], p=2 / 3)
        assert list(clean) == [0, 2]
        assert list(noisy) == [1]

    def test_ties_prefer_lower_index(self):
        clean, noisy = split_by_score([0, 1, 2, 3], [5.0, 5.0, 5.0, 5.0], p=0.5)
        assert list(clean) == [0, 1]
        assert list(noisy) == [2, 3]

    def test_clean_side_never_empty(self):
        clean, noisy = split_by_score([4, 7, 9], [1.0, 3.0, 2.0], p=0.05)
        assert list(clean) == [7]
        assert len(noisy) == 2

    def test_invalid_percentage(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_by_score([0, 1], [1.0, 2.0], p)

    def test_rank_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            idx = rng.permutation(1000)[:n]
            scores = rng.normal(size=n)
            clean, noisy = split_by_score(idx, scores, float(rng.uniform(0.05, 0.95)))
            by_index = dict(zip(idx, scores))
            if len(noisy):
                assert min(by_index[i] for i in clean) >= max(by_index[i] for i in noisy)
            assert sorted(list(clean) + list(noisy)) == sorted(idx)


class TestScanSplitPercentage:
    def test_single_class_picks_largest_percentage(self):
        best, scan = scan_split_percentage([1] * 20, np.arange(20.0), default_grid())
        assert best == 0.95
        assert all(pt.gini_clean == 0 for pt in scan)

    def test_constructed_90_10(self):
        rng = np.random.default_rng(1)
        labels = np.concatenate([np.zeros(90, dtype=int), rng.integers(0, 2, 10)])
        scores = np.concatenate([rng.uniform(1, 2, 90), rng.uniform(-2, -1, 10)])
        grid = [round(0.1 * i, 10) for i in range(1, 10)]
        best, scan = scan_split_percentage(labels, scores, grid)
        assert best == 0.9
        naive_best, naive_points = scan_naive(list(labels), list(scores), grid)
        assert naive_best == best
        for pt, (p, gc, gn, ratio) in zip(scan, naive_points):
            assert pt.p == p
            assert pt.gini_clean == pytest.approx(gc, abs=1e-12)
            assert pt.gini_noisy == pytest.approx(gn, abs=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_split_percentage([0, 1], [1.0, 2.0], [])

    def test_grid_values_validated(self):
        with pytest.raises(ValueError):
            scan_split_percentage([0, 1], [1.0, 2.0], [0.5, 1.0])

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(42)
        grid = default_grid()
        for _ in range(100):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, rng.integers(1, 5), size=n)
            scores = np.round(rng.normal(size=n), 2)  # force score ties too
            best, scan = scan_split_percentage(labels, scores, grid)
            naive_best, naive_points = scan_naive(list(labels), list(scores), grid)
            assert best == naive_best
            assert [pt.ratio for pt in scan] == pytest.approx(
                [q[3] for q in naive_points], abs=1e-12
            )

    def test_ties_break_toward_larger_p(self):
        # clean side pure at every cut, noisy side mixed: every ratio is 0
        labels = [0, 0, 0, 1, 2]
        scores = [5.0, 4.0, 3.0, 2.0, 1.0]
        best, scan = scan_split_percentage(labels, scores, [0.2, 0.4, 0.6])
        assert [pt.ratio for pt in scan] == [0.0, 0.0, 0.0]
        assert best == 0.6

    def test_ranked_splits_order_by_ratio_then_larger_p(self):
        labels = [0, 0, 0, 1, 2]
        scores = [5.0, 4.0, 3.0, 2.0, 1.0]
        best, scan = scan_split_percentage(labels, scores, [0.2, 0.4, 0.6, 0.8])
        # ratios 0, 0, 0, inf: the three zeros by larger p, then the pure noisy side
        assert [pt.p for pt in ranked_splits(scan)] == [0.6, 0.4, 0.2, 0.8]
        assert ranked_splits(scan)[0].p == best

    def test_pure_noisy_side_ranks_after_finite_ratios(self):
        # at p=0.8 the noisy side is a pure singleton: ratio is infinite and
        # the finite candidate at 0.6 must win despite being smaller
        labels = [0, 0, 0, 1, 2]
        scores = [5.0, 4.0, 3.0, 2.0, 1.0]
        best, scan = scan_split_percentage(labels, scores, [0.6, 0.8])
        assert math.isinf(scan[1].ratio)
        assert best == 0.6


class TestFilterPartition:
    def test_excludes_planted_outliers(self):
        hits = 0
        for seed in range(10):
            ds = ring_noise_dataset(seed)
            part = Partition(np.arange(100), 0)
            res = filter_partition(part, ds, nu=0.5, kernel=KernelSpec("rbf", 0.5), tol=1e-5)
            excluded = set(res.noisy_indices) & set(range(90, 100))
            if len(excluded) >= 9:
                hits += 1
        assert hits >= 9

    def test_clean_side_purer_at_true_noise_rate(self):
        wins = 0
        for seed in range(10):
            ds = ring_noise_dataset(seed)
            part = Partition(np.arange(100), 0)
            res = filter_partition(part, ds, nu=0.5, kernel=KernelSpec("rbf", 0.5), tol=1e-5)
            full = gini_impurity(ds.labels)
            clean = gini_impurity(ds.labels[res.clean_indices])
            if clean < full:
                wins += 1
        assert wins >= 9

    def test_single_class_partition(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_arrays(rng.normal(size=(30, 2)), np.zeros(30, dtype=int))
        res = filter_partition(Partition(np.arange(30), 0), ds, nu=0.5)
        assert res.chosen_p == 0.95
        assert len(res.clean_indices) + len(res.noisy_indices) == 30

    def test_two_point_partition(self):
        ds = Dataset.from_arrays([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        res = filter_partition(Partition(np.arange(2), 0), ds, nu=0.5, grid=[0.5])
        assert len(res.clean_indices) == 1
        assert len(res.noisy_indices) == 1

    def test_too_small_partition(self):
        ds = Dataset.from_arrays([[0.0]], [0])
        with pytest.raises(ValueError, match="fewer than 2"):
            filter_partition(Partition(np.array([0]), 0), ds)

    def test_reported_gini_describes_the_split(self):
        # 0/1 features tie many scores, so scan and split must break ties alike
        rng = np.random.default_rng(14)
        grid = [0.25, 0.5, 0.75]
        for _ in range(200):
            ds = Dataset.from_arrays(rng.integers(0, 2, (16, 1)).astype(float),
                                     rng.integers(0, 2, 16))
            part = Partition(np.sort(rng.choice(16, 8, replace=False)), 0)
            res = filter_partition(part, ds, kernel=KernelSpec("linear"), grid=grid)
            pt = ranked_splits(res.scan)[0]
            assert pt.gini_clean == gini_impurity(ds.labels[res.clean_indices])
            assert pt.gini_noisy == gini_impurity(ds.labels[res.noisy_indices])

    def test_result_invariants(self):
        ds = ring_noise_dataset(0)
        part = Partition(np.arange(100), 0)
        res = filter_partition(part, ds, nu=0.5)
        merged = np.sort(np.concatenate([res.clean_indices, res.noisy_indices]))
        assert np.array_equal(merged, part.indices)
        assert len(res.clean_indices) == max(1, math.floor(res.chosen_p * 100 + 0.5))
        assert len(res.scan) == len(default_grid())
        assert ranked_splits(res.scan)[0].p == res.chosen_p

    def test_monotone_score_transform_is_noop(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, 40)
        scores = rng.normal(size=40)
        grid = default_grid()
        best1, _ = scan_split_percentage(labels, scores, grid)
        best2, _ = scan_split_percentage(labels, np.exp(scores * 2) + 5, grid)
        assert best1 == best2
        c1, n1 = split_by_score(np.arange(40), scores, best1)
        c2, n2 = split_by_score(np.arange(40), np.exp(scores * 2) + 5, best2)
        assert np.array_equal(c1, c2) and np.array_equal(n1, n2)


def test_default_grid_has_19_points_at_nominal_step():
    grid = default_grid(0.05)
    assert len(grid) == 19
    assert grid[0] == 0.05 and grid[-1] == 0.95


def test_scan_csv_format():
    _, scan = scan_split_percentage([0, 1, 0, 1], [4.0, 3.0, 2.0, 1.0], [0.25, 0.5, 0.75])
    text = scan_to_csv(scan)
    lines = text.strip().split("\n")
    assert lines[0] == "p,gini_clean,gini_noisy,ratio"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.25
