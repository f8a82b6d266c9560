import warnings

import numpy as np
import pytest

from noisegate.data import Dataset, Partition
from noisegate.noise_filter import (
    default_grid,
    filter_partition,
    scan_split_percentage,
    split_by_score,
)
from noisegate.ocsvm import (
    ConvergenceWarning,
    KernelSpec,
    _cross_kernel,
    decision_values,
    default_kernel,
    kkt_residual,
    train_ocsvm,
    OcSvmModel,
)
from ocsvm_oracle import train_ocsvm_reference
from qp_oracle import (
    kkt_gap,
    linear_gram,
    qp_objective,
    rbf_gram,
    solve_qp_reference,
)


def gaussian_with_ring_outliers(seed, n_in=100, n_out=10, radius=10.0):
    rng = np.random.default_rng(seed)
    inliers = rng.normal(size=(n_in, 2))
    ang = rng.uniform(0, 2 * np.pi, size=n_out)
    outliers = radius * np.c_[np.cos(ang), np.sin(ang)]
    return np.vstack([inliers, outliers])


def kernel_value(spec, x, z) -> float:
    """k(x, z) for two 1-D rows, from the package's kernel block."""
    return float(_cross_kernel(spec, np.array([x], dtype=float), np.array([z], dtype=float))[0, 0])


class TestKernelEval:
    def test_rbf_same_point_is_one(self):
        x = np.array([3.0, -1.0])
        assert kernel_value(KernelSpec("rbf", 2.3), x, x) == 1.0

    def test_linear(self):
        assert kernel_value(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_rbf_known_value(self):
        got = kernel_value(KernelSpec("rbf", 0.5), [0.0, 0.0], [2.0, 0.0])
        assert got == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_dimension_mismatch(self):
        m = OcSvmModel(np.array([[1.0, 2.0]]), np.array([1.0]), 0.0, 1.0, KernelSpec("linear"))
        with pytest.raises(ValueError, match="dimension"):
            decision_values(m, [1.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf")
        with pytest.raises(ValueError):
            KernelSpec("rbf", -1.0)
        with pytest.raises(ValueError):
            KernelSpec("poly", 1.0)
        with pytest.raises(ValueError):
            KernelSpec("linear", 1.0)


class TestTraining:
    def test_identical_pair_nu_one(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        m = train_ocsvm(X, nu=1.0, kernel=KernelSpec("rbf", 0.7))
        assert np.allclose(m.alphas, [0.5, 0.5])
        assert (decision_values(m, X) >= 0).all()

    def test_argument_errors(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError, match="nu"):
            train_ocsvm(X, nu=0.0)
        with pytest.raises(ValueError, match="nu"):
            train_ocsvm(X, nu=1.5)
        with pytest.raises(ValueError, match="at least 2"):
            train_ocsvm(X[:1])
        with pytest.raises(ValueError, match="tol"):
            train_ocsvm(X, tol=0.0)
        # NaN fails every comparison, so it must not slip past as positive
        with pytest.raises(ValueError, match="tol"):
            train_ocsvm(X, tol=float("nan"))
        with pytest.raises(ValueError, match="max_iter"):
            train_ocsvm(X, max_iter=0)
        with pytest.raises(ValueError, match="max_iter"):
            train_ocsvm(X, max_iter=-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected_before_the_solver(self, bad):
        X = np.zeros((5, 2))
        X[3, 1] = bad
        with pytest.raises(ValueError, match="^row 3 holds a non-finite value$"):
            train_ocsvm(X, max_iter=1000)

    def test_objective_matches_reference_solver(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            n = int(rng.integers(4, 13))
            d = int(rng.integers(1, 6))
            nu = (0.2, 0.5, 1.0)[trial % 3]
            X = rng.normal(size=(n, d))
            spec = KernelSpec("linear") if trial == 5 else KernelSpec("rbf", 1.0 / d)
            K = linear_gram(X) if spec.kind == "linear" else rbf_gram(X, spec.gamma)
            ref = solve_qp_reference(K, 1.0 / (nu * n), stop_delta=1e-13, max_iter=300_000)
            m = train_ocsvm(X, nu=nu, kernel=spec, tol=1e-6)
            full = np.zeros(n)
            full[m.support_indices] = m.alphas
            assert abs(qp_objective(K, full) - qp_objective(K, ref)) <= 1e-4

    def test_dual_feasibility_post_hoc(self):
        rng = np.random.default_rng(4)
        for nu in (0.15, 0.5, 1.0):
            m = train_ocsvm(rng.normal(size=(60, 3)), nu=nu)
            assert m.alphas.size > 0
            assert (m.alphas > 0).all()
            assert (m.alphas <= 1.0 / (nu * 60) * (1 + 1e-12)).all()
            assert abs(m.alphas.sum() - 1.0) <= 1e-6

    def test_ring_outliers_scored_negative(self):
        # nu must exceed the outlier fraction for isolated points to pin at
        # their box bound; at nu equal to the outlier rate they sit exactly on
        # the boundary with score 0.
        hits = 0
        for seed in range(10):
            X = gaussian_with_ring_outliers(seed)
            m = train_ocsvm(X, nu=0.5, kernel=KernelSpec("rbf", 0.5), tol=1e-5)
            dec = decision_values(m, X)
            if (dec[100:] < 0).sum() >= 9:
                hits += 1
            assert dec[:100].mean() > dec[100:].mean()
        assert hits >= 9

    def test_max_iter_exhaustion_warns_not_raises(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 2))
        with pytest.warns(ConvergenceWarning):
            m = train_ocsvm(X, nu=0.5, tol=1e-12, max_iter=3)
        assert not m.converged
        assert m.residual > 0

    def test_order_independence_at_convergence(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 2))
        probes = rng.normal(size=(25, 2)) * 1.5
        spec = KernelSpec("rbf", 0.5)
        base = decision_values(train_ocsvm(X, nu=0.4, kernel=spec, tol=1e-10), probes)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(40)
            other = decision_values(train_ocsvm(X[perm], nu=0.4, kernel=spec, tol=1e-10), probes)
            assert np.max(np.abs(base - other)) <= 1e-6


class TestNuProperty:
    def test_outlier_and_sv_fractions(self):
        for nu in (0.1, 0.3, 0.5):
            good = 0
            for seed in range(5):
                X = np.random.default_rng(seed).normal(size=(250, 2))
                m = train_ocsvm(X, nu=nu, tol=1e-5)
                dec = decision_values(m, X)
                outlier_frac = float((dec < 0).mean())
                sv_frac = len(m.alphas) / 250
                if outlier_frac <= nu + 0.05 and sv_frac >= nu - 0.05:
                    good += 1
            assert good >= 4, f"nu={nu}: {good}/5 seeds satisfied the bound"


class TestDecisionFunction:
    def test_membership_is_sign_with_zero_positive(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        m = train_ocsvm(X, nu=0.3)
        probes = rng.normal(size=(20, 2)) * 2
        v = decision_values(m, probes)
        assert (v < 0).any() and (v >= 0).any()
        for x, vx in zip(probes, v):
            assert (decision_values(m, x)[0] >= 0) == (vx >= 0)

    def test_duplicated_point_scores_nonnegative(self):
        X = np.tile([[0.5, -0.5]], (4, 1))
        m = train_ocsvm(X, nu=1.0, kernel=KernelSpec("rbf", 1.0))
        assert decision_values(m, X[0])[0] >= 0

    def test_dimension_mismatch(self):
        m = train_ocsvm(np.zeros((3, 2)) + np.eye(3, 2), nu=0.5)
        with pytest.raises(ValueError, match="dimension"):
            decision_values(m, [1.0, 2.0, 3.0])


class TestKktResidual:
    def test_converged_model_within_tol(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        m = train_ocsvm(X, nu=0.4, tol=1e-3)
        assert kkt_residual(m, X) <= 1e-3

    def test_hand_built_off_simplex_positive(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        m = OcSvmModel(
            support_vectors=X.copy(),
            alphas=np.array([0.3, 0.3]),
            rho=0.0,
            nu=0.5,
            kernel=KernelSpec("rbf", 1.0),
        )
        assert kkt_residual(m, X) > 0

    def test_reference_solution_residual(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(10, 2))
        K = rbf_gram(X, 0.5)
        ub = 1.0 / (0.5 * 10)
        ref = solve_qp_reference(K, ub, stop_delta=1e-13, max_iter=300_000)
        keep = np.flatnonzero(ref > 0)
        m = OcSvmModel(
            support_vectors=X[keep],
            alphas=ref[keep],
            rho=0.0,
            nu=0.5,
            kernel=KernelSpec("rbf", 0.5),
            support_indices=keep,
        )
        assert kkt_residual(m, X) <= kkt_gap(K, ref, ub) + 1e-6


def test_default_kernel_gamma_is_inverse_dimension():
    spec = default_kernel(8)
    assert spec.kind == "rbf" and spec.gamma == pytest.approx(1 / 8)


def test_tiny_cache_budget_gives_same_model():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(60, 3))
    full = train_ocsvm(X, nu=0.4, tol=1e-8)
    # a budget holding roughly two rows forces constant eviction
    tiny = train_ocsvm(X, nu=0.4, tol=1e-8, cache_bytes=2 * 60 * 8)
    assert np.array_equal(full.support_indices, tiny.support_indices)
    assert np.allclose(full.alphas, tiny.alphas, atol=0)
    assert full.rho == tiny.rho


def _solver_fixtures():
    """Oracle fixtures as pytest params: rows, labels, train_ocsvm kwargs."""
    rng = np.random.default_rng(41)
    gauss = rng.normal(size=(120, 3))
    gauss_labels = (gauss[:, 0] > 0.3).astype(np.int64)
    base = rng.normal(size=(40, 2))
    dup = np.vstack([base, base[::-1], base[:10]])
    dup_labels = (dup[:, 1] > 0).astype(np.int64)
    # nine distinct rows, so many rows share a gradient value
    grid = rng.integers(0, 3, size=(150, 2)).astype(np.float64)
    grid_labels = (grid.sum(axis=1) > 2).astype(np.int64)
    rbf, lin = KernelSpec("rbf", 0.5), KernelSpec("linear")
    cases = []
    for nu in (0.1, 0.5, 1.0):
        cases.append((f"rbf-nu{nu}", gauss, gauss_labels, dict(nu=nu, kernel=rbf, tol=1e-6)))
        cases.append((f"linear-nu{nu}", gauss, gauss_labels, dict(nu=nu, kernel=lin, tol=1e-6)))
    cases += [
        ("duplicates", dup, dup_labels, dict(nu=0.3, kernel=rbf, tol=1e-8)),
        ("grid-ties", grid, grid_labels, dict(nu=0.4, kernel=rbf, tol=1e-8)),
        ("grid-ties-linear", grid, grid_labels, dict(nu=0.2, kernel=lin, tol=1e-8)),
        # a budget of about two rows evicts on nearly every kernel-row request
        ("tiny-cache", gauss, gauss_labels,
         dict(nu=0.4, kernel=rbf, tol=1e-8, cache_bytes=2 * 120 * 8)),
        ("max-iter-3", gauss, gauss_labels, dict(nu=0.5, kernel=rbf, tol=1e-12, max_iter=3)),
    ]
    return [pytest.param(X, y, kw, id=name) for name, X, y, kw in cases]


SOLVER_FIXTURES = _solver_fixtures()


def _train_both(X, kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return train_ocsvm(X, **kw), train_ocsvm_reference(X, **kw)


class TestSolverOracle:
    @pytest.mark.parametrize("X, labels, kw", SOLVER_FIXTURES)
    def test_bit_identical_to_flatnonzero_selection(self, X, labels, kw):
        got, ref = _train_both(X, kw)
        assert np.array_equal(got.alphas, ref.alphas)
        assert np.array_equal(got.support_indices, ref.support_indices)
        assert got.rho == ref.rho
        assert got.n_iter == ref.n_iter
        assert got.residual == ref.residual
        assert got.converged == ref.converged

    def test_fixtures_cover_the_edge_cases(self):
        by_id = {p.id: p.values for p in SOLVER_FIXTURES}
        # nu = 1 puts every row at its bound: no row can rise, no step is taken
        m = train_ocsvm(by_id["rbf-nu1.0"][0], **by_id["rbf-nu1.0"][2])
        assert m.converged and m.n_iter == 1
        with pytest.warns(ConvergenceWarning):
            m = train_ocsvm(by_id["max-iter-3"][0], **by_id["max-iter-3"][2])
        assert not m.converged and m.n_iter == 3


class TestTrainScores:
    @pytest.mark.parametrize("X, labels, kw", SOLVER_FIXTURES)
    def test_match_decision_values(self, X, labels, kw):
        m, _ = _train_both(X, kw)
        assert m.train_scores.shape == (X.shape[0],)
        assert np.max(np.abs(m.train_scores - decision_values(m, X))) <= 1e-12

    def test_identical_rows_score_bit_equal(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(30, 2))
        X = np.vstack([base, base, base[:1]])
        for spec in (KernelSpec("rbf", 0.5), KernelSpec("linear")):
            s = train_ocsvm(X, nu=0.3, kernel=spec, tol=1e-8).train_scores
            assert np.array_equal(s[:30], s[30:60])
            assert s[60] == s[0]
            # the tie is then broken by index: the first copy ranks first
            clean, noisy = split_by_score(np.arange(61), s, 0.5)
            for k in range(30):
                assert not (k in noisy and k + 30 in clean)

    @pytest.mark.parametrize("X, labels, kw", SOLVER_FIXTURES)
    def test_rank_order_matches_decision_values_up_to_ties(self, X, labels, kw):
        # Rows whose decision values lie within 1e-12 form one tie group; the
        # gradient may order a group's rows differently, but never two groups.
        m, _ = _train_both(X, kw)
        dv = decision_values(m, X)
        by_dv = np.lexsort((np.arange(len(X)), -dv))
        group = np.empty(len(X), dtype=np.int64)
        group[by_dv] = np.cumsum(np.r_[0, np.diff(-dv[by_dv]) > 1e-12])
        by_gradient = np.lexsort((np.arange(len(X)), -m.train_scores))
        assert (np.diff(group[by_gradient]) >= 0).all()

    @pytest.mark.parametrize("X, labels, kw", [
        p if p.id != "grid-ties-linear" else pytest.param(
            *p.values, id=p.id, marks=pytest.mark.xfail(strict=True, reason=(
                "distinct rows (1, 2) and (2, 1) tie exactly in decision_values "
                "but differ by 1.7e-15 in the gradient, so the index tie-break "
                "no longer decides between them")))
        for p in SOLVER_FIXTURES
    ])
    def test_filter_split_matches_decision_value_ranking(self, X, labels, kw):
        kw = {k: v for k, v in kw.items() if k != "cache_bytes"}
        ds = Dataset.from_arrays(X, labels)
        part = Partition(np.arange(len(X)), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            res = filter_partition(part, ds, grid=default_grid(), **kw)
            m = train_ocsvm(X, **kw)
        scores = decision_values(m, X)
        best_p, _ = scan_split_percentage(labels, scores, default_grid())
        clean, noisy = split_by_score(part.indices, scores, best_p)
        assert res.chosen_p == best_p
        assert np.array_equal(res.clean_indices, clean)
        assert np.array_equal(res.noisy_indices, noisy)
