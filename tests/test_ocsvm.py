import numpy as np
import pytest

from noisegate.ocsvm import (
    ConvergenceWarning,
    KernelSpec,
    decision_value,
    decision_values,
    default_kernel,
    kernel_eval,
    kkt_residual,
    model_from_dict,
    model_to_dict,
    predict_membership,
    train_ocsvm,
    OcSvmModel,
    load_ocsvm,
    save_ocsvm,
)
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


class TestKernelEval:
    def test_rbf_same_point_is_one(self):
        x = np.array([3.0, -1.0])
        assert kernel_eval(KernelSpec("rbf", 2.3), x, x) == 1.0

    def test_linear(self):
        assert kernel_eval(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_rbf_known_value(self):
        got = kernel_eval(KernelSpec("rbf", 0.5), [0.0, 0.0], [2.0, 0.0])
        assert got == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_eval(KernelSpec("linear"), [1.0], [1.0, 2.0])

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
        assert predict_membership(m, X[0]) == 1
        assert predict_membership(m, X[1]) == 1

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
            m.validate()

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
        for x in rng.normal(size=(20, 2)) * 2:
            v = decision_value(m, x)
            assert predict_membership(m, x) == (-1 if v < 0 else 1)

    def test_duplicated_point_scores_nonnegative(self):
        X = np.tile([[0.5, -0.5]], (4, 1))
        m = train_ocsvm(X, nu=1.0, kernel=KernelSpec("rbf", 1.0))
        assert decision_value(m, X[0]) >= 0

    def test_dimension_mismatch(self):
        m = train_ocsvm(np.zeros((3, 2)) + np.eye(3, 2), nu=0.5)
        with pytest.raises(ValueError, match="dimension"):
            decision_value(m, [1.0, 2.0, 3.0])


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


class TestSerialization:
    def test_round_trip_decision_values(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        m = train_ocsvm(X, nu=0.35)
        path = tmp_path / "ocsvm.json"
        save_ocsvm(m, path)
        back = load_ocsvm(path)
        probes = rng.normal(size=(200, 3)) * 2
        assert np.max(np.abs(decision_values(m, probes) - decision_values(back, probes))) <= 1e-12

    def test_newer_version_rejected(self):
        doc = model_to_dict(train_ocsvm(np.eye(3), nu=0.9))
        doc["version"] = 99
        with pytest.raises(ValueError, match="newer"):
            model_from_dict(doc)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a"):
            model_from_dict({"format": "something-else"})


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
