import json
import math
import re

import numpy as np
import pytest

from noisegate import ensemble
from noisegate.data import ScalingSpec
from noisegate.ensemble import (
    MODEL_VERSION,
    DegenerateEnsembleError,
    GlobalModel,
    LearnerConfig,
    PartitionEnsemble,
    adaboost_train,
    compute_beta,
    ensemble_predict_batch,
    ensemble_scores,
    global_predict_batch,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from noisegate.learners import (
    DecisionStump,
    KnnHypothesis,
    KnnReference,
    RandomTree,
    weighted_error,
)

import vote_oracle
from knn_oracle import knn_predict as knn_oracle
from stump_oracle import train_stump as stump_oracle


def constant(c):
    return DecisionStump(0, 0.0, c, c)


def separable_two_class(n, seed, margin=0.3):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-1, 1, size=(n, 2))
        pts.extend(cand[np.abs(cand[:, 0] + cand[:, 1]) >= margin])
    X = np.asarray(pts[:n])
    return X, (X[:, 0] + X[:, 1] > 0).astype(int)


class TestAdaboostTrain:
    def test_alpha_formula_binary(self):
        # constant features force the constant-majority stump: error exactly 0.3
        X = np.zeros((10, 1))
        y = np.array([0] * 7 + [1] * 3)
        E = adaboost_train(X, y, T=5, base=LearnerConfig("stump"), keep_trace=True)
        assert E.trace.errors == [pytest.approx(0.3)]
        assert E.trace.alphas == [pytest.approx(math.log(7 / 3), abs=1e-12)]

    def test_alpha_formula_26_classes(self):
        # half the mass on class 0: error is 0.5 yet alpha = ln(25) > 0
        X = np.zeros((50, 1))
        y = np.concatenate([np.zeros(25, dtype=int), np.arange(1, 26)])
        E = adaboost_train(X, y, T=5, base=LearnerConfig("stump"), keep_trace=True)
        assert E.trace.errors[0] == pytest.approx(0.5)
        assert E.trace.alphas[0] == pytest.approx(math.log(25), abs=1e-12)

    def test_separable_reaches_zero_training_error(self):
        X, y = separable_two_class(120, seed=1)
        E = adaboost_train(X, y, T=20, base=LearnerConfig("stump"))
        assert (ensemble_predict_batch(E, X) != y).mean() == 0.0

    def test_next_round_weighted_error_is_half_binary(self):
        X, y = separable_two_class(120, seed=2)
        E = adaboost_train(X, y, T=20, base=LearnerConfig("stump"), keep_trace=True)
        # rounds that were appended and have a successor weight vector
        for t, (_, h) in enumerate(E.members):
            if t + 1 >= len(E.trace.weights):
                break
            err_next = weighted_error(h, X, y, E.trace.weights[t + 1])
            assert err_next == pytest.approx(0.5, abs=1e-9)

    def test_weights_stay_valid_every_round(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 2))
        y = rng.integers(0, 3, 60)
        E = adaboost_train(X, y, T=15, base=LearnerConfig("tree", max_depth=2),
                           seed=3, keep_trace=True)
        for w in E.trace.weights:
            assert (w >= 0).all()
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class"):
            adaboost_train(np.zeros((4, 1)), np.zeros(4, dtype=int), T=3,
                           base=LearnerConfig("stump"))

    def test_degenerate_when_learner_cannot_beat_chance(self):
        # constant features, balanced binary: the constant stump errs exactly 0.5
        X = np.zeros((8, 1))
        y = np.array([0, 1] * 4)
        with pytest.raises(DegenerateEnsembleError):
            adaboost_train(X, y, T=10, base=LearnerConfig("stump"))

    def test_early_stop_on_perfect_round(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        E = adaboost_train(X, y, T=50, base=LearnerConfig("stump"), keep_trace=True)
        assert len(E.members) == 1
        assert E.members[0][0] == pytest.approx(math.log(1e10))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 3, 50)
        cfg = LearnerConfig("tree", max_depth=3)
        a = adaboost_train(X, y, T=8, base=cfg, seed=11)
        b = adaboost_train(X, y, T=8, base=cfg, seed=11)
        assert json.dumps([m[1].to_dict() for m in a.members]) == json.dumps(
            [m[1].to_dict() for m in b.members]
        )


class TestStumpBoosting:
    def test_members_match_oracle_round_by_round(self):
        rng = np.random.default_rng(21)
        X = np.round(rng.normal(size=(80, 4)), 1)  # ties within every column
        y = rng.integers(0, 3, 80)
        E = adaboost_train(X, y, T=15, base=LearnerConfig("stump"))
        K, w, expected = 3, np.full(80, 1 / 80), []
        for _ in range(15):
            h = stump_oracle(X, y, w)
            mistakes = h.predict(X) != y
            eps = float(w[mistakes].sum())
            if eps >= 1.0 - 1.0 / K - 1e-12:
                continue
            if eps <= 1e-10:
                expected.append((math.log(1e10), h.to_dict()))
                break
            alpha = min(math.log((1.0 - eps) / eps) + math.log(K - 1), math.log(1e10))
            expected.append((alpha, h.to_dict()))
            w = w * np.exp(alpha * mistakes)
            w /= w.sum()
        assert len(expected) > 1
        assert [(alpha, h.to_dict()) for alpha, h in E.members] == expected

    def test_columns_sorted_once_per_ensemble(self, monkeypatch):
        calls = []
        argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        rng = np.random.default_rng(22)
        X = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, 60)  # label noise: no round is perfect
        counts = {}
        for T in (1, 20):
            calls.clear()
            E = adaboost_train(X, y, T=T, base=LearnerConfig("stump"))
            counts[T] = len(calls)
        assert len(E.members) == 20
        assert counts[20] == counts[1] <= 1


class TestEnsemblePredict:
    def test_single_member(self):
        E = PartitionEnsemble([(0.01, constant(2))], 0.5, 0, K=3)
        assert ensemble_predict_batch(E, [[0.0]])[0] == 2

    def test_equal_vote_tie_takes_lowest_class(self):
        E = PartitionEnsemble([(1.0, constant(1)), (1.0, constant(0))], 0.5, 0, K=2)
        assert ensemble_predict_batch(E, [[0.0]])[0] == 0

    def test_weighted_tie(self):
        members = [(2.0, constant(0)), (1.0, constant(1)), (1.0, constant(1))]
        E = PartitionEnsemble(members, 0.5, 0, K=2)
        assert ensemble_predict_batch(E, [[0.0]])[0] == 0

    def test_alpha_scale_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        y = rng.integers(0, 3, 40)
        E = adaboost_train(X, y, T=10, base=LearnerConfig("tree", max_depth=2), seed=0)
        probes = rng.normal(size=(100, 2))
        base_pred = ensemble_predict_batch(E, probes)
        for c in (0.001, 7.0, 4096.0):
            scaled = PartitionEnsemble(
                [(alpha * c, h) for alpha, h in E.members], E.beta, 0, E.K
            )
            assert np.array_equal(ensemble_predict_batch(scaled, probes), base_pred)


class TestVoteSums:
    """One vote per row per member, so the sums are those of a 2-D
    ``np.add.at`` over (row, class) pairs."""

    def random_stumps(self, rng, count, K):
        return [
            (float(rng.uniform(0.1, 3.0)),
             DecisionStump(int(rng.integers(3)), float(rng.normal()),
                           int(rng.integers(K)), int(rng.integers(K))))
            for _ in range(count)
        ]

    def test_ensemble_scores_equal_add_at(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(200, 3))
        E = PartitionEnsemble(self.random_stumps(rng, 25, 4), 0.5, 0, K=4)
        expected = np.zeros((200, 4))
        for alpha, h in E.members:
            np.add.at(expected, (np.arange(200), h.predict(X)), alpha)
        assert np.array_equal(ensemble_scores(E, X), expected)

    def test_global_votes_equal_add_at(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(200, 3))
        ensembles = [
            PartitionEnsemble(self.random_stumps(rng, 5, 3), float(rng.random()), i, K=3)
            for i in range(9)
        ]
        G = GlobalModel(ensembles, ["a", "b", "c"], None, {}, 3)
        votes = np.zeros((200, 3))
        for E in ensembles:
            np.add.at(votes, (np.arange(200), ensemble_predict_batch(E, X)), E.beta)
        assert np.array_equal(global_predict_batch(G, X), np.argmax(votes, axis=1))


def has_tie(scores) -> bool:
    """Whether some row's top two classes have equal summed weight."""
    top = np.sort(scores, axis=1)
    return bool((top[:, -1] == top[:, -2]).any())


def knn_members(rng, count, K, alphas):
    ref = KnnReference(rng.normal(size=(40, 3)), np.arange(40) % K, 3)
    return [
        (float(rng.choice(alphas)), KnnHypothesis(ref, rng.dirichlet(np.ones(40))))
        for _ in range(count)
    ]


class TestFlatIndexVotes:
    """The flat-index vote sums against one 2-D fancy-index add per member."""

    ALPHAS = (0.1, 0.3, 0.7)  # repeated alphas, so rows tie between classes

    def members(self, rng, K):
        stumps = [
            (float(rng.choice(self.ALPHAS)),
             DecisionStump(int(rng.integers(3)), float(rng.normal()),
                           int(rng.integers(K)), int(rng.integers(K))))
            for _ in range(20)
        ]
        return stumps + knn_members(rng, 4, K, self.ALPHAS)

    @pytest.mark.parametrize("K", [2, 5])
    def test_ensemble_scores_equal_oracle(self, K):
        rng = np.random.default_rng(50 + K)
        X = rng.normal(size=(300, 3))
        E = PartitionEnsemble(self.members(rng, K), 0.5, 0, K=K)
        expected = vote_oracle.ensemble_scores(E, X)
        assert has_tie(expected)
        assert np.array_equal(ensemble_scores(E, X), expected)
        assert np.array_equal(ensemble_predict_batch(E, X), np.argmax(expected, axis=1))

    @pytest.mark.parametrize("K", [2, 5])
    def test_global_predict_equals_oracle(self, K):
        rng = np.random.default_rng(60 + K)
        X = rng.normal(size=(300, 3))
        ensembles = [
            PartitionEnsemble(self.members(rng, K)[:6], (0.25, 0.5)[i % 2], i, K=K)
            for i in range(12)
        ]
        G = GlobalModel(ensembles, [str(k) for k in range(K)], None, {}, 3)
        assert has_tie(vote_oracle.global_scores(G, X))
        assert np.array_equal(global_predict_batch(G, X), vote_oracle.global_predict_batch(G, X))

    def test_column_major_input_votes_the_same(self):
        rng = np.random.default_rng(70)
        X = rng.normal(size=(500, 3))
        tree = adaboost_train(X, (X[:, 0] > X[:, 1]).astype(int), T=5,
                              base=LearnerConfig("tree", max_depth=3), seed=1, n_classes=3)
        tree.beta = 0.5
        ensembles = [
            PartitionEnsemble(self.members(rng, 3), 0.5, 0, K=3),
            PartitionEnsemble(self.members(rng, 3), 0.75, 1, K=3),
            tree,
        ]
        G = GlobalModel(ensembles, ["a", "b", "c"], None, {}, 3)
        Xf = np.asfortranarray(X)
        for E in ensembles:
            assert np.array_equal(ensemble_scores(E, Xf), ensemble_scores(E, X))
        assert np.array_equal(global_predict_batch(G, Xf), global_predict_batch(G, X))


# split thresholds come from this grid, so they repeat across trees and
# features, and test rows sit exactly on them
GRID = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)


def random_tree(rng, leaves, d, K) -> RandomTree:
    """A tree of exactly ``leaves`` leaves, split at random sizes, with
    features in [0, d), grid thresholds and classes in [0, K)."""
    def node(count):
        if count == 1:
            return {"leaf": int(rng.integers(K))}
        left = int(rng.integers(1, count))
        return {"feature": int(rng.integers(d)), "threshold": float(rng.choice(GRID)),
                "left": node(left), "right": node(count - left)}

    return RandomTree.from_dict({"kind": "random_tree", "max_depth": 4, "root": node(leaves)})


def awkward_rows(rng, n, d) -> np.ndarray:
    """Rows mixing normal draws with NaN, +-inf, -0.0 and values on the grid;
    the first three are all NaN, all +inf (both reach every tree's last
    leaf) and all -inf (its first)."""
    special = np.array([np.nan, np.inf, -np.inf, -0.0, *GRID])
    X = rng.normal(size=(n, d))
    pick = rng.random((n, d)) < 0.5
    X[pick] = rng.choice(special, size=int(pick.sum()))
    X[:3] = np.array([np.nan, np.inf, -np.inf])[:, None]
    return X


def tree_ensemble(rng, count, leaves, d, K, pid=0) -> PartitionEnsemble:
    """count trees of 1 to ``leaves`` leaves, the first of exactly ``leaves``,
    with repeated alphas so that rows tie between classes."""
    sizes = [leaves, 1] + rng.integers(1, leaves + 1, size=count - 2).tolist()
    members = [(float(rng.choice((0.1, 0.3, 0.7))), random_tree(rng, s, d, K)) for s in sizes]
    return PartitionEnsemble(members, 0.5, pid, K=K)


class TestTreeTables:
    """All-tree ensembles of at most 64 leaves per tree are scored from
    per-feature threshold tables; every other ensemble member by member.
    Either way the sums are the oracle's bits."""

    def assert_oracle(self, E, X):
        expected = vote_oracle.ensemble_scores(E, X)
        assert np.array_equal(ensemble_scores(E, X), expected)
        assert np.array_equal(ensemble_predict_batch(E, X), np.argmax(expected, axis=1))

    @pytest.mark.parametrize("K", [2, 5])
    @pytest.mark.parametrize("leaves", [1, 8, 16, 32, 64])  # 64: the widest table word
    def test_scores_equal_oracle(self, K, leaves):
        rng = np.random.default_rng(80 + K + leaves)
        X = awkward_rows(rng, 400, 3)
        E = tree_ensemble(rng, 12, leaves, 3, K)
        assert ensemble._compile_trees(E) is not None
        self.assert_oracle(E, X)

    @pytest.mark.parametrize("K", [2, 5])
    def test_global_predict_equals_oracle(self, K, monkeypatch):
        # small blocks, so the rows span several and end in a partial one
        monkeypatch.setattr(ensemble, "_ROUTE_BYTES", 1 << 12)
        rng = np.random.default_rng(90 + K)
        X = awkward_rows(rng, 500, 4)
        ensembles = [tree_ensemble(rng, 6, 16, 4, K, pid=i) for i in range(8)]
        for i, E in enumerate(ensembles):
            E.beta = (0.25, 0.5)[i % 2]
            self.assert_oracle(E, X)
        G = GlobalModel(ensembles, [str(k) for k in range(K)], None, {}, 4)
        assert has_tie(vote_oracle.global_scores(G, X))
        assert np.array_equal(global_predict_batch(G, X), vote_oracle.global_predict_batch(G, X))

    def test_special_values_route_like_the_oracle(self):
        # one split on 0.0: -0.0 and -inf go left; NaN and +inf go right
        tree = RandomTree.from_dict({"kind": "random_tree", "max_depth": 1, "root": {
            "feature": 0, "threshold": 0.0, "left": {"leaf": 0}, "right": {"leaf": 1}}})
        E = PartitionEnsemble([(1.0, tree)], 0.5, 0, K=2)
        X = np.array([[-0.0], [0.0], [-np.inf], [np.nan], [np.inf], [5e-324]])
        assert ensemble_predict_batch(E, X).tolist() == [0, 0, 0, 1, 1, 1]
        self.assert_oracle(E, X)

    def test_zero_rows_and_column_major_input(self):
        rng = np.random.default_rng(95)
        E = tree_ensemble(rng, 10, 16, 3, 3)
        assert ensemble_scores(E, np.empty((0, 3))).shape == (0, 3)
        self.assert_oracle(E, np.empty((0, 3)))
        X = awkward_rows(rng, 300, 3)
        assert np.array_equal(ensemble_scores(E, np.asfortranarray(X)), ensemble_scores(E, X))
        self.assert_oracle(E, np.asfortranarray(X))

    @pytest.mark.parametrize("K", [2, 5])
    def test_trained_trees_equal_oracle(self, K):
        rng = np.random.default_rng(97)
        X = rng.normal(size=(300, 3))
        y = rng.integers(0, K, 300)
        E = adaboost_train(X, y, T=15, base=LearnerConfig("tree", max_depth=4), seed=2)
        assert ensemble._compile_trees(E) is not None
        self.assert_oracle(E, awkward_rows(rng, 400, 3))

    def test_65_leaves_take_the_member_loop(self):
        rng = np.random.default_rng(99)
        E = tree_ensemble(rng, 5, 65, 3, 5)
        assert ensemble._compile_trees(E) is None
        self.assert_oracle(E, awkward_rows(rng, 400, 3))

    def test_oversized_tables_take_the_member_loop(self, monkeypatch):
        rng = np.random.default_rng(101)
        E = tree_ensemble(rng, 6, 16, 3, 3)
        size = sum(tab.nbytes for _, _, tab in ensemble._compile_trees(E)[0])
        monkeypatch.setattr(ensemble, "_TABLE_BYTES", size)
        assert ensemble._compile_trees(E) is not None
        monkeypatch.setattr(ensemble, "_TABLE_BYTES", size - 1)
        assert ensemble._compile_trees(E) is None
        self.assert_oracle(E, awkward_rows(rng, 400, 3))

    def test_stump_and_tree_take_the_member_loop(self):
        rng = np.random.default_rng(100)
        E = tree_ensemble(rng, 5, 16, 3, 3)
        E.members.insert(2, (0.3, DecisionStump(1, 0.25, 2, 0)))
        assert ensemble._compile_trees(E) is None
        self.assert_oracle(E, awkward_rows(rng, 400, 3))


class TestComputeBeta:
    def test_perfect(self):
        E = PartitionEnsemble([(1.0, constant(1))], 0.0, 0, K=2)
        assert compute_beta(E, np.zeros((3, 1)), [1, 1, 1]) == 1.0

    def test_constant_wrong(self):
        E = PartitionEnsemble([(1.0, constant(0))], 0.0, 0, K=2)
        assert compute_beta(E, np.zeros((3, 1)), [1, 1, 1]) == 0.0

    def test_three_of_four(self):
        E = PartitionEnsemble([(1.0, constant(1))], 0.0, 0, K=2)
        assert compute_beta(E, np.zeros((4, 1)), [1, 1, 1, 0]) == 0.75

    def test_empty_holdout_rejected(self):
        E = PartitionEnsemble([(1.0, constant(0))], 0.0, 0, K=2)
        with pytest.raises(ValueError, match="empty"):
            compute_beta(E, np.zeros((0, 1)), [])

    def test_beta_stored(self):
        E = PartitionEnsemble([(1.0, constant(1))], 0.0, 0, K=2)
        compute_beta(E, np.zeros((4, 1)), [1, 1, 0, 0])
        assert E.beta == 0.5


def make_global(betas_and_classes, K=3):
    ensembles = [
        PartitionEnsemble([(1.0, constant(c))], beta, i, K=K)
        for i, (beta, c) in enumerate(betas_and_classes)
    ]
    return GlobalModel(ensembles, [str(k) for k in range(K)], None, {}, n_features=1)


class TestGlobalPredict:
    def test_unanimous(self):
        G = make_global([(0.2, 1), (0.9, 1), (0.5, 1)])
        assert global_predict_batch(G, [[0.0]])[0] == 1

    def test_higher_beta_wins(self):
        G = make_global([(0.9, 0), (0.8, 1)])
        assert global_predict_batch(G, [[0.0]])[0] == 0

    def test_equal_betas_reduce_to_majority(self):
        G = make_global([(0.7, 2), (0.7, 1), (0.7, 2)])
        assert global_predict_batch(G, [[0.0]])[0] == 2

    def test_beta_scale_invariance(self):
        G = make_global([(0.9, 0), (0.4, 1), (0.6, 1)])
        base = global_predict_batch(G, [[0.0]])[0]
        for c in (0.01, 3.0):
            scaled = GlobalModel(
                [
                    PartitionEnsemble(E.members, min(E.beta * c, 1.0) if c < 1 else E.beta,
                                      E.partition_id, E.K)
                    for E in G.ensembles
                ],
                G.label_names, None, {}, 1,
            )
            # rescaling all betas by the same factor cannot change the argmax
            if c < 1:
                assert global_predict_batch(scaled, [[0.0]])[0] == base

    def test_zero_beta_contributes_nothing(self):
        G = make_global([(0.0, 0), (0.3, 1)])
        assert global_predict_batch(G, [[0.0]])[0] == 1
        assert len(G.ensembles) == 2

    def test_class_count_mismatch_rejected(self):
        e1 = PartitionEnsemble([(1.0, constant(0))], 0.5, 0, K=2)
        e2 = PartitionEnsemble([(1.0, constant(0))], 0.5, 1, K=3)
        with pytest.raises(ValueError, match="class count"):
            GlobalModel([e1, e2], ["a", "b"], None, {}, 1)


class TestModelSerialization:
    def build(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 3, 60)
        ensembles = [
            adaboost_train(X, y, T=6, base=LearnerConfig("tree", max_depth=3),
                           seed=s, partition_id=s)
            for s in range(3)
        ]
        # nonzero betas, so the round-trip predictions depend on every member
        for E in ensembles:
            compute_beta(E, X, y)
        spec = ScalingSpec(np.zeros(3), np.ones(3))
        return GlobalModel(ensembles, ["a", "b", "c"], spec,
                           {"seed": 0, "rounds": 6}, n_features=3)

    def test_round_trip_predictions(self, tmp_path):
        G = self.build()
        path = tmp_path / "model.json"
        save_model(G, path)
        back = load_model(path)
        probes = np.random.default_rng(1).normal(size=(1000, 3))
        assert len(set(global_predict_batch(G, probes).tolist())) > 1
        assert np.array_equal(global_predict_batch(G, probes),
                              global_predict_batch(back, probes))
        assert back.provenance == G.provenance
        assert np.array_equal(back.scaling.mins, G.scaling.mins)

    def test_newer_version_rejected(self):
        doc = model_to_dict(self.build())
        doc["version"] = MODEL_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            model_from_dict(doc)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not an"):
            model_from_dict({"format": "tarball"})

    @pytest.mark.parametrize("doc, message", [
        ([], "model: expected a JSON object, got list"),
        ("noisegate-model", "model: expected a JSON object, got str"),
        ({"format": "noisegate-model", "version": 2, "label_names": ["a", "b"],
          "n_features": 1, "ensembles": [1]}, "ensemble 0: expected a JSON object, got int"),
        ({"format": "noisegate-model", "version": 2, "label_names": ["a", "b"],
          "n_features": 1, "ensembles": None}, "model: ensembles must be a JSON array, got NoneType"),
    ], ids=["list", "string", "entry", "ensembles"])
    def test_non_object_rejected(self, doc, message):
        with pytest.raises(ValueError) as err:
            model_from_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("beta", True, "beta must be a number, got True"),
        ("beta", "0.5", "beta must be a number, got '0.5'"),
        ("beta", float("nan"), "beta must lie in [0, 1]"),
        ("alpha", True, "alpha must be a number, got True"),
        ("alpha", "0.5", "alpha must be a number, got '0.5'"),
        ("alpha", float("nan"), "member vote weights must be positive"),
    ])
    def test_number_fields_rejected(self, field, value, message):
        doc = json.loads(json.dumps(model_to_dict(self.build())))
        e = doc["ensembles"][1]
        if field == "beta":
            e["beta"] = value
        else:
            e["members"][0]["alpha"] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_dict(doc)

    def build_knn(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(int)
        ensembles = [
            adaboost_train(X, y, T=4, base=LearnerConfig("knn", knn_k=3),
                           seed=s, partition_id=s)
            for s in range(2)
        ]
        for E in ensembles:
            compute_beta(E, X, y)
        return GlobalModel(ensembles, ["a", "b"], None, {}, n_features=2)

    @staticmethod
    def as_version_1(doc):
        """The same model in the version-1 layout: every k-NN member repeats
        its ensemble's refs, labels and k."""
        doc = json.loads(json.dumps(doc))
        doc["version"] = 1
        for e in doc["ensembles"]:
            knn = e.pop("knn")
            for m in e["members"]:
                m["hypothesis"] = {"kind": "knn", "refs": knn["refs"], "labels": knn["labels"],
                                   "weights": m["hypothesis"]["weights"], "k": knn["k"]}
        return doc

    def test_knn_reference_stored_once_per_ensemble(self):
        doc = model_to_dict(self.build_knn())
        for e in doc["ensembles"]:
            assert set(e["knn"]) == {"refs", "labels", "k"}
            assert all(m["hypothesis"] == {"kind": "knn", "weights": m["hypothesis"]["weights"]}
                       for m in e["members"])

    def test_version_1_knn_document_loads_like_its_resave(self):
        G = self.build_knn()
        v2 = model_to_dict(G)
        old = model_from_dict(self.as_version_1(v2))
        for E in old.ensembles:
            assert len({id(h.reference) for _, h in E.members}) == 1
        resaved = model_from_dict(json.loads(json.dumps(model_to_dict(old))))
        probes = np.random.default_rng(2).normal(size=(300, 2))
        assert np.array_equal(global_predict_batch(old, probes),
                              global_predict_batch(resaved, probes))
        assert np.array_equal(global_predict_batch(old, probes),
                              global_predict_batch(G, probes))
        assert json.dumps(model_to_dict(old)) == json.dumps(v2)

    def test_version_1_knn_members_disagreeing_on_refs_rejected(self):
        doc = self.as_version_1(model_to_dict(self.build_knn()))
        members = doc["ensembles"][1]["members"]
        assert len(members) >= 2
        last = members[-1]["hypothesis"]
        last["refs"] = [[9.0, 9.0]] + last["refs"][1:]
        with pytest.raises(ValueError, match="partition 1"):
            model_from_dict(doc)


class TestOtherBaseLearners:
    def test_knn_base_learner(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)
        E = adaboost_train(X, y, T=5, base=LearnerConfig("knn", knn_k=3), seed=0)
        assert (ensemble_predict_batch(E, X) == y).mean() >= 0.9

    def test_knn_shared_neighbour_query_matches_oracle(self):
        # integer grid: exact distances, many ties; every member votes on one
        # neighbour query per call and must match the per-member brute force
        rng = np.random.default_rng(7)
        refs = rng.integers(0, 3, size=(12, 2)).astype(np.float64)
        labels = rng.integers(0, 3, 12)
        queries = rng.integers(0, 3, size=(30, 2)).astype(np.float64)
        for k in range(1, 13):
            ref = KnnReference(refs, labels, k)
            members = []
            for alpha in (0.7, 1.3, 0.4):
                w = rng.uniform(0.01, 1, 12)
                members.append((alpha, KnnHypothesis(ref, w / w.sum())))
            E = PartitionEnsemble(members, 0.5, 0, K=3)
            expect = []
            for x in queries:
                scores = np.zeros(3)
                for alpha, h in members:
                    scores[knn_oracle(refs, labels, h.weights, x, k)] += alpha
                expect.append(int(np.argmax(scores)))
            assert ensemble_predict_batch(E, queries).tolist() == expect

    def test_knn_k_capped_at_partition_size(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 2))
        y = np.array([0, 0, 0, 1, 1])
        # k above n degrades to a weighted-majority vote rather than raising
        E = adaboost_train(X, y, T=2, base=LearnerConfig("knn", knn_k=50), seed=0)
        assert E.members

    def test_tree_base_learner_with_explicit_candidates(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 3))
        y = (X[:, 1] > 0).astype(int)
        cfg = LearnerConfig("tree", max_depth=3, k_candidates=5)
        E = adaboost_train(X, y, T=8, base=cfg, seed=1)
        assert (ensemble_predict_batch(E, X) == y).mean() >= 0.9
