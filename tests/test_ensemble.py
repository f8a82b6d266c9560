import json
import math
import re
import weakref

import numpy as np
import pytest

from noisegate import ensemble
from noisegate.data import ScalingSpec
from noisegate.ensemble import (
    LEARNER_KINDS,
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
    save_model,
)
from noisegate.learners import (
    DecisionStump,
    KnnHypothesis,
    KnnReference,
    RandomTree,
    weighted_error,
)

import tree_oracle
import vote_oracle
from knn_oracle import knn_predict as knn_oracle
from stump_oracle import train_stump as stump_oracle


def model_doc(G):
    """The document that save_model streams for G, built in one piece."""
    return dict(ensemble._model_head(G),
                ensembles=[ensemble._ensemble_to_dict(E) for E in G.ensembles])


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
    """The member loop's flat-index vote sums against one 2-D fancy-index add
    per member, on the kinds it votes: k-NN, and trees of more than 64 leaves."""

    ALPHAS = (0.1, 0.3, 0.7)  # repeated alphas, so rows tie between classes

    def members(self, rng, K, kind, count=20):
        if kind == "knn":
            return knn_members(rng, count, K, self.ALPHAS)
        return [(float(rng.choice(self.ALPHAS)), random_tree(rng, 65, 3, K))
                for _ in range(count)]

    @pytest.mark.parametrize("K", [2, 5])
    def test_ensemble_scores_equal_oracle(self, K):
        rng = np.random.default_rng(50 + K)
        X = rng.normal(size=(300, 3))
        for kind in ("knn", "tree"):
            E = PartitionEnsemble(self.members(rng, K, kind), 0.5, 0, K=K)
            assert kind == "knn" or ensemble._compile_trees(E) is None
            expected = vote_oracle.ensemble_scores(E, X)
            assert has_tie(expected)
            assert np.array_equal(ensemble_scores(E, X), expected)
            assert np.array_equal(ensemble_predict_batch(E, X), np.argmax(expected, axis=1))

    @pytest.mark.parametrize("K", [2, 5])
    def test_global_predict_equals_oracle(self, K):
        rng = np.random.default_rng(60 + K)
        X = rng.normal(size=(300, 3))
        ensembles = [
            PartitionEnsemble(self.members(rng, K, ("knn", "tree")[i % 3 == 2], 6),
                              (0.25, 0.5)[i % 2], i, K=K)
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
            PartitionEnsemble(self.members(rng, 3, "knn"), 0.5, 0, K=3),
            PartitionEnsemble(self.members(rng, 3, "tree"), 0.75, 1, K=3),
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

    return RandomTree.from_dict(tree_oracle.document(node(leaves)))


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
        tree = RandomTree.from_dict(tree_oracle.document(
            {"feature": 0, "threshold": 0.0, "left": {"leaf": 0}, "right": {"leaf": 1}}))
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


class TestOneLearnerKind:
    """An ensemble's members are of one learner kind, and k-NN members share
    one reference set; construction rejects anything else, naming the
    partition, so the vote and the saver read the kind off the ensemble."""

    def test_stump_among_trees_rejected(self):
        members = list(tree_ensemble(np.random.default_rng(100), 5, 16, 3, 3).members)
        members.insert(2, (0.3, DecisionStump(1, 0.25, 2, 0)))
        message = ("partition 3: members of kinds ['stump', 'tree']: "
                   "an ensemble holds one learner kind")
        with pytest.raises(ValueError, match=re.escape(message)):
            PartitionEnsemble(members, 0.5, 3, K=3)

    def test_mixed_kind_ensemble_not_built(self):
        G = TestModelSerialization().build_knn()
        members = [*G.ensembles[1].members[:-1], (0.5, DecisionStump(0, 0.5, 0, 1))]
        message = ("partition 1: members of kinds ['knn', 'stump']: "
                   "an ensemble holds one learner kind")
        with pytest.raises(ValueError, match=re.escape(message)):
            PartitionEnsemble(members, 0.5, 1, K=2)

    def test_knn_members_on_two_reference_sets_rejected(self):
        G = TestModelSerialization().build_knn()
        alpha, h = G.ensembles[1].members[-1]
        ref = h.reference
        # even a reference set of equal arrays is a second one
        for other in (KnnReference(ref.refs + 1.0, ref.labels, ref.k),
                      KnnReference(ref.refs, ref.labels, ref.k)):
            members = [*G.ensembles[1].members[:-1], (alpha, KnnHypothesis(other, h.weights))]
            with pytest.raises(ValueError, match="partition 1: k-NN members hold different"):
                PartitionEnsemble(members, 0.5, 1, K=2)

    @pytest.mark.parametrize("kind", LEARNER_KINDS)
    def test_kind_and_reference_read_off_the_members(self, kind):
        G = TestModelSerialization().build_kind(kind)
        for E in G.ensembles:
            assert E.kind == kind and type(E.members) is tuple
            if kind == "knn":
                assert all(h.reference is E.reference for _, h in E.members)
            else:
                assert E.reference is None
        with pytest.raises(AttributeError):
            G.ensembles[0].members.append(G.ensembles[0].members[0])

    def test_one_neighbour_search_per_boost_and_per_vote(self, monkeypatch):
        neighbours, calls = KnnReference.neighbours, []

        def counted(self, X):
            calls.append(len(X))
            return neighbours(self, X)

        monkeypatch.setattr(KnnReference, "neighbours", counted)
        rng = np.random.default_rng(170)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int) ^ (rng.random(40) < 0.2)  # noise: no round is perfect
        E = adaboost_train(X, y, T=8, base=LearnerConfig("knn", knn_k=3))
        assert len(E.members) > 1 and calls == [40]
        calls.clear()
        ensemble_scores(E, rng.normal(size=(25, 2)))
        assert calls == [25]


class TestStumpColumnVote:
    """All-stump ensembles add each member's vote a column at a time."""

    @pytest.mark.parametrize("K", range(2, 13))
    def test_scores_equal_oracle(self, K, monkeypatch):
        rng = np.random.default_rng(120 + K)
        members = []
        for i in range(40):
            left = int(rng.integers(K))
            right = left if i % 4 == 0 else int(rng.integers(K))  # some vote one class
            members.append((float(rng.choice((0.1, 0.3, 0.7))),
                            DecisionStump(int(rng.integers(3)), float(rng.choice(GRID)),
                                          left, right)))
        E = PartitionEnsemble(members, 0.5, 0, K=K)
        X = awkward_rows(rng, 400, 3)  # NaN, +-inf, -0.0 and values equal to thresholds
        expected = vote_oracle.ensemble_scores(E, X)

        def no_predict(*args):
            raise AssertionError("an all-stump ensemble voted member by member")

        monkeypatch.setattr(DecisionStump, "predict", no_predict)
        assert np.array_equal(ensemble_scores(E, X), expected)
        assert np.array_equal(ensemble_scores(E, np.asfortranarray(X)), expected)
        assert np.array_equal(ensemble_predict_batch(E, X), np.argmax(expected, axis=1))


class TestModelRanks:
    """The model's vote ranks each row once per feature against every tree
    ensemble's thresholds; each ensemble maps that rank to its own count."""

    def model(self, rng, K, count=8, d=3):
        """Tree ensembles on grid thresholds, so thresholds repeat within and
        across ensembles; every other ensemble's 0.0 thresholds become -0.0."""
        ensembles = [tree_ensemble(rng, 6, 16, d, K, pid=i) for i in range(count)]
        for i, E in enumerate(ensembles):
            E.beta = (0.25, 0.5)[i % 2]
            if i % 2:
                for _, h in E.members:
                    h.threshold[h.threshold == 0.0] = -0.0
        return GlobalModel(ensembles, [str(k) for k in range(K)], None, {}, d)

    def assert_oracle(self, G, X):
        assert has_tie(vote_oracle.global_scores(G, X))
        assert np.array_equal(global_predict_batch(G, X), vote_oracle.global_predict_batch(G, X))

    @pytest.mark.parametrize("K", [2, 5])
    def test_shared_thresholds_equal_oracle(self, K, monkeypatch):
        # small blocks, so the rows span several and end in a partial one
        monkeypatch.setattr(ensemble, "_ROUTE_BYTES", 1 << 12)
        rng = np.random.default_rng(130 + K)
        G = self.model(rng, K)
        zeros = np.concatenate([h.threshold[h.threshold == 0.0]
                                for E in G.ensembles for _, h in E.members])
        assert set(np.signbit(zeros).tolist()) == {False, True}
        X = awkward_rows(rng, 500, 4)  # feature 3: no tree splits on it
        ranks = ensemble._tree_ranks(G.ensembles, X)
        assert sorted(ranks) == [0, 1, 2]
        for f, (U, rank) in ranks.items():
            assert U.tolist() == sorted(set(U.tolist())) and (U == 0.0).sum() == 1
            assert np.array_equal(rank, np.searchsorted(U, X[:, f]))
        self.assert_oracle(G, X)
        self.assert_oracle(G, np.asfortranarray(X))
        assert global_predict_batch(G, np.empty((0, 4))).shape == (0,)

    @pytest.mark.parametrize("distinct, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_ranks_take_the_narrowest_dtype(self, distinct, dtype):
        rng = np.random.default_rng(140)
        E = PartitionEnsemble([(0.3, random_tree(rng, 64, 1, 3)) for _ in range(5)], 0.5, 0, K=3)
        thresholds = iter(np.linspace(-1.0, 1.0, distinct))
        for _, h in E.members:  # every split on feature 0; 315 splits, so some repeat -1.0
            for node in h.split_nodes().tolist():
                h.threshold[node] = next(thresholds, -1.0)
        X = awkward_rows(rng, 400, 1)
        ((U, rank),) = ensemble._tree_ranks([E], X).values()
        assert U.size == distinct and rank.dtype == dtype
        assert rank.max() == distinct  # +inf and NaN rank past every threshold
        assert np.array_equal(ensemble_scores(E, X), vote_oracle.ensemble_scores(E, X))

    @pytest.mark.parametrize("K", [2, 5])
    def test_mixed_model_equals_oracle(self, K):
        rng = np.random.default_rng(150 + K)
        stumps = [(float(rng.choice((0.1, 0.3, 0.7))),
                   DecisionStump(int(rng.integers(3)), float(rng.choice(GRID)),
                                 int(rng.integers(K)), int(rng.integers(K))))
                  for _ in range(12)]
        ensembles = [
            tree_ensemble(rng, 8, 16, 3, K),
            PartitionEnsemble(stumps, 0.5, 0, K=K),
            PartitionEnsemble(knn_members(rng, 4, K, (0.1, 0.3, 0.7)), 0.5, 0, K=K),
            tree_ensemble(rng, 4, 65, 3, K),
            tree_ensemble(rng, 6, 8, 3, K),
        ]
        for i, E in enumerate(ensembles):
            E.beta, E.partition_id = (0.5, 0.25, 0.25, 0.5, 0.5)[i], i  # a sum of 2.0: ties at K=2
        G = GlobalModel(ensembles, [str(k) for k in range(K)], None, {}, 3)
        X = awkward_rows(rng, 400, 3)
        X[~np.isfinite(X)] = 0.25  # the k-NN distances take finite rows, as the pipeline's are
        self.assert_oracle(G, X)

    def test_one_ensembles_tables_alive_at_a_time(self, monkeypatch):
        compile_trees, alive, calls = ensemble._compile_trees, [], []

        def tracked_compile(E):
            assert [ref() for ref in alive] == [None] * len(alive)
            compiled = compile_trees(E)
            tables, classes, _ = compiled
            alive.extend(weakref.ref(a) for a in [classes, *(tab for _, _, tab in tables)])
            calls.append(E)
            return compiled

        monkeypatch.setattr(ensemble, "_compile_trees", tracked_compile)
        rng = np.random.default_rng(160)
        G = self.model(rng, 3)
        self.assert_oracle(G, awkward_rows(rng, 300, 3))
        assert calls == G.ensembles


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
    def build(self, seed=0, kind="tree"):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 3, 60)
        ensembles = [
            adaboost_train(X, y, T=6, base=LearnerConfig(kind, max_depth=3),
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

    def build_kind(self, kind):
        return self.build_knn() if kind == "knn" else self.build(kind=kind)

    @pytest.mark.parametrize("kind", ["stump", "tree", "knn"])
    def test_saved_text_is_the_compact_document(self, tmp_path, kind):
        G = self.build_kind(kind)
        path = tmp_path / "model.json"
        save_model(G, path)
        text = path.read_text()
        assert text == json.dumps(model_doc(G), separators=(",", ":")) + "\n"
        assert len(G.ensembles) > 1 and text.count("\n") == 1
        with open(path) as fh:
            assert json.load(fh) == model_doc(G)

    @pytest.mark.parametrize("kind", ["stump", "tree", "knn"])
    def test_indented_file_loads_and_predicts_bit_equal(self, tmp_path, kind):
        # files saved before the compact writer are indented
        G = self.build_kind(kind)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_doc(G), indent=1) + "\n")
        back = load_model(path)
        probes = np.random.default_rng(3).normal(size=(500, G.n_features))
        for E, E_back in zip(G.ensembles, back.ensembles, strict=True):
            assert np.array_equal(ensemble_scores(E, probes), ensemble_scores(E_back, probes))
        assert np.array_equal(global_predict_batch(G, probes),
                              global_predict_batch(back, probes))
        assert model_doc(back) == model_doc(G)

    def test_save_rejects_non_finite_number(self, tmp_path):
        G = self.build()
        G.provenance = {"gamma": float("nan")}
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(G, tmp_path / "model.json")

    def test_newer_version_rejected(self):
        doc = model_doc(self.build())
        doc["version"] = MODEL_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            model_from_dict(doc)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not an"):
            model_from_dict({"format": "tarball"})

    @pytest.mark.parametrize("doc, message", [
        ([], "model: expected a JSON object, got list"),
        ("noisegate-model", "model: expected a JSON object, got str"),
        ({"format": "noisegate-model", "version": MODEL_VERSION, "label_names": ["a", "b"],
          "n_features": 1, "ensembles": [1]}, "ensemble 0: expected a JSON object, got int"),
        ({"format": "noisegate-model", "version": MODEL_VERSION, "label_names": ["a", "b"],
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
        ("alpha", float("inf"), "partition 1: member vote weights must be positive and finite"),
        ("members", [], "partition 1: ensemble has no members"),
    ])
    def test_number_fields_rejected(self, field, value, message):
        doc = json.loads(json.dumps(model_doc(self.build())))
        e = doc["ensembles"][1]
        if field == "alpha":
            e["members"][0]["alpha"] = value
        else:
            e[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_dict(doc)

    def test_scaling_range_past_float64_rejected(self):
        doc = model_doc(self.build())
        doc["scaling"] = {"mins": [0.0, -1e308, 0.0], "maxs": [1.0, 1e308, 1.0]}
        message = "model: feature 2 spans [-1e+308, 1e+308]"
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

    def test_knn_reference_stored_once_per_ensemble(self):
        doc = model_doc(self.build_knn())
        for e in doc["ensembles"]:
            assert e["kind"] == "knn" and set(e["knn"]) == {"refs", "labels", "k"}
            assert all(list(m) == ["alpha", "weights"] for m in e["members"])

    @pytest.mark.parametrize("kind", ["stump", "tree", "knn"])
    def test_ensemble_names_its_kind_once(self, kind):
        doc = model_doc(self.build_kind(kind))
        keys = {"stump": ["feature", "threshold", "left", "right"],
                "tree": ["split", "feature", "threshold", "leaf"], "knn": ["weights"]}[kind]
        for e in doc["ensembles"]:
            assert list(e) == ["partition_id", "beta", "kind"] + ["knn"] * (kind == "knn") + [
                "members"]
            assert e["kind"] == kind
            assert all(list(m) == ["alpha"] + keys for m in e["members"])

    def test_unknown_kind(self):
        doc = model_doc(self.build())
        doc["ensembles"][1]["kind"] = "random_tree"
        with pytest.raises(ValueError) as err:
            model_from_dict(doc)
        assert str(err.value) == "partition 1: unknown learner kind 'random_tree'"

    def test_kinds_are_the_learner_kinds(self):
        assert LEARNER_KINDS == ("stump", "tree", "knn")
        assert [DecisionStump.kind, RandomTree.kind, KnnHypothesis.kind] == list(LEARNER_KINDS)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_version_rejected(self, version):
        doc = model_doc(self.build_knn())
        doc["version"] = version
        with pytest.raises(ValueError) as err:
            model_from_dict(doc)
        assert str(err.value) == (f"model version {version} is no longer read: "
                                  "retrain the model to write version 4")

    @pytest.mark.parametrize("version", ["3", 3.0, True, None])
    def test_non_integer_version_rejected(self, version):
        doc = model_doc(self.build())
        doc["version"] = version
        with pytest.raises(ValueError, match="newer than supported"):
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
