"""Boosted per-partition ensembles and their accuracy-weighted combination.

Each partition gets a multiclass boosting run (SAMME weighting, which
reduces to the classic two-class scheme at K=2). Partition ensembles vote
into a global model with weights equal to their measured accuracy.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import ScalingSpec
from .learners import (
    _HYPOTHESIS_KINDS,
    _ROUTE_BYTES,
    KnnHypothesis,
    KnnReference,
    StumpIndex,
    _integer,
    _json_array,
    _number,
    train_random_tree,
    train_stump,
    uniform_weights,
)

MODEL_FORMAT = "noisegate-model"
# 4: an ensemble names its one learner kind, and a member is its alpha and the
# arrays its predict reads: a tree's pre-order split mask and split and leaf
# arrays, a k-NN member's weights over the ensemble's "knn". Older: not read.
MODEL_VERSION = 4

LEARNER_KINDS = tuple(_HYPOTHESIS_KINDS)

_ALPHA_CAP = math.log(1e10)
# An all-tree ensemble's threshold tables hold (thresholds + features) x trees
# words, which grows with the square of its round count: up to about 750 MB
# for 5,000 rounds at max_depth 4, against about 75 KB for the default 50.
# Past this many bytes the ensemble is voted member by member.
_TABLE_BYTES = 1 << 24
_EPS_FLOOR = 1e-10


class DegenerateEnsembleError(RuntimeError):
    """Every boosting round was skipped: the base learner cannot beat chance."""


@dataclass(frozen=True)
class LearnerConfig:
    kind: str = "tree"
    max_depth: int = 4
    k_candidates: int | None = None
    knn_k: int = 5

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        # checked whatever the kind, so a bad setting fails before a file is read
        sizes = {"max_depth": self.max_depth, "knn_k": self.knn_k}
        if self.k_candidates is not None:  # None takes ceil(sqrt(d)) per fit
            sizes["k_candidates"] = self.k_candidates
        for name, size in sizes.items():
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size}")


@dataclass
class BoostTrace:
    """Per-round diagnostics kept only when requested; never serialized."""

    weights: list[np.ndarray] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)


@dataclass
class PartitionEnsemble:
    """One partition's boosted (alpha, hypothesis) members, all of one
    learner ``kind``; k-NN members also share one ``reference`` set, which is
    None for the other kinds."""

    members: tuple[tuple[float, object], ...]
    beta: float
    partition_id: int
    K: int
    trace: BoostTrace | None = None

    def __post_init__(self):
        self.members = tuple(self.members)  # checked once, so never mutated
        if not self.members:
            raise ValueError("ensemble has no members")
        if any(not 0 < alpha < math.inf for alpha, _ in self.members):  # NaN too
            raise ValueError("member vote weights must be positive and finite")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        kinds = sorted({h.kind for _, h in self.members})
        if len(kinds) > 1:
            raise ValueError(f"partition {self.partition_id}: members of kinds {kinds}: "
                             "an ensemble holds one learner kind")
        self.kind = kinds[0]
        self.reference = self.members[0][1].reference if self.kind == "knn" else None
        if self.kind == "knn" and any(h.reference is not self.reference for _, h in self.members):
            raise ValueError(f"partition {self.partition_id}: k-NN members hold "
                             "different reference sets: an ensemble holds one")


def _train_weak(base: LearnerConfig, X, y, w, rng, shared):
    """One round's member; ``shared`` is the stump index or k-NN reference
    set built once for all rounds, None for trees."""
    if base.kind == "stump":
        return train_stump(shared, w)
    if base.kind == "tree":
        return train_random_tree(
            X, y, w, max_depth=base.max_depth, k_candidates=base.k_candidates, seed=rng
        )
    return KnnHypothesis(shared, w)


def adaboost_train(
    X,
    y,
    T: int,
    base: LearnerConfig,
    seed=0,
    n_classes: int | None = None,
    partition_id: int = 0,
    keep_trace: bool = False,
) -> PartitionEnsemble:
    """Boost T rounds of the base learner on (X, y).

    Rounds whose weighted error reaches 1 - 1/K contribute nothing and are
    skipped; a round with essentially zero error is appended with a capped
    vote weight and stops the loop. Raises DegenerateEnsembleError when no
    round at all survives. The ensemble comes back with beta 0: the caller
    measures it with compute_beta on the rows it chooses.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = y.shape[0]
    if T < 1:
        raise ValueError("need at least one boosting round")
    if n < 2:
        raise ValueError("need at least 2 training rows")
    if np.unique(y).size < 2:
        raise ValueError("training labels are single-class")
    K = n_classes if n_classes is not None else int(y.max()) + 1
    if K < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    w = uniform_weights(n)
    shared = nearest = None
    if base.kind == "stump":
        shared = StumpIndex(X, y)
    elif base.kind == "knn":
        shared = KnnReference(X, y, min(base.knn_k, n))
        nearest = shared.neighbours(X)  # every round's member votes on these
    members: list[tuple[float, object]] = []
    trace = BoostTrace() if keep_trace else None
    if trace is not None:
        trace.weights.append(w.copy())
    for _ in range(T):
        h = _train_weak(base, X, y, w, rng, shared)
        pred = h.predict(X) if nearest is None else h.vote(nearest)
        mistakes = pred != y
        eps = float(w[mistakes].sum())  # weighted_error without a second predict
        # the 1e-12 band keeps float noise from sneaking chance-level rounds in
        if eps >= 1.0 - 1.0 / K - 1e-12:
            continue
        alpha = _ALPHA_CAP if eps <= _EPS_FLOOR else min(
            math.log((1.0 - eps) / eps) + math.log(K - 1), _ALPHA_CAP)
        members.append((alpha, h))
        if trace is not None:
            trace.errors.append(eps)
            trace.alphas.append(alpha)
        if eps <= _EPS_FLOOR:
            break
        w = w * np.exp(alpha * mistakes)
        w /= w.sum()
        if trace is not None:
            trace.weights.append(w.copy())
    if not members:
        raise DegenerateEnsembleError(
            f"all {T} rounds were skipped on partition {partition_id}: "
            f"base learner never beat chance for K={K}"
        )
    return PartitionEnsemble(members, beta=0.0, partition_id=partition_id, K=K, trace=trace)


def _add_votes(flat: np.ndarray, row_start: np.ndarray, weight: float, pred: np.ndarray) -> None:
    """Add weight to each row's predicted class in ``flat``, a raveled (rows,
    K) array, through the flat index ``row_start + pred``, built in ``pred``.

    One add per row, so a sum over votes added in order has the bits of
    ``scores[rows, pred] += weight``. The flat index costs less than a 2-D
    index and does not grow with K, and ``np.add.at`` gathers no temporary.
    """
    pred += row_start
    np.add.at(flat, pred, weight)


def _compile_trees(E: PartitionEnsemble):
    """Per-feature threshold tables of a tree ensemble (QuickScorer,
    Lucchese et al. 2015); None unless every tree has at most 64 leaves and
    the tables fit in ``_TABLE_BYTES``.

    Tree t's leaves are the bits of a word, numbered in pre-order, which is
    left to right. A split node's mask clears the leaves of its left subtree:
    a row that fails ``<=`` there cannot reach them. Per used feature, its
    sorted thresholds and a (thresholds + 1, trees) table whose row r is the
    per-tree AND of the masks of the first r; per class c, the per-tree word
    of the leaves that vote c or higher.
    """
    trees = [h for _, h in E.members]
    leaves = [~np.isfinite(h.threshold) for h in trees]
    width = max(int(leaf.sum()) for leaf in leaves)
    if width > 64:
        return None
    dtype = np.dtype(f"uint{max(8, 1 << (width - 1).bit_length())}")  # narrowest that fits
    one = np.uint64(1)
    parts = []  # per tree: its split nodes' features, thresholds, tree index and masks
    classes = np.zeros((E.K, len(trees)), dtype=np.uint64)
    for t, (h, leaf) in enumerate(zip(trees, leaves)):
        before = (np.cumsum(leaf) - leaf).astype(np.uint64)  # leaves ahead in pre-order
        split = np.flatnonzero(~leaf)
        # the left subtree is the nodes from split + 1 up to the right child
        left = (one << before[h.children[2 * split + 1]]) - (one << before[split])
        parts.append((h.feature[split], h.threshold[split], np.full(split.size, t),
                      (~left).astype(dtype)))
        np.bitwise_or.at(classes, (h.value[leaf], t), one << before[leaf])
    classes = np.bitwise_or.accumulate(classes[::-1], axis=0)[::-1].astype(dtype)
    feature, threshold, tree, mask = map(np.concatenate, zip(*parts))
    used = np.unique(feature)
    if (feature.size + used.size) * len(trees) * dtype.itemsize > _TABLE_BYTES:
        return None
    tables = []
    for f in used.tolist():
        rows = np.flatnonzero(feature == f)
        rows = rows[threshold[rows].argsort(kind="stable")]
        tab = np.full((rows.size + 1, len(trees)), np.iinfo(dtype).max, dtype=dtype)
        tab[np.arange(1, rows.size + 1), tree[rows]] = mask[rows]
        tables.append((f, threshold[rows], np.bitwise_and.accumulate(tab, axis=0)))
    alphas = np.array([alpha for alpha, _ in E.members])
    return tables, classes, alphas


def _tree_ranks(ensembles, X: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{f: (U, rank)} per feature f that a split of a tree ensemble among
    ``ensembles`` uses: U holds those ensembles' distinct thresholds on
    f, sorted, and rank each row's count of U below its value (|U| for a
    NaN), in the narrowest unsigned dtype that holds |U|.

    An ensemble's thresholds are all in U, so its count below x is its count
    below ``U[rank]``, or all of them at rank |U|: the rows are searched once
    per feature for the whole model. ``np.unique`` keeps one of -0.0 and
    0.0, which every search compares as equal.
    """
    feature, threshold = [], []
    for E in ensembles:
        if E.kind == "tree":
            for _, h in E.members:
                split = h.split_nodes()
                feature.append(h.feature[split])
                threshold.append(h.threshold[split])
    if not feature:
        return {}
    feature, threshold = np.concatenate(feature), np.concatenate(threshold)
    n, step = X.shape[0], _ROUTE_BYTES // 8  # rows per search: an intp each
    ranks = {}
    for f in np.unique(feature).tolist():
        U = np.unique(threshold[feature == f])
        rank = np.empty(n, dtype=np.min_scalar_type(U.size))
        for lo in range(0, n, step):
            rank[lo:lo + step] = np.searchsorted(U, X[lo:lo + step, f])
        ranks[f] = U, rank
    return ranks


def _tree_scores(compiled, ranks: dict, n: int) -> np.ndarray:
    """Summed vote weight per class of a compiled tree ensemble, for the
    n rows ranked in ``ranks`` (``_tree_ranks`` of ensembles including it).

    Per used feature, ``np.searchsorted(t, U)`` and then ``t.size`` map a
    rank to the count of the ensemble's thresholds below x: exactly the
    nodes where x fails ``<=`` and goes right, a NaN at every one. That
    table of |U| + 1 counts is all this ensemble adds to the ranks; no
    n-length array is built. Rows go a block at a time. The AND of the
    gathered table rows keeps the leaves each tree can still reach; the
    lowest, ``a & (~a + 1)``, is where the row exits. One bincount over
    row * K + class, weighted by the alphas in member order, adds them from
    0.0 in that order, as ``np.add.at`` does one member at a time, so the
    sums have its bits.
    """
    tables, classes, alphas = compiled
    K, T = classes.shape
    lookups = []
    for f, t, tab in tables:
        U, rank = ranks[f]
        lookups.append((np.append(np.searchsorted(t, U), t.size), rank, tab))
    # per (block row, tree): two words, a flag, a flat index and a weight
    m = max(1, min(n, _ROUTE_BYTES // (T * (2 * classes.itemsize + 17))))
    word = np.empty((2, m, T), dtype=classes.dtype)
    flat = np.empty((m, T), dtype=np.intp)
    count = np.empty(m, dtype=np.intp)
    row_start = np.arange(0, m * K, K)[:, None]
    weights = np.tile(alphas, m)
    every_leaf = np.iinfo(classes.dtype).max
    out = np.empty((n, K))
    for lo in range(0, n, m):
        k = min(m, n - lo)
        a, g, below = word[0, :k], word[1, :k], count[:k]
        a.fill(every_leaf)
        for counts, rank, tab in lookups:
            counts.take(rank[lo:lo + k], out=below, mode="clip")
            tab.take(below, axis=0, out=g, mode="clip")
            a &= g
        np.invert(a, out=g)
        g += classes.dtype.type(1)
        a &= g
        idx = flat[:k]
        np.copyto(idx, row_start[:k])
        for c in range(1, K):  # the class is how many of these words hold the leaf
            np.bitwise_and(a, classes[c], out=g)
            np.add(idx, g != 0, out=idx)
        out[lo:lo + k] = np.bincount(idx.ravel(), weights=weights[:k * T],
                                     minlength=k * K).reshape(k, K)
    return out


def _stump_scores(E: PartitionEnsemble, X: np.ndarray) -> np.ndarray:
    """Summed vote weight per class of a stump ensemble, shape (rows, K).

    Per member, ``alpha * (x <= t)`` goes to the left class's row of a (K,
    rows) array and ``alpha * ~(x <= t)`` to the right class's, so a NaN goes
    right, as in ``DecisionStump.predict``. A row gets alpha in one of the
    adds and 0.0 in the other, which changes no sum, so in member order the
    sums have the bits of one add per row per member.
    """
    scores = np.zeros((E.K, X.shape[0]))
    le = np.empty(X.shape[0], dtype=bool)
    vote = np.empty(X.shape[0])
    for alpha, h in E.members:
        np.less_equal(X[:, h.feature], h.threshold, out=le)
        scores[h.left] += np.multiply(le, alpha, out=vote)
        scores[h.right] += np.multiply(np.logical_not(le, out=le), alpha, out=vote)
    return scores.T


def ensemble_scores(E: PartitionEnsemble, X, ranks: dict | None = None) -> np.ndarray:
    """Summed vote weight per class, shape (rows, K). A stump ensemble is
    scored a column at a time, a tree ensemble of at most 64 leaves per tree
    from its threshold tables, any other one member by member: a k-NN
    ensemble's members all vote on one neighbour search.

    ``ranks`` is ``_tree_ranks`` of X over ensembles that include E; by
    default the tables rank X against E's own thresholds. The tables live
    only in this call, so a caller scoring ensembles in turn holds one
    ensemble's tables at a time."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if E.kind == "stump":
        return _stump_scores(E, X)
    compiled = _compile_trees(E) if E.kind == "tree" else None
    if compiled is not None:
        return _tree_scores(compiled, _tree_ranks([E], X) if ranks is None else ranks,
                            X.shape[0])
    scores = np.zeros(X.shape[0] * E.K)
    row_start = np.arange(0, X.shape[0] * E.K, E.K)
    nearest = None if E.reference is None else E.reference.neighbours(X)
    for alpha, h in E.members:
        _add_votes(scores, row_start, alpha, h.predict(X) if nearest is None else h.vote(nearest))
    return scores.reshape(-1, E.K)


def ensemble_predict_batch(E: PartitionEnsemble, X) -> np.ndarray:
    """Class with the largest summed vote weight per row; ties take the lowest id."""
    return np.argmax(ensemble_scores(E, X), axis=1)


def compute_beta(E: PartitionEnsemble, holdout_X, holdout_y) -> float:
    """Accuracy of the ensemble on the holdout; stored on E as its vote weight."""
    holdout_y = np.asarray(holdout_y, dtype=np.int64)
    if holdout_y.size == 0:
        raise ValueError("holdout set is empty")
    beta = float((ensemble_predict_batch(E, holdout_X) == holdout_y).mean())
    E.beta = beta
    return beta


@dataclass
class GlobalModel:
    ensembles: list[PartitionEnsemble]
    label_names: list[str]
    scaling: ScalingSpec | None
    provenance: dict
    n_features: int

    def __post_init__(self):
        if not self.ensembles:
            raise ValueError("global model needs at least one partition ensemble")
        K = len(self.label_names)
        if any(E.K != K for E in self.ensembles):
            raise ValueError("partition ensembles disagree on the class count")

    @property
    def K(self) -> int:
        return len(self.label_names)


def global_predict_batch(G: GlobalModel, X) -> np.ndarray:
    """Accuracy-weighted vote across partition ensembles; ties take the
    lowest class id. The rows are ranked against the thresholds of all the
    tree ensembles once, not once per ensemble."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    ranks = _tree_ranks(G.ensembles, X)
    votes = np.zeros(X.shape[0] * G.K)
    row_start = np.arange(0, X.shape[0] * G.K, G.K)
    for E in G.ensembles:
        _add_votes(votes, row_start, E.beta, np.argmax(ensemble_scores(E, X, ranks), axis=1))
    return np.argmax(votes.reshape(-1, G.K), axis=1)


def _model_head(G: GlobalModel) -> dict:
    """The model document up to, but not including, its ``ensembles``."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "provenance": G.provenance,
        "n_features": G.n_features,
        "label_names": G.label_names,
        "scaling": None if G.scaling is None else {
            "mins": G.scaling.mins.tolist(),
            "maxs": G.scaling.maxs.tolist(),
        },
    }


def _ensemble_to_dict(E: PartitionEnsemble) -> dict:
    doc = {"partition_id": E.partition_id, "beta": E.beta, "kind": E.kind}
    if E.reference is not None:
        doc["knn"] = E.reference.to_dict()  # once, for all the members
    doc["members"] = [{"alpha": alpha, **h.to_dict()} for alpha, h in E.members]
    return doc


def model_from_dict(doc: dict) -> GlobalModel:
    with _located("model"):
        _json_object(doc)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not an ensemble model document")
    version = doc.get("version")
    if type(version) is not int or version > MODEL_VERSION:
        raise ValueError(f"model version {version!r} is newer than supported ({MODEL_VERSION})")
    if version < MODEL_VERSION:
        raise ValueError(f"model version {version} is no longer read: retrain the model "
                         f"to write version {MODEL_VERSION}")
    with _located("model"):
        label_names = doc["label_names"]
        if not (isinstance(label_names, list) and {type(name) for name in label_names} == {str}
                and len(set(label_names)) == len(label_names) >= 2):
            raise ValueError("label_names must be a JSON array of at least two distinct strings")
        provenance = doc.get("provenance", {})
        if not isinstance(provenance, dict):
            raise TypeError(f"provenance must be a JSON object, got {type(provenance).__name__}")
        n_features = _integer("n_features", doc["n_features"])
        scaling = None
        if doc.get("scaling") is not None:
            scaling = _scaling_from_dict(doc["scaling"], n_features)
        ensemble_docs = doc["ensembles"]
        if not isinstance(ensemble_docs, list):
            raise TypeError(f"ensembles must be a JSON array, got {type(ensemble_docs).__name__}")
    ensembles = []
    for i, e in enumerate(ensemble_docs):
        with _located(f"ensemble {i}"):
            _json_object(e)
        where = f"partition {e['partition_id']}" if "partition_id" in e else f"ensemble {i}"
        with _located(where):
            pid = _integer("partition_id", e["partition_id"])
            beta = _number("beta", e["beta"])
            cls = _HYPOTHESIS_KINDS.get(e["kind"]) if isinstance(e["kind"], str) else None
            if cls is None:
                raise ValueError(f"unknown learner kind {e['kind']!r}")
            knn = KnnReference.from_dict(e["knn"]) if cls is KnnHypothesis else None
            member_docs = e["members"]
            if not isinstance(member_docs, list):
                raise TypeError(f"members must be a JSON array, got {type(member_docs).__name__}")
        members = []
        for j, m in enumerate(member_docs):
            with _located(f"partition {pid}, member {j}"):
                alpha = _number("alpha", m["alpha"])
                h = cls.from_dict(m) if knn is None else cls.from_dict(m, knn)
                h.check(n_features, len(label_names))
            members.append((alpha, h))
        with _located(f"partition {pid}"):
            ensembles.append(PartitionEnsemble(members, beta, pid, K=len(label_names)))
    return GlobalModel(ensembles, label_names, scaling, dict(provenance), n_features)


def _scaling_from_dict(doc: dict, n_features: int) -> ScalingSpec:
    """The scaling spec of a model document: finite per-column bounds, one
    pair per feature, min <= max."""
    mins, maxs = (_json_array(f"scaling {key}", doc[key], np.float64) for key in ("mins", "maxs"))
    if mins.shape != (n_features,) or maxs.shape != (n_features,):
        raise ValueError(f"scaling has {mins.size} mins and {maxs.size} maxs "
                         f"for {n_features} features")
    if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):
        raise ValueError("scaling bounds must be finite")
    return ScalingSpec(mins, maxs)


def _json_object(doc) -> None:
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")


@contextmanager
def _located(where: str):
    """Re-raise a fault of a model document's part as a ValueError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _compact(doc) -> str:
    # dumps without indent runs the C encoder; json.dump never does
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def save_model(G: GlobalModel, path) -> None:
    """Write G as one line of compact JSON and a newline: ``_model_head(G)``
    with an ``ensembles`` array of each ensemble's ``_ensemble_to_dict``.

    The ensembles go one at a time after the rest of the document, so only one
    ensemble's dict and text are alive at once. ``allow_nan=False`` keeps NaN
    and Infinity, which are not JSON, out of the file.
    """
    head = _compact(dict(_model_head(G), ensembles=[]))
    with open(path, "w") as fh:
        fh.write(head[:-len("]}")])
        for i, E in enumerate(G.ensembles):
            if i:
                fh.write(",")
            fh.write(_compact(_ensemble_to_dict(E)))
        fh.write("]}\n")


def load_model(path) -> GlobalModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
