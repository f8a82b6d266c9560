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
    _ROUTE_BYTES,
    KnnHypothesis,
    KnnReference,
    RandomTree,
    StumpIndex,
    _integer,
    _number,
    hypothesis_from_dict,
    train_random_tree,
    train_stump,
    uniform_weights,
)

MODEL_FORMAT = "noisegate-model"
# 2: a k-NN ensemble stores its reference set once ("knn"), and each member
# only its weights; version-1 files, with refs/labels/k in every member, load.
MODEL_VERSION = 2

LEARNER_KINDS = ("stump", "tree", "knn")

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


@dataclass
class BoostTrace:
    """Per-round diagnostics kept only when requested; never serialized."""

    weights: list[np.ndarray] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)


@dataclass
class PartitionEnsemble:
    members: list[tuple[float, object]]
    beta: float
    partition_id: int
    K: int
    trace: BoostTrace | None = None

    def __post_init__(self):
        if any(not alpha > 0 for alpha, _ in self.members):  # NaN too
            raise ValueError("member vote weights must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")


def _predict(h, X, nearest: dict) -> np.ndarray:
    """h's labels for the rows of X. ``nearest`` caches the neighbour query of
    each k-NN reference set on X, so members sharing one search it once.
    """
    if not isinstance(h, KnnHypothesis):
        return h.predict(X)
    if h.reference not in nearest:
        nearest[h.reference] = h.reference.neighbours(X)
    return h.vote(nearest[h.reference])


def _train_weak(base: LearnerConfig, X, y, w, rng, shared):
    """One round's member; ``shared`` is the stump index or k-NN reference
    set built once for all rounds, None for trees."""
    if base.kind == "stump":
        return train_stump(X, y, w, shared)
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
    shared = None
    if base.kind == "stump":
        shared = StumpIndex(X)
    elif base.kind == "knn":
        shared = KnnReference(X, y, min(base.knn_k, n))
    nearest: dict[KnnReference, np.ndarray] = {}
    members: list[tuple[float, object]] = []
    trace = BoostTrace() if keep_trace else None
    if trace is not None:
        trace.weights.append(w.copy())
    for _ in range(T):
        h = _train_weak(base, X, y, w, rng, shared)
        pred = _predict(h, X, nearest)
        mistakes = pred != y
        eps = float(w[mistakes].sum())  # weighted_error without a second predict
        # the 1e-12 band keeps float noise from sneaking chance-level rounds in
        if eps >= 1.0 - 1.0 / K - 1e-12:
            continue
        if eps <= _EPS_FLOOR:
            alpha = _ALPHA_CAP
            members.append((alpha, h))
            if trace is not None:
                trace.errors.append(eps)
                trace.alphas.append(alpha)
            break
        alpha = min(math.log((1.0 - eps) / eps) + math.log(K - 1), _ALPHA_CAP)
        members.append((alpha, h))
        w = w * np.exp(alpha * mistakes)
        w /= w.sum()
        if trace is not None:
            trace.errors.append(eps)
            trace.alphas.append(alpha)
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
    """Per-feature threshold tables of an all-tree ensemble (QuickScorer,
    Lucchese et al. 2015); None unless every member is a RandomTree of at
    most 64 leaves and the tables fit in ``_TABLE_BYTES``.

    Tree t's leaves are the bits of a word, numbered in pre-order, which is
    left to right. A split node's mask clears the leaves of its left subtree:
    a row that fails ``<=`` there cannot reach them. Per used feature, its
    sorted thresholds and a (thresholds + 1, trees) table whose row r is the
    per-tree AND of the masks of the first r; per class c, the per-tree word
    of the leaves that vote c or higher.
    """
    trees = [h for _, h in E.members]
    if not trees or not all(isinstance(h, RandomTree) for h in trees):
        return None
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


def _tree_scores(compiled, X: np.ndarray) -> np.ndarray:
    """Summed vote weight per class of a compiled all-tree ensemble.

    Rows go a block at a time. Per feature, ``searchsorted`` counts the
    thresholds below x: exactly the nodes where x fails ``<=`` and goes
    right, a NaN at every one. The AND of the gathered table rows keeps the
    leaves each tree can still reach; the lowest, ``a & (~a + 1)``, is where
    the row exits. One bincount over row * K + class, weighted by the alphas
    in member order, adds them from 0.0 in that order, as ``np.add.at`` does
    one member at a time, so the sums have its bits.
    """
    tables, classes, alphas = compiled
    (K, T), n = classes.shape, X.shape[0]
    # per (block row, tree): two words, a flag, a flat index and a weight
    m = max(1, min(n, _ROUTE_BYTES // (T * (2 * classes.itemsize + 17))))
    word = np.empty((2, m, T), dtype=classes.dtype)
    flat = np.empty((m, T), dtype=np.intp)
    row_start = np.arange(0, m * K, K)[:, None]
    weights = np.tile(alphas, m)
    out = np.empty((n, K))
    for lo in range(0, n, m):
        B = X[lo:lo + m]
        k = B.shape[0]
        a, g = word[0, :k], word[1, :k]
        a.fill(np.iinfo(classes.dtype).max)
        for f, t, tab in tables:
            tab.take(np.searchsorted(t, B[:, f]), axis=0, out=g, mode="clip")
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


def ensemble_scores(E: PartitionEnsemble, X) -> np.ndarray:
    """Summed vote weight per class, shape (rows, K). An all-tree ensemble of
    at most 64 leaves per tree is scored from its threshold tables, any other
    one member by member."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    compiled = _compile_trees(E)
    if compiled is not None:
        return _tree_scores(compiled, X)
    scores = np.zeros(X.shape[0] * E.K)
    row_start = np.arange(0, X.shape[0] * E.K, E.K)
    nearest: dict[KnnReference, np.ndarray] = {}
    for alpha, h in E.members:
        _add_votes(scores, row_start, alpha, _predict(h, X, nearest))
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
    lowest class id."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    votes = np.zeros(X.shape[0] * G.K)
    row_start = np.arange(0, X.shape[0] * G.K, G.K)
    for E in G.ensembles:
        _add_votes(votes, row_start, E.beta, ensemble_predict_batch(E, X))
    return np.argmax(votes.reshape(-1, G.K), axis=1)


def model_to_dict(G: GlobalModel) -> dict:
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
        "ensembles": [_ensemble_to_dict(E) for E in G.ensembles],
    }


def _ensemble_to_dict(E: PartitionEnsemble) -> dict:
    doc = {"partition_id": E.partition_id, "beta": E.beta}
    knn = _shared_reference(E.partition_id, [h for _, h in E.members])
    if knn is not None:
        doc["knn"] = knn.to_dict()
    doc["members"] = [{"alpha": alpha, "hypothesis": h.to_dict()} for alpha, h in E.members]
    return doc


def _shared_reference(partition_id: int, hypotheses) -> KnnReference | None:
    """The one reference set of a partition's k-NN members, None without any."""
    refs = [h.reference for h in hypotheses if isinstance(h, KnnHypothesis)]
    if not refs:
        return None
    if any(r is not refs[0] and not r.equals(refs[0]) for r in refs[1:]):
        raise ValueError(
            f"partition {partition_id}: k-NN members disagree on their reference set"
        )
    return refs[0]


def model_from_dict(doc: dict) -> GlobalModel:
    with _located("model"):
        _json_object(doc)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not an ensemble model document")
    version = doc.get("version")
    if not isinstance(version, int) or version > MODEL_VERSION:
        raise ValueError(
            f"model version {version!r} is newer than supported ({MODEL_VERSION})"
        )
    with _located("model"):
        label_names = list(doc["label_names"])
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
            knn = KnnReference.from_dict(e["knn"]) if "knn" in e else None
            member_docs = e["members"]
        members = []
        for j, m in enumerate(member_docs):
            with _located(f"partition {pid}, member {j}"):
                alpha = _number("alpha", m["alpha"])
                h = hypothesis_from_dict(m["hypothesis"], knn)
                h.check(n_features, len(label_names))
            members.append((alpha, h))
        if knn is None:
            # version 1: every k-NN member carried its own copy of the references
            knn = _shared_reference(pid, [h for _, h in members])
            if knn is not None:
                members = [
                    (alpha, KnnHypothesis(knn, h.weights) if isinstance(h, KnnHypothesis) else h)
                    for alpha, h in members
                ]
        ensembles.append(PartitionEnsemble(members, beta, pid, K=len(label_names)))
    return GlobalModel(ensembles, label_names, scaling, dict(doc.get("provenance", {})),
                       n_features)


def _scaling_from_dict(doc: dict, n_features: int) -> ScalingSpec:
    """The scaling spec of a model document: finite per-column bounds, one
    pair per feature, min <= max."""
    mins, maxs = (np.array([_number(f"scaling {key}", v) for v in doc[key]], dtype=np.float64)
                  for key in ("mins", "maxs"))
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
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def save_model(G: GlobalModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(G), fh, indent=1)
        fh.write("\n")


def load_model(path) -> GlobalModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
