"""Workload definitions and the benchmark's own input generator.

The inputs are made here, from the run seed, and written as LIBSVM text, so
no change to the package can alter what the benchmark feeds it. The true
labels and the planted-noise flags stay beside the files for the checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Striped-ring task: two Gaussian coordinates; the minority class sits on
# stripes of width STRIPE along x0, one every PERIOD, and one of them is
# centred on the origin; rows within GAP of a stripe edge are redrawn. Train
# sets add far ring points whose labels are half the inverted stripe rule
# and half uniform. The centred stripe keeps both classes inside the
# densest 5% of any partition (see README.md).
STRIPE = 0.4
PERIOD = 1.5
GAP = 0.04
RING_RADIUS = 10.0
TRAIN_NOISE = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_test: int
    partitions: int
    learner: str
    rounds: int
    filtering: bool
    # independently drawn training sets per run, so that a run's figures
    # rest on more than one draw of the data; as many as one run's rounds
    train_sets: int = 3
    extra_columns: int = 0
    extra_density: float = 0.0
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "filter-tree", n_train=10_000, n_test=50_000, partitions=10,
            learner="tree", rounds=50, filtering=True, train_sets=5,
            why="the paper's pipeline: OCSVM filter then boosted trees; "
                "train is mostly OCSVM, evaluate is parse plus tree routing",
        ),
        Workload(
            "knn-nofilter", n_train=10_000, n_test=2_000, partitions=20,
            learner="knn", rounds=20, filtering=False,
            why="never calls the OCSVM; time is k-NN prediction and a "
                "multi-MB model file, and the thread pool helps here",
        ),
        Workload(
            "sparse-wide", n_train=10_000, n_test=50_000, partitions=10,
            learner="stump", rounds=50, filtering=True,
            extra_columns=98, extra_density=0.05,
            why="98 sparse extra columns: many tokens per row, stump fits "
                "over 100 columns, and a densifying evaluate path",
        ),
    )
}


def _stripe_offset(x0: np.ndarray) -> np.ndarray:
    return np.mod(x0 + STRIPE / 2, PERIOD)


def _stripe_class(x0: np.ndarray) -> np.ndarray:
    return (_stripe_offset(x0) < STRIPE).astype(np.int64)


def striped_ring(rng: np.random.Generator, n: int, noise_fraction: float):
    """(X, y, ring) with rows shuffled; ring flags the planted noise rows."""
    n_ring = int(round(n * noise_fraction))
    n_core = n - n_ring
    kept = []
    have = 0
    while have < n_core:
        cand = rng.normal(size=(n_core, 2))
        offs = _stripe_offset(cand[:, 0])
        near_edge = (offs < GAP) | (np.abs(offs - STRIPE) < GAP) | (offs > PERIOD - GAP)
        cand = cand[~near_edge]
        kept.append(cand)
        have += len(cand)
    core = np.vstack(kept)[:n_core]
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n_ring)
    ring_pts = RING_RADIUS * np.c_[np.cos(ang), np.sin(ang)]
    rule = _stripe_class(ring_pts[:, 0])
    ring_labels = np.where(rng.random(n_ring) < 0.5, 1 - rule, rng.integers(0, 2, n_ring))
    X = np.vstack([core, ring_pts])
    y = np.concatenate([_stripe_class(core[:, 0]), ring_labels])
    ring = np.concatenate([np.zeros(n_core, bool), np.ones(n_ring, bool)])
    order = rng.permutation(n)
    return X[order], y[order], ring[order]


def _libsvm_lines(X: np.ndarray, y: np.ndarray, extra: np.ndarray | None) -> str:
    out = []
    for i in range(len(y)):
        pairs = [f"1:{X[i, 0]:.6g}", f"2:{X[i, 1]:.6g}"]
        if extra is not None:
            cols = np.flatnonzero(extra[i])
            pairs.extend(f"{c + 3}:{extra[i, c]:.6g}" for c in cols)
        out.append(f"{y[i]} " + " ".join(pairs))
    return "\n".join(out) + "\n"


def _extra_columns(rng: np.random.Generator, n: int, w: Workload) -> np.ndarray | None:
    if not w.extra_columns:
        return None
    mask = rng.random((n, w.extra_columns)) < w.extra_density
    # heavy-tailed values: after min-max scaling most are small, so the ring
    # rows stay the outliers the filter is there to find
    return np.where(mask, rng.lognormal(0.0, 1.5, size=mask.shape), 0.0)


def _write(rng: np.random.Generator, w: Workload, n: int, noise: float, path: str) -> dict:
    X, y, ring = striped_ring(rng, n, noise)
    extra = _extra_columns(rng, n, w)
    with open(path, "w") as fh:
        fh.write(_libsvm_lines(X, y, extra))
    return {
        "path": path,
        "labels": y.tolist(),
        "ring": np.flatnonzero(ring).tolist(),
        "stored_values": 2 * n + (0 if extra is None else int((extra != 0).sum())),
    }


def generate(w: Workload, seed: int, out_dir: str) -> dict:
    """Write w.train_sets training files and one test file from the seed.

    Training set j draws from ``default_rng([seed, 0, j])`` and the test set
    from ``default_rng([seed, 1])``. Returns, per file, its path, the true
    labels and the indices of the planted ring rows.
    """
    os.makedirs(out_dir, exist_ok=True)
    truth = {
        "train": [
            _write(np.random.default_rng([seed, 0, j]), w, w.n_train, TRAIN_NOISE,
                   os.path.join(out_dir, f"train-{j}.svm"))
            for j in range(w.train_sets)
        ],
        "test": _write(np.random.default_rng([seed, 1]), w, w.n_test, 0.0,
                       os.path.join(out_dir, "test.svm")),
    }
    with open(os.path.join(out_dir, "truth.json"), "w") as fh:
        json.dump(truth, fh)
    return truth
