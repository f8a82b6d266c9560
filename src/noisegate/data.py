"""Dataset parsing, label encoding, min-max scaling, and partitioning."""

from __future__ import annotations

import io
import math
import os
from array import array
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Malformed input data. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled feature matrix with an integer-encoded label vocabulary.

    ``features`` is a dense (n, d) float64 array, row- or column-major; rows
    are instances. ``labels`` holds class ids in [0, K) and
    ``label_names[id]`` is the original token.
    Instances are immutable after construction and safe to share across
    threads.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: list[str]

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("labels length does not match instance count")
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError("duplicate label names")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.K):
            raise ValueError("label id outside [0, K)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def K(self) -> int:
        return len(self.label_names)

    @classmethod
    def from_arrays(cls, features, labels, label_names=None) -> "Dataset":
        """Build a Dataset from a dense (n, d) array-like and integer labels.

        The features are copied to float64, so later changes to the caller's
        array do not reach the Dataset.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if label_names is None:
            k = int(labels.max()) + 1 if labels.size else 0
            label_names = [str(i) for i in range(k)]
        features = np.array(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got {features.ndim}-D")
        return cls(features, labels, list(label_names))

    def rows(self, indices) -> np.ndarray:
        """Copy of the selected rows."""
        return self.features[np.asarray(indices, dtype=np.int64)]

    def equals(self, other: "Dataset") -> bool:
        return (
            self.label_names == other.label_names
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.features, other.features)
        )


@dataclass(frozen=True)
class Partition:
    """A slice of a parent Dataset: unique row indices plus an ordinal id."""

    indices: np.ndarray
    partition_id: int

    def __post_init__(self):
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValueError("partition indices must be unique")

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ScalingSpec:
    """Per-column (min, max) observed on training data."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if self.mins.shape != self.maxs.shape:
            raise ValueError("mins/maxs shape mismatch")
        if (self.mins > self.maxs).any():
            raise ValueError("column min exceeds max")


def _iter_lines(text):
    if isinstance(text, str):
        return io.StringIO(text)
    return text


def parse_libsvm(text) -> Dataset:
    """Parse sparse `<label> <idx>:<val> ...` lines into a Dataset.

    Feature indices are 1-based and must be strictly increasing per line;
    labels are encoded in first-appearance order. Empty lines are skipped.
    Values must be finite. The features are stored dense, so a file whose
    n x d float64 matrix would exceed physical memory is rejected before
    anything is allocated.
    """
    vocab: dict[str, int] = {}
    labels: list[int] = []
    # typed buffers, filled a line at a time: a stored value costs 16 bytes
    # here, not two boxed numbers; row ids come from the per-row counts
    row_nnz: list[int] = []
    col_ind = array("q")
    values = array("d")
    isfinite = math.isfinite
    d = 0
    d_line = None
    n = 0
    for lineno, raw in enumerate(_iter_lines(text), start=1):
        parts = raw.split()
        if not parts:
            continue
        token = parts[0]
        if ":" in token:
            raise ParseError("missing label before feature pairs", lineno)
        prev = 0
        cols = []
        vals = []
        for chunk in parts[1:]:
            idx_str, sep, val_str = chunk.partition(":")
            if not sep:
                raise ParseError(f"expected index:value pair, got {chunk!r}", lineno)
            try:
                idx = int(idx_str)
            except ValueError:
                raise ParseError(f"non-integer feature index {idx_str!r}", lineno) from None
            if idx < 1:
                raise ParseError(f"feature index must be >= 1, got {idx}", lineno)
            if idx <= prev:
                raise ParseError("feature indices not strictly increasing", lineno)
            try:
                val = float(val_str)
            except ValueError:
                raise ParseError(f"non-numeric value {val_str!r}", lineno) from None
            if not isfinite(val):
                raise ParseError(f"non-finite value {val_str!r}", lineno)
            cols.append(idx - 1)
            vals.append(val)
            prev = idx
        try:
            col_ind.fromlist(cols)
        except OverflowError:
            pass  # an index past 2**63 fails the footprint check below
        values.fromlist(vals)
        row_nnz.append(len(vals))
        labels.append(vocab.setdefault(token, len(vocab)))
        if prev > d:
            d, d_line = prev, lineno
        n += 1
    if n == 0:
        raise ParseError("no instances")
    need = n * d * 8
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        raise ParseError(
            f"feature index {d} makes the dense {n} x {d} matrix {need} bytes, "
            f"more than the {physical} bytes of physical memory",
            d_line,
        )
    features = np.zeros((n, d))
    rows = np.repeat(np.arange(n), row_nnz)
    features[rows, np.frombuffer(col_ind, dtype=np.int64)] = np.frombuffer(values, dtype=np.float64)
    return Dataset(features, np.asarray(labels, dtype=np.int64), list(vocab))


def dump_libsvm(data: Dataset) -> str:
    """Serialize a Dataset back to sparse text; inverse of parse_libsvm."""
    out = []
    for row, label in zip(data.features, data.labels):
        pairs = " ".join(f"{j + 1}:{float(row[j])!r}" for j in np.flatnonzero(row))
        out.append(f"{data.label_names[label]} {pairs}".rstrip())
    return "\n".join(out) + "\n"


def parse_csv(text, label_column: int) -> Dataset:
    """Parse a rectangular numeric CSV whose label column may be any token.

    ``label_column`` is 0-based; negative values index from the right
    (-1 = last column).
    """
    import csv as _csv

    vocab: dict[str, int] = {}
    labels: list[int] = []
    rows: list[list[float]] = []
    width = None
    col = label_column
    for lineno, record in enumerate(_csv.reader(_iter_lines(text)), start=1):
        if not record:
            continue
        if width is None:
            width = len(record)
            if width < 2:
                raise ParseError("need at least one feature column and a label column", lineno)
            col = label_column if label_column >= 0 else width + label_column
            if col < 0 or col >= width:
                raise ValueError(f"label column {label_column} out of range for {width} columns")
        elif len(record) != width:
            raise ParseError(f"ragged row: expected {width} fields, got {len(record)}", lineno)
        feat = []
        for j, cell in enumerate(record):
            if j == col:
                labels.append(vocab.setdefault(cell.strip(), len(vocab)))
                continue
            try:
                val = float(cell)
            except ValueError:
                raise ParseError(f"non-numeric value {cell!r} in column {j}", lineno) from None
            if not math.isfinite(val):
                raise ParseError(f"non-finite value {cell!r} in column {j}", lineno)
            feat.append(val)
        rows.append(feat)
    if not rows:
        raise ParseError("no instances")
    return Dataset(np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64),
                   list(vocab))


def min_max_scale(train: Dataset) -> tuple[Dataset, ScalingSpec]:
    """Fit per-column [0,1] scaling on train and return the scaled copy."""
    spec = ScalingSpec(train.features.min(axis=0), train.features.max(axis=0))
    return apply_scale(spec, train), spec


def apply_scale(spec: ScalingSpec, data: Dataset) -> Dataset:
    """Map features through the fitted (min, max) ranges, clamping to [0,1].

    Columns that were constant at fit time map to 0. The one output array is
    column-major, so a predict reads each feature as a contiguous column;
    ``rows`` still copies out C-contiguous rows.
    """
    if data.d != spec.mins.shape[0]:
        raise ValueError(f"dataset has {data.d} columns, scaling spec has {spec.mins.shape[0]}")
    span = spec.maxs - spec.mins
    nonconst = span > 0
    scaled = np.subtract(data.features, spec.mins, order="F")
    np.divide(scaled, span, out=scaled, where=nonconst)
    scaled[:, ~nonconst] = 0.0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return Dataset(scaled, data.labels, list(data.label_names))


def partition(data: Dataset, M: int, seed: int) -> list[Partition]:
    """Shuffle [0, n) with the seed and cut into M near-equal partitions.

    Sizes differ by at most one; the result is deterministic for fixed
    (seed, n, M).
    """
    if M < 1:
        raise ValueError("partition count must be >= 1")
    if M > data.n:
        raise ValueError(f"cannot cut {data.n} instances into {M} partitions")
    perm = np.random.default_rng(seed).permutation(data.n)
    return [
        Partition(np.sort(chunk), i)
        for i, chunk in enumerate(np.array_split(perm, M))
    ]


def dataset_stats(data: Dataset) -> dict:
    """Summary suitable for JSON dumping: {n, d, K, class_histogram}."""
    counts = np.bincount(data.labels, minlength=data.K)
    return {
        "n": data.n,
        "d": data.d,
        "K": data.K,
        "class_histogram": {name: int(c) for name, c in zip(data.label_names, counts)},
    }
