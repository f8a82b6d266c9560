"""Dataset parsing, label encoding, min-max scaling, and partitioning."""

from __future__ import annotations

import io
import math
import os
import warnings
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


# the fast path converts text in line-aligned blocks of about this many
# characters, so its temporaries stay a few MB whatever the file's size
_PARSE_BLOCK_CHARS = 1 << 18
# an index is converted through float64, which holds every integer up to here
_MAX_FAST_INDEX = 1 << 53
# bytes the fast path accepts in the text after the labels: digits . e E + -
# : space tab newline
_PAIR_BYTES = np.zeros(256, dtype=bool)
_PAIR_BYTES[np.frombuffer(b"0123456789.eE+-: \t\n", dtype=np.uint8)] = True


def parse_libsvm(text) -> Dataset:
    """Parse sparse `<label> <idx>:<val> ...` lines into a Dataset.

    Feature indices are 1-based and must be strictly increasing per line;
    labels are encoded in first-appearance order. Empty lines are skipped.
    Values must be finite. The features are stored dense, so a file whose
    n x d float64 matrix would exceed physical memory is rejected before
    anything is allocated.

    A ``str`` is first read by a vectorised path that accepts plain decimal
    text (``_scan_blocks``); on anything it does not accept, the line loop
    reads the whole text again and reports the first fault with its line.
    """
    scanned = _scan_blocks(text) if isinstance(text, str) else None
    return _assemble(*(scanned or _scan_lines(text)))


def _scan_lines(text):
    """The line loop: every index and value through ``int``/``float``, and
    the only source of ``ParseError``s about the text."""
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
    return vocab, labels, row_nnz, col_ind, values, d, d_line


def _scan_blocks(text: str):
    """What ``_scan_lines`` returns, or None when the text is outside the
    subset this path accepts.

    Each line's label is split off in Python; the rest of a block is checked
    with byte masks and converted by one ``np.fromstring``. A block is
    accepted only when no label holds ``:``, its pair text is ASCII digits,
    ``. e E + - :`` and blanks, every chunk is ``<digits>:<value>``, each
    value converts to exactly one finite number, and the indices lie in
    [1, 2**53] and strictly increase per row; the whole text also has to
    pass the footprint check. ``fromstring`` rounds as ``float`` does.
    """
    vocab: dict[str, int] = {}
    labels: list[int] = []
    row_nnz: list[int] = []
    col_ind = array("q")
    values = array("d")
    d = 0
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _PARSE_BLOCK_CHARS)
        end = len(text) if end < 0 else end + 1
        tokens, pairs = _split_labels(text[pos:end])
        pos = end
        if not tokens:
            continue
        if ":" in "".join(tokens):
            return None
        block = _scan_pairs(pairs)
        if block is None:
            return None
        nnz, idx, val = block
        labels += [vocab.setdefault(t, len(vocab)) for t in tokens]
        row_nnz += nnz.tolist()
        col_ind.frombytes(np.subtract(idx, 1).astype(np.int64).view(np.uint8))
        values.frombytes(val.view(np.uint8))
        if idx.size:
            d = max(d, int(idx.max()))
    if not labels or not _fits_in_memory(len(labels), d):
        return None
    # exact-size copies: growing a block at a time can leave a sixteenth
    # spare, held next to the dense matrix
    return vocab, labels, row_nnz, col_ind[:], values[:], d, None


def _split_labels(block: str):
    """Each non-blank line's label, and the rest of the lines, one per line.

    A function of its own so that the per-line lists, several times the
    block's size, are freed before the block's arrays are built.
    """
    heads = [h for h in (line.split(None, 1) for line in block.split("\n")) if h]
    return [h[0] for h in heads], "\n".join(h[1] if len(h) > 1 else "" for h in heads)


def _scan_pairs(pairs: str):
    """(pairs per row, indices, values) of newline-separated rows of
    ``<idx>:<val>`` chunks, or None when a check fails."""
    try:
        raw = pairs.encode("ascii")
    except UnicodeEncodeError:
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    if not _PAIR_BYTES.take(b).all():
        return None
    # among the accepted bytes, the blanks are those up to b" ", and digits
    # and ":" run from b"0" to b":"
    blank = b <= ord(" ")
    colons = np.flatnonzero(b == ord(":"))
    # chunk k runs from starts[k] up to ends[k] and must hold colon k with a
    # byte on either side; as there are as many colons as chunks, each chunk
    # then holds exactly one. Blank/non-blank changes alternate, a start
    # first, when the text begins and ends as if after a blank.
    cuts = np.flatnonzero(np.diff(blank, prepend=True, append=True))
    starts, ends = cuts[0::2], cuts[1::2]
    if starts.size != colons.size or not (
        (starts < colons).all() and (colons + 1 < ends).all()
    ):
        return None
    # the index is digits: each of + - . E e lies after the colon of its chunk
    marks = np.flatnonzero(~blank & ((b < ord("0")) | (b > ord(":"))))
    if marks.size and not (marks > colons[np.searchsorted(starts, marks, "right") - 1]).all():
        return None
    with warnings.catch_warnings():
        # older numpy warns, and returns what it read, on text it cannot read
        warnings.simplefilter("error", DeprecationWarning)
        try:
            nums = np.fromstring(raw.replace(b":", b" "), sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    # one number per index and per value: numpy versions differ in whether
    # text such as "2+3" is an error or two numbers
    if nums.size != 2 * colons.size:
        return None
    idx, val = nums[0::2], nums[1::2]
    if idx.size and not (
        idx.min() >= 1 and idx.max() <= _MAX_FAST_INDEX and np.isfinite(val).all()
    ):
        return None
    # pairs per row: colons before each row's newline
    bounds = np.searchsorted(colons, np.flatnonzero(b == ord("\n")))
    nnz = np.diff(bounds, prepend=0, append=colons.size)
    rising = idx[1:] > idx[:-1]
    first = bounds[(bounds > 0) & (bounds < colons.size)]
    rising[first - 1] = True
    if not rising.all():
        return None
    return nnz, idx, np.ascontiguousarray(val)


def _fits_in_memory(n: int, d: int) -> bool:
    return n * d * 8 <= _physical_bytes()


def _physical_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _assemble(vocab, labels, row_nnz, col_ind, values, d, d_line) -> Dataset:
    """The dense Dataset of either scan's buffers."""
    n = len(row_nnz)
    if n == 0:
        raise ParseError("no instances")
    if not _fits_in_memory(n, d):
        raise ParseError(
            f"feature index {d} makes the dense {n} x {d} matrix {n * d * 8} bytes, "
            f"more than the {_physical_bytes()} bytes of physical memory",
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
