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


@dataclass(frozen=True)
class Partition:
    """A slice of a parent Dataset: strictly increasing row indices, so that the
    filter's scan and split break score ties alike, plus an ordinal id."""

    indices: np.ndarray
    partition_id: int

    def __post_init__(self):
        if (np.diff(self.indices) <= 0).any():
            raise ValueError("partition indices must be strictly increasing")

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
        with np.errstate(over="ignore"):
            wide = np.flatnonzero(~np.isfinite(self.maxs - self.mins))
        if wide.size:
            j = int(wide[0])
            lo, hi = float(self.mins[j]), float(self.maxs[j])
            raise ValueError(f"feature {j + 1} spans [{lo}, {hi}], a range wider than "
                             "float64 holds")


# the fast path converts text in line-aligned blocks of about this many
# characters, so its temporaries stay a few MB whatever the file's size
_PARSE_BLOCK_CHARS = 1 << 18
# the fast path decodes an index of up to this many digits exactly, in
# int64; one past 2**53 it leaves to the line loop, whose footprint check
# rejects the file
_MAX_INDEX_DIGITS = 16
_MAX_FAST_INDEX = 1 << 53
# each byte's class for the fast path, as flags: 1 for the blanks that
# str.split() splits on in ASCII, 2 for the bytes that may stand only in a
# line's head, its label and the blanks around it. Pair text is ASCII digits,
# ". e E + - :" and the blanks space, tab, carriage return and newline.
_BYTE_CLASS = bytes(
    0 if c in b"0123456789.eE+-:" else 1 if c in b" \t\r\n"
    else 3 if c in b"\x0b\x0c\x1c\x1d\x1e\x1f" else 2
    for c in range(256)
)


def parse_libsvm(text: str) -> Dataset:
    """Parse sparse `<label> <idx>:<val> ...` lines into a Dataset.

    Feature indices are 1-based and must be strictly increasing per line;
    labels are encoded in first-appearance order. Empty lines are skipped.
    Values must be finite. The features are stored dense, so a file whose
    n x d float64 matrix would exceed physical memory is rejected before
    anything is allocated.

    The text is first read by a vectorised path that accepts plain decimal
    text (``_scan_blocks``); on anything it does not accept, the line loop
    reads the whole text again and reports the first fault with its line.
    """
    return _assemble(*(_scan_blocks(text) or _scan_lines(text)))


def _numeral(convert, text: str):
    """``convert(text)`` for ``int`` or ``float``, refusing with ValueError
    what they accept beyond a plain numeral: an underscore, as in ``1_0``,
    and any non-ASCII character, such as a digit of another script."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain numeral: {text!r}")
    return convert(text)


def _scan_lines(text):
    """The line loop: every index and value through ``_numeral``, and the
    only source of ``ParseError``s about the text."""
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
    for lineno, raw in enumerate(io.StringIO(text), start=1):
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
                idx = _numeral(int, idx_str)
            except ValueError:
                raise ParseError(f"non-integer feature index {idx_str!r}", lineno) from None
            if idx < 1:
                raise ParseError(f"feature index must be >= 1, got {idx}", lineno)
            if idx <= prev:
                raise ParseError("feature indices not strictly increasing", lineno)
            try:
                val = _numeral(float, val_str)
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

    Each line-aligned block is read by ``_scan_block`` with no step per line
    in Python. The whole text also has to pass the footprint check.
    """
    vocab: dict[str, int] = {}
    blocks = []
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _PARSE_BLOCK_CHARS)
        end = len(text) if end < 0 else end + 1
        block = _scan_block(text[pos:end], vocab)
        pos = end
        if block is None:
            return None
        blocks.append(block)
    if not blocks:
        return None
    labels, row_nnz, col_ind, values = (np.concatenate(parts) for parts in zip(*blocks))
    d = int(col_ind.max()) if col_ind.size else 0
    if not labels.size or not _fits_in_memory(labels.size, d):
        return None
    col_ind -= 1
    return vocab, labels, row_nnz, col_ind, values, d, None


def _scan_block(block: str, vocab: dict[str, int]):
    """(label ids, pairs per row, indices, values) of a block of lines, or
    None when a check fails; new labels join ``vocab``.

    Tokens are the runs between the ASCII blanks of ``str.split``, and the
    first token of a line is its label. A block is accepted only when every
    other token is ``<digits>:<value>``, with exactly one colon; a byte
    outside the pair text stands only in a line's head, its label and the
    blanks around it, where ``split(None, 1)`` took it; no label holds a
    Unicode blank; each index has at most 16 digits and lies in [1, 2**53],
    rising per row; and each value converts to exactly one finite number.
    ``np.fromstring`` converts the values, and rounds as ``float`` does.
    """
    try:
        # a blank after the last token, so that each value has one
        raw = block.encode() + b" "
    except UnicodeEncodeError:  # a lone surrogate
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    byte_class = np.frombuffer(raw.translate(_BYTE_CLASS), dtype=np.uint8)
    # token k runs from starts[k] up to ends[k]: blank/non-blank changes
    # alternate, a start first, when the text begins and ends as if after a
    # blank
    cuts = np.flatnonzero(np.diff((byte_class & 1).view(bool), prepend=True, append=True))
    starts, ends = cuts[0::2], cuts[1::2]
    newlines = np.flatnonzero(b == ord("\n"))
    # labels: the first token, and the first after each newline
    is_label = np.zeros(starts.size + 1, dtype=bool)
    is_label[0] = True
    is_label[np.searchsorted(starts, newlines)] = True
    is_label = is_label[:-1]
    labels = np.flatnonzero(is_label)
    pair_starts, pair_ends = starts[~is_label], ends[~is_label]
    # pair k must hold colon k with a byte on either side; as there are as
    # many colons as pairs, each pair then holds exactly one
    colons = np.flatnonzero(b == ord(":"))
    if colons.size != pair_starts.size or not (
        (pair_starts < colons).all() and (colons + 1 < pair_ends).all()
    ):
        return None
    odd = np.flatnonzero(byte_class >= 2)
    if odd.size:
        # in a line's head: the last pair to start before the byte starts
        # before the line does
        before = np.concatenate(([-1], pair_starts))[np.searchsorted(pair_starts, odd)]
        line_start = np.concatenate(([-1], newlines))[np.searchsorted(newlines, odd)]
        if not (before <= line_start).all():
            return None
    width = colons - pair_starts
    if width.size and width.max() > _MAX_INDEX_DIGITS:
        return None
    # the indices, one gather per digit place, counted back from the colon
    idx = np.zeros(colons.size, dtype=np.int64)
    for place in range(int(width.max()) if width.size else 0):
        digit = b.take(colons - 1 - place, mode="clip").astype(np.int64) - ord("0")
        digit[width <= place] = 0
        if ((digit < 0) | (digit > 9)).any():
            return None
        idx += digit * 10**place
    if idx.size and not (idx.min() >= 1 and idx.max() <= _MAX_FAST_INDEX):
        return None
    # pairs per row; a row's first pair need not rise from the pair before
    nnz = np.diff(labels, append=starts.size) - 1
    first = labels - np.arange(labels.size)
    rising = idx[1:] > idx[:-1]
    rising[first[(first > 0) & (first < idx.size)] - 1] = True
    if not rising.all():
        return None
    val = _values(b, colons, pair_ends)
    if val is None:
        return None
    ids = _label_ids(b, starts[labels], ends[labels], vocab)
    if ids is None:
        return None
    return ids, nnz, idx, val


def _values(b, colons, ends):
    """The finite values b[colons[k] + 1:ends[k]], one per pair, or None.

    Each value and the blank after it are gathered into one text, so that
    ``np.fromstring`` skips one blank per number.
    """
    if not colons.size:
        return np.zeros(0)
    length = ends - colons
    offsets = np.cumsum(length) - length
    text = b[np.repeat(colons + 1 - offsets, length) + np.arange(offsets[-1] + length[-1])]
    with warnings.catch_warnings():
        # older numpy warns, and returns what it read, on text it cannot read
        warnings.simplefilter("error", DeprecationWarning)
        try:
            val = np.fromstring(text.tobytes(), sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    # one number per value: numpy versions differ in whether text such as
    # "2+3" is an error or two numbers
    if val.size != colons.size or not np.isfinite(val).all():
        return None
    return val


def _label_ids(b, starts, ends, vocab: dict[str, int]):
    """The id in ``vocab`` of each label b[starts[k]:ends[k]], or None when
    a label holds a Unicode blank, where ``str.split`` would cut it.

    New labels join ``vocab`` in the order of their first line. Labels are
    told apart one width at a time, so that the keys take about as many
    bytes as the labels.
    """
    width = ends - starts
    key = np.empty(starts.size, dtype=np.int64)
    firsts: list[int] = []  # each distinct label's first line
    for w in np.flatnonzero(np.bincount(width)).tolist():
        rows = np.flatnonzero(width == w)
        # zero-padded to whole 64-bit words: within one width, equal words
        # are equal labels. Up to 8 bytes a label is one word, and longer
        # ones are rows of words
        words = np.zeros((rows.size, -(-w // 8) * 8), dtype=np.uint8)
        words[:, :w] = b[starts[rows, None] + np.arange(w)]
        words = words.view(np.uint64)
        one = words.shape[1] == 1
        _, first, inverse = np.unique(words.ravel() if one else words, axis=None if one else 0,
                                      return_index=True, return_inverse=True)
        key[rows] = inverse.reshape(-1) + len(firsts)
        firsts += rows[first].tolist()
    names = [b[starts[line]:ends[line]].tobytes().decode() for line in firsts]
    for k in np.argsort(firsts):
        if not names[k].isascii() and names[k].split() != [names[k]]:
            return None
        vocab.setdefault(names[k], len(vocab))
    return np.array([vocab[name] for name in names], dtype=np.int64)[key]


def _scaled_bytes(n: int, d: int) -> int:
    """Bytes held while scaling an n x d matrix: it, its copy and 3 column vectors."""
    return (2 * n + 3) * d * 8


def _fits_in_memory(n: int, d: int) -> bool:
    return _scaled_bytes(n, d) <= _physical_bytes()


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
            f"more than the {_physical_bytes()} bytes of physical memory once scaled "
            f"({_scaled_bytes(n, d)} bytes)",
            d_line,
        )
    # filled as (d, n) and returned transposed: column-major, so scaling
    # reads and writes contiguous columns
    features = np.zeros((d, n))
    rows = np.repeat(np.arange(n), row_nnz)
    features[np.asarray(col_ind, dtype=np.int64), rows] = np.asarray(values, dtype=np.float64)
    return Dataset(features.T, np.asarray(labels, dtype=np.int64), list(vocab))


def dump_libsvm(data: Dataset) -> str:
    """Serialize a Dataset back to sparse text; inverse of parse_libsvm."""
    out = []
    for row, label in zip(data.features, data.labels):
        pairs = " ".join(f"{j + 1}:{float(row[j])!r}" for j in np.flatnonzero(row))
        out.append(f"{data.label_names[label]} {pairs}".rstrip())
    return "\n".join(out) + "\n"


def parse_csv(text: str, label_column: int) -> Dataset:
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
    reader = _csv.reader(io.StringIO(text, newline=""))
    try:
        for record in reader:
            lineno = reader.line_num
            if not record:
                continue
            if width is None:
                width = len(record)
                if width < 2:
                    raise ParseError("need at least one feature column and a label column", lineno)
                col = label_column if label_column >= 0 else width + label_column
                if col < 0 or col >= width:
                    raise ValueError(
                        f"label column {label_column} out of range for {width} columns")
            elif len(record) != width:
                raise ParseError(f"ragged row: expected {width} fields, got {len(record)}", lineno)
            feat = []
            for j, cell in enumerate(record):
                if j == col:
                    labels.append(vocab.setdefault(cell.strip(), len(vocab)))
                    continue
                try:
                    val = _numeral(float, cell)
                except ValueError:
                    raise ParseError(f"non-numeric value {cell!r} in column {j}", lineno) from None
                if not math.isfinite(val):
                    raise ParseError(f"non-finite value {cell!r} in column {j}", lineno)
                feat.append(val)
            rows.append(feat)
    except _csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None
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
    # a value far outside the fitted range may overflow to +-inf, which the
    # clip maps to 1 or 0 as it would the finite quotient
    with np.errstate(over="ignore"):
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
