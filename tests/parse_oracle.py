"""Reference LIBSVM block scan: one ``split`` per line takes the label, and
one ``np.fromstring`` converts a block's indices and values together.

The package's vectorised scan as it stood before it found tokens by byte
masks and decoded the indices from their digits, kept unchanged with its
constants. ``_scan_blocks`` returns the buffers of ``_scan_lines``, or None
where it declines the text; the package's scan must decline whatever this
one declines, give equal buffers where both accept, and on ASCII text
accept whatever this one accepts.
"""

from __future__ import annotations

import warnings
from array import array

import numpy as np

from noisegate.data import _fits_in_memory

# the fast path converts text in line-aligned blocks of about this many
# characters, so its temporaries stay a few MB whatever the file's size
_PARSE_BLOCK_CHARS = 1 << 18
# an index is converted through float64, which holds every integer up to here
_MAX_FAST_INDEX = 1 << 53
# bytes the fast path accepts in the text after the labels: digits . e E + -
# : and the blanks space, tab, carriage return and newline
_PAIR_BYTES = np.zeros(256, dtype=bool)
_PAIR_BYTES[np.frombuffer(b"0123456789.eE+-: \t\r\n", dtype=np.uint8)] = True


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
