"""Bit-packing utilities: 64 shots per machine word, packed syndrome keys.

Two packing layouts appear in the sampling pipeline:

* **Shot-packed rows** (:func:`pack_rows` / :func:`unpack_rows`): a
  ``(rows, shots)`` boolean matrix stored as ``(rows, ceil(shots/64))``
  ``uint64`` words, bit ``b`` of word ``w`` holding shot ``64 * w + b``.
  This is the layout the packed frame backend computes in; it is defined
  arithmetically (shift + OR-reduce) so it is endian-independent.
* **Syndrome keys** (:func:`pack_row_keys`): each ``(shots, detectors)``
  row compressed to a tuple of little-endian ``uint64`` words via
  :func:`numpy.packbits`.  Deduplicating syndromes then sorts narrow
  integer keys instead of wide boolean rows, which is what makes
  :func:`unique_rows` fast at scale.  The dedup itself is
  :func:`unique_row_index`: one ``lexsort`` over the key columns.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "num_words",
    "pack_rows",
    "unpack_rows",
    "pack_row_keys",
    "unique_row_index",
    "unique_rows",
]

#: Bits per packed machine word.
WORD_BITS = 64

_SHIFTS = np.arange(WORD_BITS, dtype=np.uint64)


def num_words(bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``bits`` bits."""
    return (bits + WORD_BITS - 1) // WORD_BITS


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, n)`` boolean matrix along its second axis.

    Returns:
        ``(rows, num_words(n))`` ``uint64`` matrix; bit ``b`` of word ``w``
        is column ``64 * w + b`` (zero-padded past ``n``).
    """
    rows, n = bits.shape
    words = num_words(n)
    padded = np.zeros((rows, words * WORD_BITS), dtype=np.uint64)
    padded[:, :n] = bits
    return np.bitwise_or.reduce(
        padded.reshape(rows, words, WORD_BITS) << _SHIFTS, axis=-1
    )


def unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    """Invert :func:`pack_rows`, keeping the first ``count`` columns."""
    rows = words.shape[0]
    if rows == 0 or words.shape[1] == 0:
        return np.zeros((rows, count), dtype=bool)
    bits = ((words[:, :, None] >> _SHIFTS) & np.uint64(1)).astype(bool)
    return bits.reshape(rows, -1)[:, :count]


def pack_row_keys(bits: np.ndarray) -> np.ndarray:
    """Compress each boolean row to a key of little-endian ``uint64`` words.

    Args:
        bits: ``(shots, n)`` boolean matrix (``n >= 1``).

    Returns:
        ``(shots, num_words(n))`` array of dtype ``<u8``.  Equal rows map
        to equal keys and distinct rows to distinct keys, so the keys are a
        drop-in replacement for the rows in any dedup/sort.
    """
    shots, n = bits.shape
    packed8 = np.packbits(
        np.ascontiguousarray(bits, dtype=bool), axis=1, bitorder="little"
    )
    key_bytes = num_words(n) * (WORD_BITS // 8)
    if packed8.shape[1] != key_bytes:
        padded = np.zeros((shots, key_bytes), dtype=np.uint8)
        padded[:, : packed8.shape[1]] = packed8
        packed8 = padded
    return np.ascontiguousarray(packed8).view("<u8")


def unique_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate boolean rows by sorting their packed ``uint64`` keys.

    Args:
        bits: ``(shots, n)`` boolean matrix.

    Returns:
        ``(unique, inverse, counts)``: the distinct rows (in packed-key
        lexicographic order -- deterministic, though different from the
        boolean-row lexicographic order of :func:`numpy.unique`), the index
        of each input row into ``unique``, and each distinct row's
        multiplicity.
    """
    shots, n = bits.shape
    if shots == 0 or n == 0:
        unique = np.zeros((min(shots, 1), n), dtype=bool)
        inverse = np.zeros(shots, dtype=np.int64)
        counts = (
            np.array([shots], dtype=np.int64)
            if len(unique)
            else np.zeros(0, dtype=np.int64)
        )
        return unique, inverse, counts
    first, inverse, counts = unique_row_index(pack_row_keys(bits))
    return np.ascontiguousarray(bits[first]), inverse, counts


def unique_row_index(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of an integer matrix, by one stable ``lexsort``.

    The answer of ``np.unique(keys, axis=0, return_index=True,
    return_inverse=True, return_counts=True)`` minus the rows themselves:
    distinct rows in lexicographic order (first column most significant),
    each one's first occurrence, every row's index into them and their
    multiplicities.  Sorting the columns as plain integer keys avoids
    ``np.unique``'s sort of a structured view of each row.

    Args:
        keys: ``(rows, k)`` integer matrix, ``k >= 1``.

    Returns:
        ``(first, inverse, counts)`` int64 arrays; ``keys[first]`` are the
        distinct rows in order.
    """
    num = keys.shape[0]
    if keys.shape[1] == 1:
        order = np.argsort(keys[:, 0], kind="stable")
    else:
        order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.empty(num, dtype=bool)
    new[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    inverse = np.empty(num, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    counts = np.diff(np.append(starts, num))
    return order[starts].astype(np.int64), inverse, counts.astype(np.int64)
