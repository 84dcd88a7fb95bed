"""Vectorized exhaustive-search matching kernels (Astrea's search, batched).

A syndrome of Hamming weight ``w`` has only ``(w - 1)!!`` perfect matchings
-- at most 945 for ``w = 10`` -- so exact MWPM over few nodes reduces to
enumerating all of them (paper section 5).  This module holds the NumPy
index-tensor kernels that evaluate every candidate matching with one
fancy-indexed gather plus an ``argmin``:

* :func:`matchings_tensor` enumerates all perfect matchings of ``m`` nodes
  in the exact order Astrea's scalar hardware-model search explores them;
* :func:`vectorized_search` solves one weight matrix;
* :func:`batched_search` solves a whole ``(B, m, m)`` bucket at once;
* :func:`batched_dp` solves buckets too large to enumerate (12 to
  :data:`MAX_DP_NODES` nodes) by a subset dynamic program, vectorized
  across the bucket the same way.

The kernels originated in :mod:`repro.decoders.astrea` (which re-exports
them for backward compatibility) and were hoisted into the matching layer
so that pure matching code -- notably the sparse exact-MWPM engine in
:mod:`repro.matching.sparse` -- can evaluate small matching problems
without depending on the decoder layer.

Tie-breaking is *hierarchical*, mirroring the HW6Decoder-based scalar
search (Figure 7): results are bit-identical to the scalar reference,
pairs and weight alike.

Both public kernels resolve the active array backend
(:mod:`repro.backend`) at call time.  Native NumPy keeps the historical
fancy-indexed fast path; portable backends run the same enumeration
through a restricted array-API program (flat ``take`` gathers, per-level
``argmin``), returning device arrays from :func:`batched_search`.  The
left-to-right accumulation order and first-occurrence ``argmin``
semantics are part of the array-API standard, so the hierarchical
tie-breaking -- hence the selected matchings -- stays bit-identical
across backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..backend import ArrayBackend, get_backend

__all__ = [
    "MAX_SEARCH_NODES",
    "all_perfect_matchings",
    "matchings_tensor",
    "vectorized_search",
    "batched_search",
    "MAX_DP_NODES",
    "batched_dp",
    "hw6_accesses_for",
]

#: Largest node count the exhaustive index-tensor kernels support (945
#: candidate matchings); larger problems belong to the blossom solver.
MAX_SEARCH_NODES = 10

#: Largest node count :func:`batched_dp` supports; above it the blossom
#: solver is faster per cluster (crossover measured on d = 11 clusters,
#: see DESIGN.md "Kernel dispatch per cluster") and the plan, which grows
#: ~1.6x per added node, would be kept for the life of the process.
MAX_DP_NODES = 20

#: Candidate entries (clusters x plan entries) one DP chunk evaluates at
#: once: bounds the float temporaries to a few MB whatever the batch size.
_DP_CHUNK_ENTRIES = 1 << 19


@lru_cache(maxsize=None)
def all_perfect_matchings(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All perfect matchings of ``m`` nodes (cached; recursive order)."""
    if m == 0:
        return ((),)
    out = []
    nodes = list(range(m))
    first = nodes[0]
    for idx in range(1, m):
        partner = nodes[idx]
        rest = nodes[1:idx] + nodes[idx + 1 :]
        remap = {local: original for local, original in enumerate(rest)}
        for sub in all_perfect_matchings(m - 2):
            out.append(
                ((first, partner),)
                + tuple((remap[a], remap[b]) for a, b in sub)
            )
    return tuple(out)


@lru_cache(maxsize=None)
def matchings_tensor(m: int) -> np.ndarray:
    """All perfect matchings of ``m`` nodes as one integer index tensor.

    Returns a read-only ``(num_matchings, m / 2, 2)`` array enumerating the
    ``(m - 1)!!`` perfect matchings in *exactly* the order the scalar search
    explores them (:func:`all_perfect_matchings` shares its recursive
    structure with the pre-match search of :mod:`repro.decoders.astrea`),
    so that ``argmin`` over the vectorized totals breaks ties identically
    to the scalar search's strict-improvement rule.

    Args:
        m: Even node count, 0 <= m <= 10.

    Returns:
        The index tensor; fancy-indexing a weight matrix with its two
        trailing columns gathers every candidate matching's pair weights at
        once.
    """
    if m % 2 or m > MAX_SEARCH_NODES:
        raise ValueError(f"matchings_tensor supports even m <= 10, got {m}")
    if m == 0:
        tensor = np.zeros((1, 0, 2), dtype=np.intp)
    else:
        tensor = np.asarray(all_perfect_matchings(m), dtype=np.intp)
    tensor.setflags(write=False)
    return tensor


def hw6_accesses_for(m: int) -> int:
    """HW6Decoder accesses the exhaustive search performs for ``m`` nodes."""
    if m == 0:
        return 0
    if m <= 6:
        return 1
    return 7 if m == 8 else 63


def _ltr_sum(gathered: np.ndarray) -> np.ndarray:
    """Sum the last axis left to right (the HW6Decoder's accumulation)."""
    total = gathered[..., 0]
    for k in range(1, gathered.shape[-1]):
        total = total + gathered[..., k]
    return total


def _scalar_order_select(
    gathered: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pick each row's minimum matching exactly as the scalar search does.

    The scalar search is *hierarchical*: the HW6Decoder first selects the
    best completion of each pre-match block by comparing its partial sums,
    and only then does each pre-match level compare ``head + sub`` block
    totals (section 5.3 / Figure 7b).  Because every comparison operates
    on *rounded* floating-point partials, a flat ``argmin`` over full
    matching totals can break ties differently; this helper replicates the
    per-level comparisons (and their left-to-right accumulation order) so
    the selected matching -- not just its weight -- is bit-identical to
    the scalar reference.

    Args:
        gathered: ``(B, K, num_pairs)`` per-pair weights of every candidate
            matching, in :func:`matchings_tensor` order.
        m: Node count (even, 2 <= m <= 10).

    Returns:
        Tuple ``(best_index, best_total)`` of ``(B,)`` arrays.
    """
    num = gathered.shape[0]
    rows = np.arange(num)
    if m <= 6:
        totals = _ltr_sum(gathered)
        best = totals.argmin(axis=-1)
        return best, totals[rows, best]
    if m == 8:
        # 7 pre-match blocks x 15 HW6 completions.
        blocks = gathered.reshape(num, 7, 15, 4)
        subs = _ltr_sum(blocks[..., 1:])
        sub_idx = subs.argmin(axis=-1)
        sub_best = np.take_along_axis(subs, sub_idx[..., None], axis=-1)[..., 0]
        totals = blocks[..., 0, 0] + sub_best
        block_idx = totals.argmin(axis=-1)
        best = block_idx * 15 + sub_idx[rows, block_idx]
        return best, totals[rows, block_idx]
    # m == 10: 9 x 7 pre-match blocks x 15 HW6 completions.
    blocks = gathered.reshape(num, 9, 7, 15, 5)
    subs = _ltr_sum(blocks[..., 2:])
    sub_idx = subs.argmin(axis=-1)
    sub_best = np.take_along_axis(subs, sub_idx[..., None], axis=-1)[..., 0]
    inner = blocks[..., 0, 1] + sub_best
    inner_idx = inner.argmin(axis=-1)
    inner_best = np.take_along_axis(inner, inner_idx[..., None], axis=-1)[..., 0]
    outer = blocks[..., 0, 0, 0] + inner_best
    outer_idx = outer.argmin(axis=-1)
    inner_sel = inner_idx[rows, outer_idx]
    sub_sel = sub_idx[rows, outer_idx, inner_sel]
    best = (outer_idx * 7 + inner_sel) * 15 + sub_sel
    return best, outer[rows, outer_idx]


# ----------------------------------------------------------------------
# Portable (array-API) variants of the selection kernels
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _flat_matching_indices(m: int) -> np.ndarray:
    """:func:`matchings_tensor` pairs as flat ``(K, P)`` row-major indices."""
    tensor = matchings_tensor(m)
    flat = (tensor[:, :, 0] * m + tensor[:, :, 1]).astype(np.int64)
    flat.setflags(write=False)
    return flat


def _take_along_last(xp, x, idx):
    """Portable ``take_along_axis(x, idx[..., None], -1)[..., 0]``.

    ``x`` has shape ``(..., L)``; ``idx`` the matching leading shape.
    Implemented with flat ``take`` so it works on namespaces that predate
    ``take_along_axis`` in the array-API standard.
    """
    shape = x.shape
    length = shape[-1]
    n = 1
    for s in shape[:-1]:
        n *= s
    flat_x = xp.reshape(x, (n * length,))
    flat_i = xp.astype(xp.reshape(idx, (n,)), xp.int64) + xp.arange(
        n, dtype=xp.int64
    ) * length
    return xp.reshape(xp.take(flat_x, flat_i), shape[:-1])


def _gather_rows(xp, x, idx):
    """Per-row gather: ``x`` is ``(B, L)``, ``idx`` is ``(B, P)`` -> ``(B, P)``."""
    num, length = x.shape
    cols = idx.shape[1]
    flat_x = xp.reshape(x, (num * length,))
    offsets = xp.reshape(xp.arange(num, dtype=xp.int64) * length, (num, 1))
    flat_i = xp.reshape(xp.astype(idx, xp.int64) + offsets, (num * cols,))
    return xp.reshape(xp.take(flat_x, flat_i), (num, cols))


def _scalar_order_select_xp(xp, gathered, m: int):
    """Array-API twin of :func:`_scalar_order_select`.

    Same left-to-right partial sums, per-level ``argmin`` (first
    occurrence -- mandated by the array-API spec, matching NumPy) and
    strict-improvement composition, so the selected index and total are
    bit-identical to the native kernel.
    """
    if m <= 6:
        totals = _ltr_sum(gathered)
        best = xp.argmin(totals, axis=-1)
        return best, _take_along_last(xp, totals, best)
    num = gathered.shape[0]
    if m == 8:
        blocks = xp.reshape(gathered, (num, 7, 15, 4))
        subs = _ltr_sum(blocks[..., 1:])
        sub_idx = xp.argmin(subs, axis=-1)
        sub_best = _take_along_last(xp, subs, sub_idx)
        totals = blocks[..., 0, 0] + sub_best
        block_idx = xp.argmin(totals, axis=-1)
        best = block_idx * 15 + xp.astype(
            _take_along_last(xp, sub_idx, block_idx), block_idx.dtype
        )
        return best, _take_along_last(xp, totals, block_idx)
    # m == 10: 9 x 7 pre-match blocks x 15 HW6 completions.
    blocks = xp.reshape(gathered, (num, 9, 7, 15, 5))
    subs = _ltr_sum(blocks[..., 2:])
    sub_idx = xp.argmin(subs, axis=-1)
    sub_best = _take_along_last(xp, subs, sub_idx)
    inner = blocks[..., 0, 1] + sub_best
    inner_idx = xp.argmin(inner, axis=-1)
    inner_best = _take_along_last(xp, inner, inner_idx)
    outer = blocks[..., 0, 0, 0] + inner_best
    outer_idx = xp.argmin(outer, axis=-1)
    inner_sel = xp.astype(
        _take_along_last(xp, inner_idx, outer_idx), outer_idx.dtype
    )
    sub_flat = xp.reshape(sub_idx, (num, 63))
    sub_sel = xp.astype(
        _take_along_last(xp, sub_flat, outer_idx * 7 + inner_sel),
        outer_idx.dtype,
    )
    best = (outer_idx * 7 + inner_sel) * 15 + sub_sel
    return best, _take_along_last(xp, outer, outer_idx)


def _gathered_candidates_xp(backend: ArrayBackend, weights: np.ndarray, m: int):
    """Device ``(B, K, P)`` per-pair weights of every candidate matching."""
    xp = backend.xp
    num = weights.shape[0]
    flat_idx = backend.asarray(_flat_matching_indices(m).ravel())
    dev_w = backend.asarray(np.ascontiguousarray(weights, dtype=np.float64))
    flat_w = xp.reshape(dev_w, (num, m * m))
    tensor = matchings_tensor(m)
    gathered = xp.reshape(
        xp.take(flat_w, flat_idx, axis=1),
        (num, tensor.shape[0], tensor.shape[1]),
    )
    return gathered


def vectorized_search(
    weights: np.ndarray,
) -> tuple[list[tuple[int, int]], float, int]:
    """Exact MWPM of one small weight matrix by exhaustive enumeration.

    Evaluates all candidate matchings with a single fancy-indexed gather
    plus an ``argmin`` instead of nested Python loops.  Returns bit-identical
    pairs, weight and access count to the scalar HW6Decoder-based search,
    on every array backend.

    Args:
        weights: Effective pair-weight matrix of an even node count <= 10.

    Returns:
        Tuple ``(pairs, total_weight, hw6_accesses)``.
    """
    m = weights.shape[0]
    if m == 0:
        return [], 0.0, 0
    if m % 2 or m > MAX_SEARCH_NODES:
        raise ValueError(f"exhaustive search supports at most 10 nodes, got {m}")
    backend = get_backend()
    tensor = matchings_tensor(m)
    if backend.native_numpy:
        gathered = weights[None, tensor[:, :, 0], tensor[:, :, 1]]
        best, total = _scalar_order_select(gathered, m)
        best_index = int(best[0])
        best_total = float(total[0])
    else:
        gathered = _gathered_candidates_xp(backend, weights[None], m)
        best, total = _scalar_order_select_xp(backend.xp, gathered, m)
        best_index = int(backend.to_numpy(best).reshape(-1)[0])
        best_total = float(backend.to_numpy(total).reshape(-1)[0])
    pairs = [(int(a), int(b)) for a, b in tensor[best_index]]
    return pairs, best_total, hw6_accesses_for(m)


def batched_search(
    weights: np.ndarray, parities: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exhaustive MWPM search over a whole bucket of syndromes at once.

    Args:
        weights: ``(B, m, m)`` pair-weight tensor (even ``m`` <= 10), e.g.
            from :meth:`MatchingProblem.from_syndrome_batch`.
        parities: ``(B, m, m)`` bool tensor of logical parities.

    Returns:
        Tuple ``(pair_tensor, total_weights, predictions)`` where
        ``pair_tensor`` is ``(B, m / 2, 2)`` (row ``i`` holds syndrome
        ``i``'s minimum matching), ``total_weights`` is ``(B,)`` and
        ``predictions`` is the ``(B,)`` bool logical-flip vector.  On a
        non-native array backend all three live on the backend's device;
        bring them home with :func:`repro.backend.from_device`.
    """
    num, m, _ = weights.shape
    if m == 0:
        return (
            np.zeros((num, 0, 2), dtype=np.intp),
            np.zeros(num, dtype=np.float64),
            np.zeros(num, dtype=bool),
        )
    if m % 2 or m > MAX_SEARCH_NODES:
        raise ValueError(f"exhaustive search supports at most 10 nodes, got {m}")
    backend = get_backend()
    tensor = matchings_tensor(m)
    if backend.native_numpy:
        gathered = weights[:, tensor[:, :, 0], tensor[:, :, 1]]
        best, totals = _scalar_order_select(gathered, m)
        rows = np.arange(num)
        pair_tensor = tensor[best]
        sel_parities = parities[
            rows[:, None], pair_tensor[:, :, 0], pair_tensor[:, :, 1]
        ]
        predictions = np.bitwise_xor.reduce(sel_parities, axis=1)
        return pair_tensor, totals, predictions
    xp = backend.xp
    gathered = _gathered_candidates_xp(backend, weights, m)
    best, totals = _scalar_order_select_xp(xp, gathered, m)
    dev_tensor = backend.asarray(np.ascontiguousarray(tensor, dtype=np.int64))
    pair_tensor = xp.take(dev_tensor, xp.astype(best, xp.int64), axis=0)
    par_int = np.ascontiguousarray(parities).astype(np.int64)
    flat_par = xp.reshape(backend.asarray(par_int), (num, m * m))
    flat_pair_idx = (
        xp.astype(pair_tensor[:, :, 0], xp.int64) * m
        + xp.astype(pair_tensor[:, :, 1], xp.int64)
    )
    sel = _gather_rows(xp, flat_par, flat_pair_idx)
    predictions = xp.astype(xp.sum(sel, axis=1) % 2, xp.bool)
    return pair_tensor, totals, predictions


# ----------------------------------------------------------------------
# Subset-DP kernel for clusters too large to enumerate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _DPLayer:
    """One popcount layer of a :func:`_dp_plan`.

    Attributes:
        low: ``(n,)`` lowest free node of each mask in the layer.
        partner: ``(n, p - 1)`` the mask's other nodes, ascending: the
            candidates the lowest node may match.
        flat: ``(n, p - 1)`` row-major weight-matrix offsets
            ``low * m + partner``.
        child: ``(n, p - 1)`` index, in the layer below, of the mask left
            after matching ``low`` with each candidate.
    """

    low: np.ndarray
    partner: np.ndarray
    flat: np.ndarray
    child: np.ndarray


@lru_cache(maxsize=None)
def _dp_plan(m: int) -> tuple[_DPLayer, ...]:
    """Layers of the masks reachable from the full ``m``-node set.

    Always matching the lowest free node keeps only F(m + 1) (Fibonacci)
    of the ``2**m`` subsets reachable -- 233 at m = 12, 10,946 at m = 20
    -- so the plan is small.  Layers run bottom-up (popcount 2, 4, ...,
    m); the top layer holds the full set alone.  Built on first use per
    ``m``, stored as compact int32.
    """
    masks = np.array([(1 << m) - 1], dtype=np.int64)
    layers = []
    for p in range(m, 0, -2):
        bits = (masks[:, None] >> np.arange(m)) & 1
        # Row-major nonzero lists each mask's p nodes in ascending order.
        nodes = np.nonzero(bits)[1].reshape(len(masks), p)
        low, partner = nodes[:, 0], nodes[:, 1:]
        rest = (masks ^ (1 << low))[:, None] ^ (1 << partner)
        masks, child = np.unique(rest, return_inverse=True)
        layers.append(
            _DPLayer(
                low=low.astype(np.int32),
                partner=partner.astype(np.int32),
                flat=(low[:, None] * m + partner).astype(np.int32),
                child=child.reshape(rest.shape).astype(np.int32),
            )
        )
    layers.reverse()
    for layer in layers:
        for array in (layer.low, layer.partner, layer.flat, layer.child):
            array.setflags(write=False)
    return tuple(layers)


def batched_dp(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact MWPM of a ``(B, m, m)`` bucket by subset dynamic programming.

    ``best(S) = min_j W[low(S), j] + best(S - {low(S), j})`` over the
    masks :func:`_dp_plan` keeps, one popcount layer at a time for every
    problem of the bucket at once, then a vectorized backtrack.  Ties go
    to the lowest partner index (first-occurrence ``argmin`` over
    ascending candidates), and each total is summed in the same order as
    :func:`repro.matching.brute_force.min_weight_perfect_matching_dp`, so
    both return the same matching and bit-equal weight.  Work is chunked
    over the bucket so temporaries stay a few MB.

    Args:
        weights: ``(B, m, m)`` pair-weight tensor, even
            ``m <= MAX_DP_NODES``; only the upper triangle is read.

    Returns:
        Tuple ``(pair_tensor, total_weights)``: ``(B, m / 2, 2)`` local
        pairs (lower node first, pairs by ascending lower node) and the
        ``(B,)`` minimum weights.
    """
    weights = np.asarray(weights, dtype=np.float64)
    num, m, _ = weights.shape
    if m % 2 or m > MAX_DP_NODES:
        raise ValueError(
            f"subset DP supports even node counts <= {MAX_DP_NODES}, got {m}"
        )
    pairs = np.zeros((num, m // 2, 2), dtype=np.intp)
    totals = np.zeros(num, dtype=np.float64)
    if m == 0 or num == 0:
        return pairs, totals
    plan = _dp_plan(m)
    flat_w = weights.reshape(num, m * m)
    step = max(1, _DP_CHUNK_ENTRIES // max(layer.flat.size for layer in plan))
    for start in range(0, num, step):
        w = flat_w[start : start + step]
        rows = np.arange(len(w))
        best = np.zeros((len(w), 1), dtype=np.float64)
        picks = []
        for layer in plan:
            candidates = w[:, layer.flat] + best[:, layer.child]
            pick = candidates.argmin(axis=2)
            best = np.take_along_axis(candidates, pick[:, :, None], axis=2)[:, :, 0]
            picks.append(pick.astype(np.uint8))
        totals[start : start + len(w)] = best[:, 0]
        state = np.zeros(len(w), dtype=np.intp)
        for k, (layer, pick) in enumerate(zip(reversed(plan), reversed(picks))):
            choice = pick[rows, state]
            pairs[start : start + len(w), k, 0] = layer.low[state]
            pairs[start : start + len(w), k, 1] = layer.partner[state, choice]
            state = layer.child[state, choice]
    return pairs, totals
