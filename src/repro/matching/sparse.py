"""Sparse exact-MWPM engine: cluster decomposition + memoized matching.

The dense software MWPM baseline solves one blossom instance over *all*
active detectors per syndrome.  At the low physical error rates the paper
evaluates (p ~ 1e-3), syndromes are sparse and their defects form small,
well-separated clusters -- the same locality that Sparse Blossom
(Higgott & Gidney 2023) and PyMatching exploit.  This module provides an
engine that is *bit-exact* with the dense solve while being much faster:

1. **Decomposition.**  Active detectors are grouped into connected
   components of the precomputed *close* adjacency
   (:class:`repro.graphs.decoding_graph.NeighborStructure`): detectors
   ``a, b`` are close when ``W[a, b] < W[a, a] + W[b, b]``, i.e. matching
   them directly beats sending both to the boundary.  For every
   *separable* pair (``W[a, b] == W[a, a] + W[b, b]`` with consistent
   parity) an exchange argument shows any dense optimum can be rewired,
   at equal weight and parity, so that no matched pair crosses a cluster
   border: per-cluster optima compose into a global optimum.  A syndrome
   containing an *unsafe* pair (``W[a, b] > W[a, a] + W[b, b]``, a
   quantization artifact that breaks the argument) is routed whole to the
   graph-local :class:`~repro.matching.sparse_blossom.SparseBlossomEngine`
   when one is attached -- which re-derives true (unquantized) weights
   during growth, so no decomposition proof is needed -- and otherwise
   raises :class:`SparseEngineError` so the decoder can degrade to its
   dense reference path.

2. **Closed forms.**  A singleton cluster matches its detector to the
   boundary (weight ``W[d, d]``); a close pair matches directly (weight
   ``W[a, b]``); larger clusters are solved from the table submatrix
   by the kernels of :mod:`repro.matching.search`: up to 10 matching
   nodes by the vectorized exhaustive-search tensors, up to 20 by the
   batched subset DP, and only beyond that by the blossom solver.  The
   graph engine, when attached, serves unsafe-pair syndromes alone.

3. **Memoization.**  :meth:`SparseMatchingEngine.solve` caches cluster
   matchings in a canonical-key LRU (key = the cluster's sorted detector
   indices, as raw bytes).  Because low-p syndromes decompose into few
   distinct small clusters, sub-syndrome hit rates far exceed
   whole-syndrome hit rates.  Clusters of one or two defects are *not*
   cached -- their closed forms (a couple of array lookups) are cheaper
   than the cache machinery itself.

4. **Batching.**  :meth:`SparseMatchingEngine.solve_batch` is columnar:
   it answers a whole ``(shots, detectors)`` matrix with a
   :class:`~repro.decoders.base.DecodeBatch` and builds no per-row or
   per-cluster Python objects.  Rows are Hamming-weight-bucketed: weight-1
   and weight-2 syndromes are closed forms scattered into the output
   arrays.  Larger buckets label their connected components for the whole
   bucket at once (boolean matrix-power closure over the gathered close
   submatrices) and flatten every row's components into one *segment
   stream* (a stable sort by row and component label): singleton and pair
   segments evaluate their closed forms vectorized, and >= 3-defect
   segments are grouped by size, deduplicated with one ``lexsort``
   (:func:`repro.sim.packing.unique_row_index`) and solved once per
   distinct cluster, every same-size cluster of the batch through one
   kernel call.  Per-row weights come back through an
   in-order ``bincount`` over the stream, which accumulates segments in
   exactly the scalar path's smallest-member component order, keeping
   float sums bit-identical; one ``lexsort`` puts every row's pairs in
   ``sorted()`` order.  The batch neither reads nor fills the LRU: a
   census decodes each unique syndrome once on a fresh decoder, so the
   cache would only serve in-batch repeats, which the batch's own dedup
   covers without building a cached object per cluster.

Statistics (cluster counts, cache hits/misses, fallback breakdown) are
tracked in :class:`SparseStats` and surfaced by the experiment reports.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..backend import from_device
from ..graphs.decoding_graph import BOUNDARY, NeighborStructure
from ..graphs.weights import GlobalWeightTable
from ..sim.packing import unique_row_index
from .blossom import min_weight_perfect_matching
from .boundary import MatchingProblem, matching_to_detectors
from .search import (
    MAX_DP_NODES,
    MAX_SEARCH_NODES,
    batched_dp,
    batched_search,
    vectorized_search,
)

if TYPE_CHECKING:
    from ..decoders.base import DecodeBatch

__all__ = [
    "SparseMatchingEngine",
    "SparseEngineError",
    "SparseStats",
    "default_tolerance",
]

#: Widest Hamming-weight bucket the vectorized component labelling
#: handles (uint8 matrix powers hold path counts up to 255); wider rows
#: fall back to the per-row graph traversal.
_MAX_LABEL_WEIGHT = 128

_NON_FINITE_TABLE = "weight table contains non-finite (NaN/inf) entries"
_UNSAFE_PAIR = (
    "syndrome contains an unsafe pair (weight-quantization artifact) and no "
    "graph engine is attached to solve it exactly"
)


class SparseEngineError(RuntimeError):
    """The sparse matching engine cannot solve a syndrome exactly.

    Raised when no exact sparse route exists -- e.g. the weight table
    contains non-finite entries, a syndrome references a detector outside
    the table, or an unsafe pair occurs with no graph engine attached.
    :class:`repro.decoders.mwpm.MWPMDecoder` catches this and degrades to
    its dense reference path with a
    :class:`~repro.decoders.base.DecoderFallbackWarning` instead of
    aborting the experiment.
    """


def default_tolerance(gwt: GlobalWeightTable) -> float:
    """Separation-test tolerance appropriate for a weight table.

    Quantized tables (``lsb`` set) hold exact multiples of the lsb, so the
    boundary-folding bound is tested exactly; unquantized tables carry the
    float round-off of the all-pairs Dijkstra, absorbed by a tiny slack.
    """
    return 0.0 if gwt.lsb is not None else 1e-9


def _fallback_counter() -> dict[str, int]:
    """Fresh per-reason fallback counter (all reasons present, zeroed)."""
    return {"unsafe_pair": 0, "unsolvable": 0, "engine_error": 0}


@dataclass
class SparseStats:
    """Counters accumulated by a sparse matching engine.

    Shared by the table-driven :class:`SparseMatchingEngine` and the
    graph-local :class:`~repro.matching.sparse_blossom.SparseBlossomEngine`
    (growth-specific counters stay zero on the table engine).

    Attributes:
        syndromes: Non-empty syndromes solved.
        fallback_events: Events the engine could not handle on its normal
            decomposition path, by reason: ``"unsafe_pair"`` (syndrome
            contained an unsafe pair -- routed to the graph engine when
            attached, raised otherwise), ``"unsolvable"`` (non-finite
            weights or out-of-range detector indices; always raised) and
            ``"engine_error"`` (unexpected internal failure, recorded by
            the decoder when it degrades).
        clusters: Clusters solved across all decomposed syndromes.
        cache_hits: Cluster-cache hits (in a batch: repeats of a >= 3-defect
            cluster already seen in the same batch).
        cache_misses: Cluster-cache misses (in a batch: distinct >= 3-defect
            clusters).
        dp_clusters: Cache misses too large for exhaustive search that
            ran the subset-DP kernel (:func:`~repro.matching.search.batched_dp`).
        blossom_clusters: Cache misses too large for the subset DP that
            ran the blossom solver.
        nodes_settled: Graph vertices settled during region growth
            (graph engine only).
        collisions: Region collisions that merged clusters during growth
            (graph engine only).
    """

    syndromes: int = 0
    fallback_events: dict[str, int] = field(default_factory=_fallback_counter)
    clusters: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dp_clusters: int = 0
    blossom_clusters: int = 0
    nodes_settled: int = 0
    collisions: int = 0

    @property
    def hit_rate(self) -> float:
        """Cluster-cache hit rate (0 when nothing was looked up)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_fallbacks(self) -> int:
        """Sum of the per-reason fallback counters."""
        return sum(self.fallback_events.values())

    @property
    def fallback_rate(self) -> float:
        """Fraction of syndromes that left the normal decomposition path."""
        return self.total_fallbacks / self.syndromes if self.syndromes else 0.0

    def as_dict(self) -> dict:
        """Counters plus derived rates, JSON-ready."""
        return {
            "syndromes": self.syndromes,
            "fallback_events": dict(self.fallback_events),
            "clusters": self.clusters,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "dp_clusters": self.dp_clusters,
            "blossom_clusters": self.blossom_clusters,
            "nodes_settled": self.nodes_settled,
            "collisions": self.collisions,
            "hit_rate": self.hit_rate,
            "fallback_rate": self.fallback_rate,
        }


@dataclass(slots=True)
class _ClusterSolution:
    """Memoized solution of one cluster."""

    pairs: list[tuple[int, int]]
    weight: float
    prediction: bool


class SparseMatchingEngine:
    """Exact MWPM via cluster decomposition, closed forms and memoization.

    Args:
        gwt: Global Weight Table of the code/noise configuration.
        tolerance: Separation-test slack; defaults via
            :func:`default_tolerance` (0 for quantized tables, 1e-9 for
            float tables).
        cache_size: Maximum number of memoized cluster solutions (LRU
            eviction; 0 disables caching).  Only :meth:`solve` uses the
            cache.
        structure: A pre-built :class:`NeighborStructure` for ``gwt`` at
            ``tolerance`` (e.g. from the pipeline's artifact store).  The
            caller guarantees it matches; None computes it here.
        graph_engine: An optional
            :class:`~repro.matching.sparse_blossom.SparseBlossomEngine`
            over the decoding graph this table derives from.  Unsafe-pair
            syndromes route to it; every other cluster is solved from the
            table.  Exactness requires ``gwt`` to be the graph's *ideal*
            (unquantized) all-pairs table -- the graph engine re-derives
            true weights, which only coincide with unquantized table
            entries.
    """

    def __init__(
        self,
        gwt: GlobalWeightTable,
        *,
        tolerance: float | None = None,
        cache_size: int = 65536,
        structure: NeighborStructure | None = None,
        graph_engine=None,
    ) -> None:
        self.gwt = gwt
        self.tolerance = (
            default_tolerance(gwt) if tolerance is None else tolerance
        )
        if structure is not None and structure.radii.shape[0] != gwt.weights.shape[0]:
            raise ValueError(
                f"pre-built neighbor structure covers "
                f"{structure.radii.shape[0]} detectors but the weight "
                f"table has {gwt.weights.shape[0]}"
            )
        self.structure = (
            structure
            if structure is not None
            else NeighborStructure.from_weights(
                gwt.weights, gwt.parities, tolerance=self.tolerance
            )
        )
        self.graph_engine = graph_engine
        self.cache_size = cache_size
        self.stats = SparseStats()
        self._cache: OrderedDict[bytes, _ClusterSolution] = OrderedDict()
        # Flat copies of the hot lookups (diagonals as 1-D arrays) so the
        # closed forms touch contiguous memory.
        self._radii = self.structure.radii
        self._diag_parities = np.diag(gwt.parities).copy()
        self._num_detectors = int(gwt.weights.shape[0])
        # Checked once; a poisoned table makes every decomposition claim
        # meaningless, so solves must refuse.
        self._weights_finite = bool(np.isfinite(gwt.weights).all())
        # Ideal tables have no unsafe pairs; batches then skip the scan.
        self._has_unsafe = bool(self.structure.unsafe.any())

    def _check_solvable(self, dets: np.ndarray) -> None:
        """Refuse syndromes the engine cannot decode exactly.

        Raises:
            SparseEngineError: When the weight table holds non-finite
                entries or a detector index falls outside the table.
        """
        if not self._weights_finite:
            self.stats.fallback_events["unsolvable"] += 1
            raise SparseEngineError(_NON_FINITE_TABLE)
        if dets.size and (
            int(dets[-1]) >= self._num_detectors or int(dets[0]) < 0
        ):
            offender = (
                int(dets[-1])
                if int(dets[-1]) >= self._num_detectors
                else int(dets[0])
            )
            self.stats.fallback_events["unsolvable"] += 1
            raise SparseEngineError(
                f"detector index {offender} "
                f"outside the {self._num_detectors}-detector weight table"
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def solve(
        self, active: list[int] | np.ndarray
    ) -> tuple[list[tuple[int, int]], float, bool]:
        """Exact minimum-weight matching of one syndrome.

        Args:
            active: Indices of the non-zero syndrome bits (any order).

        Returns:
            Tuple ``(pairs, weight, prediction)``: detector-index pairs
            (:data:`BOUNDARY` second for boundary matches), the matching's
            total weight, and the implied logical-observable flip.

        Raises:
            SparseEngineError: When no exact sparse route exists (see
                :class:`SparseStats.fallback_events` for the breakdown).
        """
        dets = np.asarray(active, dtype=np.intp)
        if dets.size == 0:
            return [], 0.0, False
        dets = np.sort(dets)
        self._check_solvable(dets)
        self.stats.syndromes += 1
        if dets.size == 1:
            self.stats.clusters += 1
            solution = self._singleton(int(dets[0]))
            return list(solution.pairs), solution.weight, solution.prediction
        cols = dets[:, None]
        if self.structure.unsafe[cols, dets].any():
            return self._route_unsafe(dets)
        return self._solve_decomposed(dets, self.structure.close[cols, dets])

    def solve_batch(self, syndromes: np.ndarray) -> DecodeBatch:
        """Exact minimum-weight matchings of a (shots, detectors) matrix.

        Row results are identical to per-row :meth:`solve` (pairs in
        ``sorted()`` order, bit-equal weights), returned as a columnar
        :class:`~repro.decoders.base.DecodeBatch` with zero latency.  Rows
        :meth:`solve` would refuse -- an unsafe pair with no graph engine
        attached, or a poisoned weight table -- are counted like per-row
        solves and marked ``decoded=False`` with a NaN weight instead of
        raising; :meth:`refusal` is the error :meth:`solve` raises for them.

        The cluster cache serves :meth:`solve` only: the batch dedups its
        own >= 3-defect clusters, which is where its hits come from, and
        counts them as the cache would for a fresh engine (one miss per
        distinct cluster, a hit for every repeat).
        """
        # The decoder layer imports this module, so import its type late.
        from ..decoders.base import DecodeBatch

        syndromes = np.asarray(syndromes).astype(bool, copy=False)
        if syndromes.ndim != 2:
            raise ValueError("solve_batch expects a (shots, detectors) matrix")
        num = syndromes.shape[0]
        hw = syndromes.sum(axis=1)
        stats = self.stats
        weights = np.zeros(num, dtype=np.float64)
        predictions = np.zeros(num, dtype=bool)
        decoded = np.ones(num, dtype=bool)
        if not self._weights_finite:
            refused = hw > 0
            stats.fallback_events["unsolvable"] += int(refused.sum())
            weights[refused] = np.nan
            return DecodeBatch(
                predictions=predictions,
                weights=weights,
                offsets=np.zeros(num + 1, dtype=np.intp),
                first=(),
                second=(),
                decoded=~refused,
            )
        structure = self.structure
        radii = self._radii
        diag_parities = self._diag_parities
        table_weights = self.gwt.weights
        table_parities = self.gwt.parities
        # Matched pairs as (row, first, second) streams, put in per-row
        # sorted order once at the end.
        pair_rows: list[np.ndarray] = []
        pair_first: list[np.ndarray] = []
        pair_second: list[np.ndarray] = []

        def emit(rows, first, second) -> None:
            pair_rows.append(rows)
            pair_first.append(first)
            pair_second.append(np.broadcast_to(second, first.shape))

        routed: list[tuple[int, tuple[list[tuple[int, int]], float, bool]]] = []

        def route_unsafe(rows: np.ndarray, active: np.ndarray) -> None:
            # Per-row :meth:`_route_unsafe`, without raising on refusal.
            stats.fallback_events["unsafe_pair"] += rows.size
            if self.graph_engine is None:
                decoded[rows] = False
                weights[rows] = np.nan
                return
            for i, dets in zip(rows.tolist(), active):
                routed.append((i, self.graph_engine.solve(dets)))

        # Component segments of the >= 3-defect buckets.  Each row's
        # segments are contiguous and ordered by smallest member, the
        # scalar path's visit order, so an in-order accumulation over the
        # stream reproduces its float sums.
        seg_rows: list[np.ndarray] = []
        seg_weights: list[np.ndarray] = []
        seg_preds: list[np.ndarray] = []
        # Segments of >= 3 defects by cluster size: (segment ids, rows,
        # member matrix), solved after the bucket loop.
        big: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        num_segments = 0
        # One global nonzero: every bucket's active-index matrix is then a
        # strided gather from this flat column stream instead of a fresh
        # (B, detectors) fancy-index copy + scan per bucket.
        all_cols = np.nonzero(syndromes)[1]
        row_start = np.zeros(num + 1, dtype=np.intp)
        np.cumsum(hw, out=row_start[1:])
        for w in np.unique(hw).tolist():
            if w == 0:
                continue
            rows = np.nonzero(hw == w)[0]
            active = all_cols[row_start[rows][:, None] + np.arange(w)]
            stats.syndromes += rows.size
            if w == 1:
                stats.clusters += rows.size
                dets = active[:, 0]
                weights[rows] = radii[dets]
                predictions[rows] = diag_parities[dets]
                emit(rows, dets, BOUNDARY)
                continue
            if self._has_unsafe:
                if w == 2:
                    unsafe = structure.unsafe[active[:, 0], active[:, 1]]
                else:
                    unsafe = structure.unsafe[
                        active[:, :, None], active[:, None, :]
                    ].any(axis=(1, 2))
                if unsafe.any():
                    route_unsafe(rows[unsafe], active[unsafe])
                    rows, active = rows[~unsafe], active[~unsafe]
                    if rows.size == 0:
                        continue
            if w == 2:
                a, b = active[:, 0], active[:, 1]
                # A separable pair is two singletons: both to the boundary.
                sep = structure.separable[a, b]
                stats.clusters += rows.size + int(sep.sum())
                weights[rows] = np.where(sep, radii[a] + radii[b], table_weights[a, b])
                predictions[rows] = np.where(
                    sep, diag_parities[a] ^ diag_parities[b], table_parities[a, b]
                )
                emit(rows, a, np.where(sep, BOUNDARY, b))
                emit(rows[sep], b[sep], BOUNDARY)
                continue
            gathered_close = structure.close[active[:, :, None], active[:, None, :]]
            if w > _MAX_LABEL_WEIGHT:
                labels = np.stack([_labels_local(close) for close in gathered_close])
            else:
                labels = _component_labels(gathered_close)
            # Segment stream: labels *are* smallest-member positions, so a
            # stable sort on (row, label) keeps positions -- hence detector
            # indices -- ascending within each component.
            keys = (np.arange(rows.size)[:, None] * w + labels).ravel()
            order = np.argsort(keys, kind="stable")
            srt_keys = keys[order]
            srt_dets = active.ravel()[order]
            starts = np.flatnonzero(np.r_[True, srt_keys[1:] != srt_keys[:-1]])
            sizes = np.diff(np.append(starts, srt_keys.size))
            segment_rows = rows[srt_keys[starts] // w]
            stats.clusters += starts.size
            sw = np.zeros(starts.size, dtype=np.float64)
            sp = np.zeros(starts.size, dtype=bool)
            ones = sizes == 1
            d1 = srt_dets[starts[ones]]
            sw[ones] = radii[d1]
            sp[ones] = diag_parities[d1]
            emit(segment_rows[ones], d1, BOUNDARY)
            twos = sizes == 2
            a2 = srt_dets[starts[twos]]
            b2 = srt_dets[starts[twos] + 1]
            sw[twos] = table_weights[a2, b2]
            sp[twos] = table_parities[a2, b2]
            emit(segment_rows[twos], a2, b2)
            for size in np.unique(sizes[sizes > 2]).tolist():
                ids = np.flatnonzero(sizes == size)
                members = srt_dets[starts[ids][:, None] + np.arange(size)]
                big.setdefault(size, []).append(
                    (ids + num_segments, segment_rows[ids], members)
                )
            seg_rows.append(segment_rows)
            seg_weights.append(sw)
            seg_preds.append(sp)
            num_segments += starts.size
        if routed:
            solved = DecodeBatch.from_solutions([solution for _, solution in routed])
            rows = np.array([i for i, _ in routed], dtype=np.intp)
            weights[rows] = solved.weights
            predictions[rows] = solved.predictions
            emit(np.repeat(rows, np.diff(solved.offsets)), solved.first, solved.second)
        if num_segments:
            sw = np.concatenate(seg_weights)
            sp = np.concatenate(seg_preds)
            segment_rows = np.concatenate(seg_rows)
            for ids, rows, solved in self._solve_big_segments(big):
                sw[ids] = solved.weights
                sp[ids] = solved.predictions
                emit(np.repeat(rows, np.diff(solved.offsets)), solved.first, solved.second)
            # np.bincount's C kernel is one sequential in-order loop, so each
            # row's segments add left to right from 0.0 exactly as the scalar
            # path's loop does (reduceat's internal pairing would not).
            weights += np.bincount(segment_rows, weights=sw, minlength=num)
            predictions ^= (
                np.bincount(segment_rows, weights=sp, minlength=num).astype(np.intp) & 1
            ).astype(bool)
        rows = np.concatenate(pair_rows) if pair_rows else np.zeros(0, dtype=np.intp)
        first = np.concatenate(pair_first) if pair_first else rows
        second = np.concatenate(pair_second) if pair_second else rows
        # A detector sits in one pair, so firsts are distinct within a row
        # and ordering by (row, first) is each row's sorted() order.
        order = np.lexsort((first, rows))
        offsets = np.zeros(num + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=num), out=offsets[1:])
        return DecodeBatch(
            predictions=predictions,
            weights=weights,
            offsets=offsets,
            first=first[order],
            second=second[order],
            decoded=decoded,
        )

    def refusal(self) -> SparseEngineError:
        """The error :meth:`solve` raises for a row :meth:`solve_batch` refused.

        A batch refuses rows for one reason: a poisoned weight table
        refuses every non-empty row; otherwise the refused rows hold an
        unsafe pair and no graph engine is attached.
        """
        if not self._weights_finite:
            return SparseEngineError(_NON_FINITE_TABLE)
        return SparseEngineError(_UNSAFE_PAIR)

    def _solve_big_segments(
        self, big: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]
    ) -> Iterator[tuple[np.ndarray, np.ndarray, DecodeBatch]]:
        """Solve the >= 3-defect segments of a batch, once per distinct cluster.

        Each size's member matrix is deduplicated and its distinct
        clusters go through one :meth:`_solve_clusters` call.

        Yields:
            ``(segment ids, segment rows, solutions)`` per size, with the
            solutions a :class:`~repro.decoders.base.DecodeBatch` holding
            one row per segment.
        """
        for _, parts in sorted(big.items()):
            ids = np.concatenate([part[0] for part in parts])
            rows = np.concatenate([part[1] for part in parts])
            members = np.concatenate([part[2] for part in parts])
            first, inverse, _ = unique_row_index(members)
            self.stats.cache_misses += len(first)
            self.stats.cache_hits += len(members) - len(first)
            yield ids, rows, self._solve_clusters(members[first])[inverse]

    def _solve_clusters(self, clusters: np.ndarray) -> DecodeBatch:
        """Exact solutions of same-size >= 3-defect clusters, one row each.

        The matching problems are built with one GWT gather; the node
        count picks one kernel for all of them: exhaustive search up to
        :data:`MAX_SEARCH_NODES`, the subset DP up to
        :data:`MAX_DP_NODES`, blossom above.  Predictions XOR the table
        parities of the chosen pairs, and the local -> detector
        translation is vectorized; pairs come out in
        :func:`matching_to_detectors` order.
        """
        from ..decoders.base import DecodeBatch

        batch = MatchingProblem.from_syndrome_batch(self.gwt, clusters)
        num, m = len(clusters), batch.num_nodes
        rows = np.arange(num)[:, None]
        if m <= MAX_SEARCH_NODES:
            pair_tensor, weights, predictions = (
                from_device(r) for r in batched_search(batch.weights, batch.parities)
            )
        else:
            if m <= MAX_DP_NODES:
                self.stats.dp_clusters += num
                pair_tensor, weights = batched_dp(batch.weights)
            else:
                self.stats.blossom_clusters += num
                pair_tensor = np.array(
                    [min_weight_perfect_matching(w) for w in batch.weights],
                    dtype=np.intp,
                ).reshape(num, m // 2, 2)
                weights = batch.weights[
                    rows, pair_tensor[:, :, 0], pair_tensor[:, :, 1]
                ].sum(axis=1)
            predictions = np.bitwise_xor.reduce(
                batch.parities[rows, pair_tensor[:, :, 0], pair_tensor[:, :, 1]],
                axis=1,
            )
        lookup = batch.active
        if batch.has_virtual:
            pad = np.full((num, 1), BOUNDARY, dtype=lookup.dtype)
            lookup = np.concatenate([lookup, pad], axis=1)
        da = lookup[rows, pair_tensor[:, :, 0]]
        db = lookup[rows, pair_tensor[:, :, 1]]
        lo = np.minimum(da, db)
        hi = np.maximum(da, db)
        virtual = lo == BOUNDARY
        first = np.where(virtual, hi, lo)
        second = np.where(virtual, lo, hi)
        # Each detector appears in at most one pair, so sorting on the
        # first element alone reproduces matching_to_detectors' order.
        order = np.argsort(first, axis=1)
        return DecodeBatch(
            predictions=predictions,
            weights=weights,
            offsets=np.arange(num + 1) * first.shape[1],
            first=np.take_along_axis(first, order, axis=1).ravel(),
            second=np.take_along_axis(second, order, axis=1).ravel(),
        )

    def clear_cache(self) -> None:
        """Drop all memoized cluster solutions (stats are kept)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Unsafe-pair routing
    # ------------------------------------------------------------------

    def _route_unsafe(
        self, dets: np.ndarray
    ) -> tuple[list[tuple[int, int]], float, bool]:
        """Route a syndrome containing an unsafe pair.

        Unsafe pairs are quantization artifacts: the table locally
        violates the boundary-folding bound, so no decomposition proof
        applies.  The graph engine re-derives true weights during growth
        and is exact by construction, so the whole syndrome goes there;
        without one the engine refuses and the decoder degrades to its
        dense reference path.
        """
        self.stats.fallback_events["unsafe_pair"] += 1
        if self.graph_engine is not None:
            return self.graph_engine.solve(dets)
        raise SparseEngineError(_UNSAFE_PAIR)

    # ------------------------------------------------------------------
    # Decomposition
    # ------------------------------------------------------------------

    def _solve_decomposed(
        self, dets: np.ndarray, close_sub: np.ndarray
    ) -> tuple[list[tuple[int, int]], float, bool]:
        """Solve an unsafe-free syndrome cluster by cluster.

        Args:
            dets: Sorted active detector indices.
            close_sub: Their ``(w, w)`` close-adjacency submatrix.

        Clusters are visited ordered by smallest detector so that float
        weight accumulation is deterministic for a given syndrome.
        """
        pairs: list[tuple[int, int]] = []
        weight = 0.0
        prediction = False
        clusters = 0
        for members in _components_local(close_sub):
            clusters += 1
            if len(members) == 1:
                solution = self._singleton(int(dets[members[0]]))
            elif len(members) == 2:
                solution = self._close_pair(
                    int(dets[members[0]]), int(dets[members[1]])
                )
            else:
                cluster = dets[members]
                solution = self._memoized(
                    b"C" + cluster.tobytes(), cluster, self._compute_cluster
                )
            pairs.extend(solution.pairs)
            weight += solution.weight
            prediction ^= solution.prediction
        self.stats.clusters += clusters
        return sorted(pairs), weight, prediction

    # ------------------------------------------------------------------
    # Cluster solving
    # ------------------------------------------------------------------

    def _memoized(self, key, dets, compute) -> _ClusterSolution:
        """LRU-cached solve keyed by the cluster's canonical bytes."""
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.stats.cache_misses += 1
        solution = compute(dets)
        if self.cache_size > 0:
            self._cache[key] = solution
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return solution

    def _singleton(self, d: int) -> _ClusterSolution:
        """Closed form: a lone defect matches the boundary."""
        return _ClusterSolution(
            pairs=[(d, BOUNDARY)],
            weight=float(self._radii[d]),
            prediction=bool(self._diag_parities[d]),
        )

    def _close_pair(self, a: int, b: int) -> _ClusterSolution:
        """Closed form: a close pair matches directly (beats the boundary)."""
        return _ClusterSolution(
            pairs=[(a, b)],
            weight=float(self.gwt.weights[a, b]),
            prediction=bool(self.gwt.parities[a, b]),
        )

    def _compute_cluster(self, dets: np.ndarray) -> _ClusterSolution:
        """Exact matching of a >= 3-defect cluster from the table.

        Clusters within the exhaustive-search node limit run the scalar
        search kernel (the fast path, scalar tie-breaking order); larger
        ones take :meth:`_solve_clusters`, the batch path's own solve, so
        per-row and batch decodes agree bit for bit.
        """
        if dets.size + (dets.size % 2) > MAX_SEARCH_NODES:
            solved = self._solve_clusters(dets[None])[0]
            return _ClusterSolution(
                pairs=solved.matching,
                weight=solved.weight,
                prediction=solved.prediction,
            )
        problem = MatchingProblem.from_syndrome(self.gwt, [int(d) for d in dets])
        local_pairs, weight, _ = vectorized_search(problem.weights)
        return _ClusterSolution(
            pairs=matching_to_detectors(
                local_pairs, problem.active, problem.has_virtual
            ),
            weight=float(weight),
            prediction=problem.prediction(local_pairs),
        )


def _component_labels(close: np.ndarray) -> np.ndarray:
    """Component labels of a whole bucket of close-adjacency submatrices.

    Args:
        close: ``(B, w, w)`` bool close-adjacency tensor.

    Returns:
        ``(B, w)`` integer labels; each position's label is the smallest
        position index in its connected component, computed for the whole
        bucket at once via boolean matrix-power transitive closure
        (``log2(w)`` squarings of uint8 matmuls -- no per-row Python).
    """
    B, w = close.shape[0], close.shape[1]
    reach = (close | np.eye(w, dtype=bool)).astype(np.uint8)
    hops = 1
    while hops < w:
        reach = (reach @ reach > 0).astype(np.uint8)
        hops *= 2
    # First nonzero per row = smallest reachable index = component label.
    return np.argmax(reach, axis=2)


def _labels_local(close_sub: np.ndarray) -> np.ndarray:
    """Per-position component labels of one row, as :func:`_component_labels`
    computes them, by graph traversal (for rows too wide for uint8 powers)."""
    labels = np.empty(close_sub.shape[0], dtype=np.intp)
    for members in _components_local(close_sub):
        labels[members] = members[0]
    return labels


def _components_local(close_sub: np.ndarray) -> list[list[int]]:
    """Connected components of a small close-adjacency submatrix.

    Returns components as sorted local-index lists, ordered by smallest
    member, using a single ``nonzero`` over the submatrix (per-node array
    scans dominate the per-syndrome cost otherwise).
    """
    n = close_sub.shape[0]
    src, dst = np.nonzero(close_sub)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for x, y in zip(src.tolist(), dst.tolist()):
        adjacency[x].append(y)
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        members = [start]
        while stack:
            node = stack.pop()
            for nbr in adjacency[node]:
                if not seen[nbr]:
                    seen[nbr] = True
                    members.append(nbr)
                    stack.append(nbr)
        members.sort()
        components.append(members)
    return components
