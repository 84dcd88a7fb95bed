"""Software MWPM decoder -- the paper's gold-standard baseline.

This decoder plays the role of the BlossomV-based software MWPM the paper
uses as its accuracy baseline (section 3.3) and as the subject of Figure 3
(software decoding latencies).  By default it decodes through the sparse
exact-matching engine (:mod:`repro.matching.sparse`): syndromes decompose
into independent defect clusters, small clusters are solved by closed
forms or the vectorized exhaustive-search kernels, and cluster solutions
are memoized on the per-syndrome path (batches dedup their own clusters
and answer in columns, as a :class:`~repro.decoders.base.DecodeBatch`).
Syndromes the table engine cannot certify (unsafe pairs) and clusters
too large for the search kernels route to the graph-local sparse-blossom
engine (:mod:`repro.matching.sparse_blossom`) when one is attached;
without one the engine refuses the syndrome and the decoder degrades
that syndrome alone to a dense reference solve
(:mod:`repro.matching.blossom`) with a warning, so accuracy is that of
exact MWPM either way.  ``use_sparse=False`` selects
the always-dense reference path.

Three constructions matter:

* *idealized MWPM*: full-precision weights (``GlobalWeightTable`` built
  with ``lsb=None``), the accuracy yardstick of Tables 4/9 and Figures
  12/14; pass ``graph=`` alongside to arm the graph-local escape;
* *quantized MWPM*: the same algorithm reading the 8-bit GWT, useful to
  isolate quantization effects from search effects (no graph engine --
  quantized tables do not agree with graph-local weights);
* *graph-only MWPM* (``gwt=None, graph=...``): every syndrome runs the
  sparse-blossom engine directly on decoding-graph adjacency, never
  materializing the O(N^2) weight table -- the d >= 15 configuration.

Latency is measured wall-clock (``latency_ns``), which the Figure 3 bench
uses to reproduce the observation that software MWPM misses the 1 us
real-time deadline for most non-trivial syndromes.  In
:meth:`MWPMDecoder.decode_batch`, per-bucket shared construction time is
amortized into each row's latency so batched and per-row stats compare.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from ..graphs.weights import GlobalWeightTable
from ..matching.blossom import min_weight_perfect_matching
from ..matching.boundary import MatchingProblem
from ..matching.sparse import SparseEngineError, SparseMatchingEngine, SparseStats
from ..matching.sparse_blossom import SparseBlossomEngine
from .base import (
    DecodeBatch,
    DecodeResult,
    Decoder,
    matching_to_detectors,
    validate_syndrome_batch,
)
from .cascade import EscalationPolicy

__all__ = ["MWPMDecoder"]


class MWPMDecoder(Decoder):
    """Exact minimum-weight perfect-matching decoder.

    Args:
        gwt: Global Weight Table for the target code/noise configuration,
            or None to decode purely on the decoding graph (``graph``
            required; no dense reference path exists then).
        graph: Optional :class:`~repro.graphs.decoding_graph.DecodingGraph`
            arming the graph-local sparse-blossom engine.  With a table it
            takes the table engine's one escape route (syndromes with an
            unsafe pair) -- exact only when ``gwt`` is the graph's
            *ideal* (unquantized) all-pairs table; without a table it is
            the sole engine.
        measure_time: Record wall-clock decode time in ``latency_ns``
            (enabled by default; disable for slightly faster bulk decoding).
        use_sparse: Decode through the sparse cluster-decomposition engine
            (default).  ``False`` forces the dense blossom solve on every
            syndrome -- the reference the sparse engine is validated
            against; requires a weight table.
        sparse_cache_size: LRU capacity of the sparse engines' cluster
            caches (ignored when ``use_sparse`` is False).  The table
            engine's cache serves per-syndrome :meth:`decode` only.
        structure: Pre-built neighbor structure for ``gwt`` (e.g. from the
            pipeline's artifact store), forwarded to the sparse engine so
            construction skips its radius/separability scan.
    """

    name = "MWPM"

    def __init__(
        self,
        gwt: GlobalWeightTable | None = None,
        *,
        graph=None,
        measure_time: bool = True,
        use_sparse: bool = True,
        sparse_cache_size: int = 65536,
        structure=None,
    ):
        if gwt is None and graph is None:
            raise ValueError(
                "MWPMDecoder needs a weight table (gwt), a decoding graph "
                "(graph=...), or both"
            )
        self.gwt = gwt
        self.measure_time = measure_time
        self.use_sparse = use_sparse
        # Sparse-engine anomalies escalate to the dense reference tier
        # through the cascade subsystem's policy; without a table there
        # is no dense tier and the policy tells _recover to re-raise.
        self._escalation = EscalationPolicy(
            self.name,
            tier="sparse",
            next_tier="dense" if gwt is not None else None,
        )
        self._graph_engine = (
            SparseBlossomEngine(graph, cache_size=sparse_cache_size)
            if graph is not None and use_sparse
            else None
        )
        if gwt is not None:
            self.syndrome_length = int(gwt.weights.shape[0])
            self._engine = (
                SparseMatchingEngine(
                    gwt,
                    cache_size=sparse_cache_size,
                    structure=structure,
                    graph_engine=self._graph_engine,
                )
                if use_sparse
                else None
            )
        else:
            if not use_sparse:
                raise ValueError(
                    "use_sparse=False (the dense reference path) requires "
                    "a weight table; a graph-only MWPMDecoder has none"
                )
            self.syndrome_length = int(graph.num_detectors)
            self._engine = self._graph_engine

    @property
    def sparse_stats(self) -> SparseStats | None:
        """Counters of the active sparse engine (None on the dense path).

        In graph-only mode these are the sparse-blossom engine's counters;
        otherwise the table engine's (see :attr:`graph_stats` for the
        attached graph engine's own counters).
        """
        return self._engine.stats if self._engine is not None else None

    @property
    def graph_stats(self) -> SparseStats | None:
        """Counters of the graph-local engine (None when not armed)."""
        return (
            self._graph_engine.stats if self._graph_engine is not None else None
        )

    @property
    def fallback_events(self) -> int:
        """Sparse-engine anomalies recovered by re-decoding densely (or,
        without a dense path, re-raised); the supervised experiment
        layer surfaces this count."""
        return self._escalation.escalations

    def _engine_error(self) -> None:
        """Count an unexpected engine failure in the engine's breakdown."""
        self._engine.stats.fallback_events["engine_error"] += 1

    def decode_active(self, active: list[int]) -> DecodeResult:
        """Decode by solving the exact MWPM of the active syndrome bits.

        Sparse-engine inconsistencies (:class:`SparseEngineError`, any
        unexpected internal failure, or a non-finite matching weight)
        degrade to the dense reference solve with a
        :class:`DecoderFallbackWarning` instead of aborting.  A graph-only
        decoder has no dense path: it records the event and re-raises.
        """
        start = time.perf_counter() if self.measure_time else 0.0
        if self._engine is not None:
            try:
                pairs, weight, prediction = self._engine.solve(active)
            except SparseEngineError as exc:
                # The engine classified this itself (unsafe_pair /
                # unsolvable) before raising.
                result = self._recover(exc, active)
            except Exception as exc:
                self._engine_error()
                result = self._recover(exc, active)
            else:
                if not math.isfinite(weight):
                    self._engine_error()
                    result = self._recover(
                        SparseEngineError(
                            f"non-finite matching weight {weight!r}"
                        ),
                        active,
                    )
                else:
                    result = DecodeResult(
                        prediction=prediction, matching=pairs, weight=weight
                    )
        else:
            result = self._decode_dense(active)
        if self.measure_time:
            result.latency_ns = (time.perf_counter() - start) * 1e9
        return result

    def _recover(self, exc: Exception, active: list[int]) -> DecodeResult:
        """Degrade one failed sparse solve to the dense reference path."""
        if not self._escalation.escalate(type(exc).__name__, str(exc)):
            raise exc
        return self._decode_dense(active)

    def _decode_dense(self, active: list[int]) -> DecodeResult:
        """One dense blossom solve (the reference path)."""
        problem = MatchingProblem.from_syndrome(self.gwt, active)
        if problem.num_nodes == 0:
            pairs: list[tuple[int, int]] = []
        else:
            pairs = min_weight_perfect_matching(problem.weights)
        return DecodeResult(
            prediction=problem.prediction(pairs),
            matching=matching_to_detectors(pairs, problem.active, problem.has_virtual),
            weight=problem.total_weight(pairs),
        )

    def decode_batch(self, syndromes: np.ndarray) -> DecodeBatch:
        """Decode a (shots, detectors) syndrome matrix in bulk.

        On the sparse path the engine solves the whole matrix at once
        (:meth:`SparseMatchingEngine.solve_batch`) and answers in columns.
        Rows it refuses or answers with a non-finite weight are re-decoded
        densely, each escalated and counted exactly as :meth:`decode`
        would.  On the dense path syndromes are bucketed by Hamming weight
        so each bucket's matching problems are constructed with one GWT
        gather (:meth:`MatchingProblem.from_syndrome_batch`) instead of
        one per row.  Either way row ``i`` equals :meth:`decode` of row
        ``i``, counters included, and shared per-batch time is amortized
        into each row's ``latency_ns`` so latency stats stay comparable
        with the per-row path.
        """
        syndromes = validate_syndrome_batch(syndromes, self.syndrome_length)
        if self._engine is not None:
            return self._decode_batch_sparse(syndromes)
        return self._decode_batch_dense(syndromes)

    def _decode_batch_sparse(self, syndromes: np.ndarray) -> DecodeBatch:
        num = syndromes.shape[0]
        start = time.perf_counter() if self.measure_time else 0.0
        try:
            solved = self._engine.solve_batch(syndromes)
        except SparseEngineError as exc:
            return self._recover_batch(exc, syndromes)
        except Exception as exc:
            self._engine_error()
            return self._recover_batch(exc, syndromes)
        if not isinstance(solved, DecodeBatch):
            # The graph-only engine answers with (pairs, weight, prediction).
            solved = DecodeBatch.from_solutions(solved)
        # Bucketed solving shares nearly all of its work across rows, so
        # the honest per-row latency is the amortized batch wall-clock.
        shared_ns = (
            (time.perf_counter() - start) * 1e9 / num
            if self.measure_time and num
            else 0.0
        )
        batch = dataclasses.replace(solved, latency_ns=shared_ns)
        broken = solved.decoded & ~np.isfinite(solved.weights)
        redo = np.flatnonzero(~solved.decoded | broken)
        if redo.size == 0:
            return batch
        for i in redo.tolist():
            if broken[i]:
                self._engine_error()
                exc = SparseEngineError(
                    f"non-finite matching weight {float(solved.weights[i])!r}"
                )
            else:
                exc = self._engine.refusal()
            if not self._escalation.escalate(type(exc).__name__, str(exc)):
                raise exc
        dense = self._decode_batch_dense(syndromes[redo])
        dense = dataclasses.replace(dense, latency_ns=dense.latency_ns + shared_ns)
        rows = np.arange(num)
        rows[redo] = num + np.arange(redo.size)
        return DecodeBatch.concat([batch, dense])[rows]

    def _recover_batch(self, exc: Exception, syndromes: np.ndarray) -> DecodeBatch:
        """Degrade one failed sparse batch to the dense reference path."""
        if not self._escalation.escalate(type(exc).__name__, str(exc)):
            raise exc
        return self._decode_batch_dense(syndromes)

    def _decode_batch_dense(self, syndromes: np.ndarray) -> DecodeBatch:
        results: list[DecodeResult | None] = [None] * syndromes.shape[0]
        hw = syndromes.sum(axis=1)
        for w in np.unique(hw):
            start = time.perf_counter() if self.measure_time else 0.0
            rows = np.nonzero(hw == w)[0]
            active = np.nonzero(syndromes[rows])[1].reshape(len(rows), int(w))
            batch = MatchingProblem.from_syndrome_batch(self.gwt, active)
            shared_ns = (
                (time.perf_counter() - start) * 1e9 / len(rows)
                if self.measure_time
                else 0.0
            )
            for j, i in enumerate(rows):
                start = time.perf_counter() if self.measure_time else 0.0
                problem = batch.problem(j)
                if problem.num_nodes == 0:
                    pairs: list[tuple[int, int]] = []
                else:
                    pairs = min_weight_perfect_matching(problem.weights)
                result = DecodeResult(
                    prediction=problem.prediction(pairs),
                    matching=matching_to_detectors(
                        pairs, problem.active, problem.has_virtual
                    ),
                    weight=problem.total_weight(pairs),
                )
                if self.measure_time:
                    result.latency_ns = (
                        (time.perf_counter() - start) * 1e9 + shared_ns
                    )
                results[i] = result
        return DecodeBatch.from_results(results)
