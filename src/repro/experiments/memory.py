"""Monte-Carlo memory experiments: the paper's evaluation workhorse.

Each trial of a memory experiment (paper section 3.4) prepares a logical
state, runs ``d`` noisy syndrome-extraction rounds, decodes the resulting
syndrome vector and compares the decoder's predicted logical flip with the
actual one; a mismatch is a logical error.  This module batches that
pipeline: syndromes are sampled in bulk with the Pauli-frame simulator and
decoded once per *unique* syndrome (decoders are deterministic), which
matters at low physical error rates where the same few low-weight
syndromes recur constantly.  The unique syndromes go through
:meth:`~repro.decoders.base.Decoder.decode_batch`, so decoders with a
vectorized batch path (Astrea, Astrea-G, MWPM) decode whole
Hamming-weight buckets per NumPy kernel call.

Deduplication sorts *packed syndrome keys* (``uint64`` words via
:func:`repro.sim.packing.unique_rows`) rather than wide boolean rows, and
both the cached and uncached paths share one vectorised tally
(:func:`tally_decode_results`) -- also used by the parallel runner.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..circuits.memory import MemoryExperiment
from ..decoders.base import DecodeBatch, DecodeResult, Decoder
from ..sim.packing import unique_rows
from ..sim.pauli_frame import PauliFrameSimulator
from .stats import wilson_interval

__all__ = [
    "MemoryRunResult",
    "DecodeTally",
    "run_memory_experiment",
    "tally_decode_results",
]


@dataclass
class MemoryRunResult:
    """Aggregate outcome of a Monte-Carlo memory experiment.

    Attributes:
        decoder_name: Name of the decoder under test.
        shots: Number of Monte-Carlo trials.
        errors: Logical errors observed.
        declined: Shots the decoder refused to decode (counted with a
            "no flip" prediction, like Astrea beyond Hamming weight 10).
        timed_out: Shots on which a real-time decoder hit its deadline.
        mean_latency_ns: Shot-weighted mean decode latency.
        max_latency_ns: Worst-case decode latency observed.
        mean_latency_nontrivial_ns: Mean latency over shots with Hamming
            weight > 2 (the "Mean (HW > 2 Only)" series of Figure 9).
        nontrivial_shots: Shots with Hamming weight > 2 (the weight of
            ``mean_latency_nontrivial_ns``, needed to merge chunked runs
            exactly).
        unique_syndromes: Distinct syndromes decoded (cache effectiveness).
        dropped_chunks: Failed chunks excluded from a merged result (0 for
            a single uninterrupted run); a non-zero value means ``shots``
            covers less of the campaign than was requested and the caller
            should surface the degradation.
    """

    decoder_name: str
    shots: int
    errors: int
    declined: int = 0
    timed_out: int = 0
    mean_latency_ns: float = 0.0
    max_latency_ns: float = 0.0
    mean_latency_nontrivial_ns: float = 0.0
    nontrivial_shots: int = 0
    unique_syndromes: int = 0
    dropped_chunks: int = 0

    @property
    def logical_error_rate(self) -> float:
        """Fraction of shots ending in a logical error."""
        return self.errors / self.shots if self.shots else 0.0

    @property
    def confidence_interval(self) -> tuple[float, float]:
        """95% Wilson interval of the logical error rate."""
        return wilson_interval(self.errors, max(self.shots, 1))


@dataclass
class DecodeTally:
    """Vectorised shot-weighted tally of a batch of decode results.

    Produced by :func:`tally_decode_results` from the decode results of
    the distinct syndromes plus each syndrome's shot multiplicity and
    observed-flip count; consumed by both the serial and the parallel
    memory-experiment runners.
    """

    errors: int
    declined: int
    timed_out: int
    latency_sum: float
    latency_max: float
    nontrivial_latency_sum: float
    nontrivial_shots: int


def tally_decode_results(
    syndromes: np.ndarray,
    counts: np.ndarray,
    flips: np.ndarray,
    results: Sequence[DecodeResult],
) -> DecodeTally:
    """Aggregate per-syndrome decode results into shot-weighted totals.

    Args:
        syndromes: ``(U, num_detectors)`` distinct (or per-shot) syndromes.
        counts: ``(U,)`` shots that produced each syndrome.
        flips: ``(U,)`` of those shots, how many had the logical
            observable actually flipped.
        results: One decode result per syndrome row; read as columns
            (:meth:`DecodeBatch.from_results`), so a decoder's
            :class:`~repro.decoders.base.DecodeBatch` costs no per-row work.

    Returns:
        The :class:`DecodeTally`; ``errors`` counts a "flip" prediction
        against the non-flipped shots and vice versa, exactly as a
        per-shot loop would.
    """
    counts = np.asarray(counts, dtype=np.int64)
    flips = np.asarray(flips, dtype=np.int64)
    batch = DecodeBatch.from_results(results)
    if not len(batch):
        return DecodeTally(0, 0, 0, 0.0, 0.0, 0.0, 0)
    latencies = batch.latency_ns
    hamming = syndromes.sum(axis=1)
    nontrivial_mask = hamming > 2
    weighted = latencies * counts
    nontrivial = int(counts[nontrivial_mask].sum())
    return DecodeTally(
        errors=int(np.where(batch.predictions, counts - flips, flips).sum()),
        declined=int(counts[~batch.decoded].sum()),
        timed_out=int(counts[batch.timed_out].sum()),
        latency_sum=float(weighted.sum()),
        latency_max=float(latencies.max()),
        nontrivial_latency_sum=float(weighted[nontrivial_mask].sum()),
        nontrivial_shots=nontrivial,
    )


def run_memory_experiment(
    experiment: MemoryExperiment,
    decoder: Decoder,
    shots: int,
    *,
    seed: int | None = None,
    cache_decodes: bool = True,
) -> MemoryRunResult:
    """Estimate a decoder's logical error rate by Monte-Carlo sampling.

    Args:
        experiment: The memory-experiment circuit bundle.
        decoder: The decoder under test.
        shots: Number of Monte-Carlo trials.
        seed: Sampler seed for reproducibility.
        cache_decodes: Decode each distinct syndrome once and replay the
            result (exact, since decoders are deterministic functions of
            the syndrome).

    Returns:
        The aggregated :class:`MemoryRunResult`.
    """
    sampler = PauliFrameSimulator(experiment.circuit, seed=seed)
    sample = sampler.sample(shots)
    detectors = sample.detectors
    observed = sample.observables[:, 0] if sample.observables.size else np.zeros(
        shots, dtype=bool
    )
    if cache_decodes:
        # Decode once per distinct syndrome; dedup sorts packed uint64
        # keys, not (shots, num_detectors) boolean rows.
        unique, inverse, counts = unique_rows(detectors)
        flips = np.bincount(
            inverse, weights=observed.astype(np.float64), minlength=len(unique)
        ).astype(np.int64)
        results = decoder.decode_batch(unique)
        tally = tally_decode_results(unique, counts, flips, results)
        unique_count = len(unique)
    else:
        # Uncached reference path: every shot decoded, still through the
        # vectorised decode_batch and the shared tally (counts of one).
        results = decoder.decode_batch(detectors)
        tally = tally_decode_results(
            detectors,
            np.ones(shots, dtype=np.int64),
            observed.astype(np.int64),
            results,
        )
        unique_count = shots
    return MemoryRunResult(
        decoder_name=decoder.name,
        shots=shots,
        errors=tally.errors,
        declined=tally.declined,
        timed_out=tally.timed_out,
        mean_latency_ns=tally.latency_sum / shots if shots else 0.0,
        max_latency_ns=tally.latency_max,
        mean_latency_nontrivial_ns=(
            tally.nontrivial_latency_sum / tally.nontrivial_shots
            if tally.nontrivial_shots
            else 0.0
        ),
        nontrivial_shots=tally.nontrivial_shots,
        unique_syndromes=unique_count,
    )
