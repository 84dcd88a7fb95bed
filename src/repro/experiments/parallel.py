"""Multi-process Monte-Carlo memory experiments with an exact syndrome cache.

The paper's artifact distributes its 1B-100B-trial experiments over MPI
ranks ("mpirun -np <X> ./astrea ...", 1024 cores).  This module provides
the single-machine analogue in two phases:

1. **Sampling census** -- shots are partitioned into fixed-size *sampling
   blocks* (seeded ``seed + k`` for block ``k``, independent of how many
   workers run), and worker processes reduce their blocks to a
   :class:`SyndromeCensus`: each unique syndrome with its shot count and
   observable-flip count.  Because the block decomposition depends only on
   ``(shots, seed, block_shots)``, the merged census -- and therefore every
   count in the final result -- is identical for any worker/chunk split.
2. **Deduplicated decode** -- the per-chunk censuses are merged into one
   global census, and each *globally unique* syndrome is decoded exactly
   once via :meth:`~repro.decoders.base.Decoder.decode_batch` (sliced
   across workers when the unique set is large).  A syndrome that recurs
   in many chunks is never decoded twice, and ``unique_syndromes`` is the
   exact deduplicated count rather than a per-chunk sum.

:func:`merge_results` remains available for merging independently produced
:class:`MemoryRunResult` chunks (its ``unique_syndromes`` sum is an upper
bound in that usage, since separate results cannot be deduplicated after
the fact).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..circuits.memory import MemoryExperiment
from ..decoders.base import DecodeBatch, Decoder
from ..pipeline.handle import DecoderHandle
from ..sim.frame_program import compile_frame_program
from ..sim.packing import unique_rows
from ..sim.pauli_frame import PauliFrameSimulator
from .memory import MemoryRunResult, tally_decode_results

__all__ = [
    "run_memory_experiment_parallel",
    "merge_results",
    "merge_censuses",
    "SyndromeCensus",
    "DEFAULT_BLOCK_SHOTS",
]

#: Default shots per sampling block.  The block decomposition (not the
#: worker count) determines which syndromes are sampled, so results are
#: reproducible across any worker/chunk configuration.
DEFAULT_BLOCK_SHOTS = 4096


@dataclass
class SyndromeCensus:
    """Unique syndromes of a sampled batch, with shot and flip counts.

    Attributes:
        syndromes: ``(U, num_detectors)`` bool array of distinct syndromes
            in packed-key lexicographic order (the deterministic order
            :func:`repro.sim.packing.unique_rows` yields), making the
            census canonical for a given sample multiset.
        counts: ``(U,)`` shots that produced each syndrome.
        flips: ``(U,)`` of those shots, how many had their logical
            observable actually flipped.
        dropped: Failed (``None``) parts excluded when this census was
            merged; 0 for a directly sampled census.
    """

    syndromes: np.ndarray
    counts: np.ndarray
    flips: np.ndarray
    dropped: int = 0

    @property
    def shots(self) -> int:
        """Total shots summarised by this census."""
        return int(self.counts.sum())


def _census_from_sample(
    detectors: np.ndarray, observed: np.ndarray
) -> SyndromeCensus:
    """Reduce a sampled (detectors, observable) batch to its census."""
    unique, inverse, counts = unique_rows(detectors)
    flips = np.bincount(
        inverse, weights=observed.astype(np.float64), minlength=len(unique)
    ).astype(np.int64)
    return SyndromeCensus(syndromes=unique, counts=counts, flips=flips)


def merge_censuses(parts: list[SyndromeCensus | None]) -> SyndromeCensus:
    """Merge censuses exactly: re-deduplicate syndromes, sum the counts.

    Failed parts (``None`` entries, e.g. chunks a supervised run had to
    drop) are tolerated: they are excluded from the merge and counted in
    the returned census's ``dropped`` field rather than raising mid-merge.

    Args:
        parts: List of censuses over the same detector layout; ``None``
            entries mark failed parts.

    Returns:
        The deduplicated union census over the surviving parts, with
        ``dropped`` the number of excluded parts (plus any ``dropped``
        already carried by the inputs).

    Raises:
        ValueError: When no valid part remains.
    """
    valid = [p for p in parts if p is not None]
    dropped = len(parts) - len(valid) + sum(p.dropped for p in valid)
    if not valid:
        raise ValueError(
            f"nothing to merge: all {len(parts)} census parts failed"
            if parts
            else "nothing to merge"
        )
    if len(valid) == 1:
        single = valid[0]
        if dropped == single.dropped:
            return single
        return SyndromeCensus(
            syndromes=single.syndromes,
            counts=single.counts,
            flips=single.flips,
            dropped=dropped,
        )
    stacked = np.concatenate([p.syndromes for p in valid], axis=0)
    counts = np.concatenate([p.counts for p in valid])
    flips = np.concatenate([p.flips for p in valid])
    unique, inverse, _ = unique_rows(stacked)
    merged_counts = np.zeros(len(unique), dtype=np.int64)
    merged_flips = np.zeros(len(unique), dtype=np.int64)
    np.add.at(merged_counts, inverse, counts)
    np.add.at(merged_flips, inverse, flips)
    return SyndromeCensus(
        syndromes=unique,
        counts=merged_counts,
        flips=merged_flips,
        dropped=dropped,
    )


def _sample_census_chunk(payload) -> SyndromeCensus:
    """Worker entry point for phase 1 (module-level so it pickles)."""
    experiment, blocks = payload
    # One compile per chunk: every block replays the same circuit, so the
    # simulators share a single frame program instead of re-lowering it.
    program = compile_frame_program(experiment.circuit)
    parts = []
    for block_seed, block_shots in blocks:
        sampler = PauliFrameSimulator(
            experiment.circuit, seed=block_seed, program=program
        )
        sample = sampler.sample(block_shots)
        if sample.observables.size:
            observed = sample.observables[:, 0]
        else:
            observed = np.zeros(block_shots, dtype=bool)
        parts.append(_census_from_sample(sample.detectors, observed))
    return merge_censuses(parts)


def _decode_chunk(payload) -> DecodeBatch:
    """Worker entry point for phase 2 (module-level so it pickles).

    Results travel back as columns (:class:`DecodeBatch`), whichever
    decoder produced them.

    A :class:`~repro.pipeline.handle.DecoderHandle` payload is
    materialised here, in the worker -- warm-starting from the artifact
    store when the handle carries a store root, and memoised so a worker
    decoding many chunks builds its decoder exactly once.
    """
    decoder, syndromes = payload
    if isinstance(decoder, DecoderHandle):
        decoder = decoder.resolve()
    return DecodeBatch.from_results(decoder.decode_batch(syndromes))


def merge_results(parts: list[MemoryRunResult | None]) -> MemoryRunResult:
    """Merge per-chunk results into one aggregate result.

    Counts (errors, declines, timeouts) sum exactly; latencies are
    weighted by each chunk's shot count, and the non-trivial mean by each
    chunk's ``nontrivial_shots``.  ``unique_syndromes`` sums, which is an
    *upper bound* when the chunks may share syndromes -- use
    :func:`run_memory_experiment_parallel` for an exact deduplicated count.

    Failed chunks (``None`` entries) are tolerated: they are excluded from
    every aggregate and counted in the merged result's ``dropped_chunks``
    field rather than raising mid-merge, so a mostly-successful campaign
    still yields its surviving statistics.

    Args:
        parts: List of chunk results for the same decoder; ``None``
            entries mark failed chunks.

    Returns:
        The merged :class:`MemoryRunResult` with ``dropped_chunks`` the
        number of excluded chunks (plus any carried by the inputs).

    Raises:
        ValueError: When no valid chunk remains.
    """
    valid = [p for p in parts if p is not None]
    dropped = len(parts) - len(valid) + sum(p.dropped_chunks for p in valid)
    if not valid:
        raise ValueError(
            f"nothing to merge: all {len(parts)} chunk results failed"
            if parts
            else "nothing to merge"
        )
    total_shots = sum(p.shots for p in valid)
    if total_shots == 0:
        return MemoryRunResult(
            decoder_name=valid[0].decoder_name,
            shots=0,
            errors=0,
            dropped_chunks=dropped,
        )
    total_nontrivial = sum(p.nontrivial_shots for p in valid)
    nontrivial_weighted = sum(
        p.mean_latency_nontrivial_ns * p.nontrivial_shots for p in valid
    )
    return MemoryRunResult(
        decoder_name=valid[0].decoder_name,
        shots=total_shots,
        errors=sum(p.errors for p in valid),
        declined=sum(p.declined for p in valid),
        timed_out=sum(p.timed_out for p in valid),
        mean_latency_ns=sum(p.mean_latency_ns * p.shots for p in valid)
        / total_shots,
        max_latency_ns=max(p.max_latency_ns for p in valid),
        mean_latency_nontrivial_ns=(
            nontrivial_weighted / total_nontrivial if total_nontrivial else 0.0
        ),
        nontrivial_shots=total_nontrivial,
        unique_syndromes=sum(p.unique_syndromes for p in valid),
        dropped_chunks=dropped,
    )


def _partition(items: int, groups: int) -> list[tuple[int, int]]:
    """Split ``items`` into up to ``groups`` contiguous (start, stop) slices."""
    groups = max(1, min(groups, items))
    base = items // groups
    remainder = items % groups
    slices = []
    start = 0
    for k in range(groups):
        size = base + (1 if k < remainder else 0)
        slices.append((start, start + size))
        start += size
    return slices


def run_memory_experiment_parallel(
    experiment: MemoryExperiment,
    decoder: Decoder | DecoderHandle,
    shots: int,
    *,
    seed: int = 0,
    workers: int = 2,
    chunks_per_worker: int = 1,
    block_shots: int = DEFAULT_BLOCK_SHOTS,
) -> MemoryRunResult:
    """Run a memory experiment across worker processes.

    Shots are sampled in blocks of ``block_shots`` (block ``k`` seeded
    ``seed + k``) and reduced to per-chunk syndrome censuses; the merged
    census is then decoded once per globally unique syndrome.  Every count
    in the result therefore depends only on ``(shots, seed, block_shots)``
    and the decoder -- not on ``workers`` or ``chunks_per_worker``, which
    merely distribute the sampling and decoding work.

    Args:
        experiment: The memory-experiment bundle (pickled to workers).
        decoder: The decoder under test (pickled to workers), or a
            :class:`~repro.pipeline.handle.DecoderHandle` recipe: workers
            then build the decoder themselves, warm-starting from the
            handle's artifact store, and each payload ships a few hundred
            bytes instead of the full weight tables.  Results are
            bit-identical either way.
        shots: Total Monte-Carlo trials across all blocks.
        seed: Base seed; sampling block ``k`` runs with ``seed + k``.
        workers: Worker processes.
        chunks_per_worker: Chunks per worker (more chunks smooth load).
        block_shots: Shots per sampling block (fixes the sample multiset
            independently of the worker/chunk split).

    Returns:
        The merged :class:`MemoryRunResult` over exactly ``shots`` trials,
        with ``unique_syndromes`` the exact deduplicated count.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if block_shots < 1:
        raise ValueError("block_shots must be >= 1")
    if shots == 0:
        return MemoryRunResult(decoder_name=decoder.name, shots=0, errors=0)
    blocks = []
    remaining = shots
    k = 0
    while remaining > 0:
        size = min(block_shots, remaining)
        blocks.append((seed + k, size))
        remaining -= size
        k += 1
    num_chunks = max(1, workers * chunks_per_worker)
    sample_payloads = [
        (experiment, blocks[start:stop])
        for start, stop in _partition(len(blocks), num_chunks)
        if stop > start
    ]
    if workers == 1 or len(sample_payloads) == 1:
        censuses = [_sample_census_chunk(p) for p in sample_payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            censuses = list(pool.map(_sample_census_chunk, sample_payloads))
    census = merge_censuses(censuses)

    unique = census.syndromes
    decode_payloads = [
        (decoder, unique[start:stop])
        for start, stop in _partition(len(unique), num_chunks)
        if stop > start
    ]
    if workers == 1 or len(decode_payloads) == 1:
        decoded = [_decode_chunk(p) for p in decode_payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            decoded = list(pool.map(_decode_chunk, decode_payloads))
    results = DecodeBatch.concat(decoded)

    tally = tally_decode_results(unique, census.counts, census.flips, results)
    return MemoryRunResult(
        decoder_name=decoder.name,
        shots=shots,
        errors=tally.errors,
        declined=tally.declined,
        timed_out=tally.timed_out,
        mean_latency_ns=tally.latency_sum / shots,
        max_latency_ns=tally.latency_max,
        mean_latency_nontrivial_ns=(
            tally.nontrivial_latency_sum / tally.nontrivial_shots
            if tally.nontrivial_shots
            else 0.0
        ),
        nontrivial_shots=tally.nontrivial_shots,
        unique_syndromes=len(unique),
    )
