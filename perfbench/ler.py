"""LER campaign workloads: ``ler_d7`` and ``ler_d11``.

A campaign is one memory experiment at uniform p=1e-3 decoded by a fresh
default ``mwpm`` through the single-process census path
(``run_memory_experiment_parallel(..., workers=1)``): sample, dedup into a
census, decode each unique row once, tally.  A run repeats campaigns on
consecutive sampling blocks until its time is up and reports the median
campaign rate, so a stall on the shared host costs one campaign, not the
run.  Counts are taken from campaign 0, whose inputs depend on the seed
alone, so they repeat exactly for a seed.

A campaign has no per-shot latency of its own, so ``max_rounds_per_s``
and ``episode_p50_ms`` are derived from the same campaign timings as
``shots_per_s`` (see README.md); they are not separate measurements.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    P,
    GcClock,
    Tracer,
    median,
    peak_rss_mb,
    per_layer_defaults,
    pipeline_metrics,
    trace_pipeline,
)

#: Shots per campaign: 64 sampling blocks at d=7 (about 2 s), one at d=11
#: (about 4 s), so a run holds several campaigns at either distance.
CAMPAIGN_SHOTS = {7: 64 * 4096, 11: 4096}
BLOCK_SHOTS = 4096
#: Cold builds per run; set-up time is their median.
SETUP_BUILDS = {7: 9, 11: 4}
#: Decoded rows checked against the dense reference per run.
CHECK_ROWS = {7: 200, 11: 30}
#: Sampling blocks reserved per seed, so runs with nearby seeds share no
#: inputs.
SEED_STRIDE = 1 << 20


def _cold_build(distance: int):
    """Build the stack and a default ``mwpm`` from an empty stage cache."""
    from repro import DecodingSetup, PipelineConfig
    from repro.decoders import registry

    start = time.perf_counter()
    setup = DecodingSetup.from_config(PipelineConfig(distance, P), cache=False)
    registry.make_decoder("mwpm", setup)
    return time.perf_counter() - start, setup


def _campaign(setup, seed: int):
    from repro import make_decoder, run_memory_experiment_parallel

    decoder = make_decoder("mwpm", setup)
    shots = CAMPAIGN_SHOTS[setup.distance]
    start = time.perf_counter()
    result = run_memory_experiment_parallel(
        setup.experiment, decoder, shots, seed=seed, workers=1, block_shots=BLOCK_SHOTS
    )
    elapsed = time.perf_counter() - start
    failed = (
        result.declined
        + result.timed_out
        + (shots - result.shots)
        + result.dropped_chunks
    )
    return elapsed, failed, result, decoder


def _check_rows(setup, decoder, seed: int, base_seed: int) -> tuple[int, int]:
    """Check a seeded sample of rows that campaign 0 decoded.

    Block 0 of campaign 0 is sampled again (same seed, so the same rows)
    and decoded again by campaign 0's decoder, whose memo returns what the
    campaign computed.  Each checked row must be a valid matching under
    the ideal table and match the dense reference's weight (tie-aware:
    equal-weight matchings may predict differently).
    """
    from repro import MWPMDecoder, PauliFrameSimulator, verify_decode_result

    gwt = setup.ideal_gwt
    rows = PauliFrameSimulator(setup.experiment.circuit, seed=base_seed).sample(
        min(BLOCK_SHOTS, CAMPAIGN_SHOTS[setup.distance])
    ).detectors
    rows = np.unique(rows[rows.any(axis=1)], axis=0)
    count = min(CHECK_ROWS[setup.distance], len(rows))
    rows = rows[np.sort(np.random.default_rng(seed).choice(len(rows), count, replace=False))]
    dense = MWPMDecoder(gwt, use_sparse=False, measure_time=False)
    failed = 0
    for row, result in zip(rows, decoder.decode_batch(rows)):
        active = [int(i) for i in np.nonzero(row)[0]]
        reference = dense.decode(row).weight
        valid = verify_decode_result(result, active, gwt=gwt).valid
        failed += not (valid and abs(result.weight - reference) <= 1e-6 * max(1.0, abs(reference)))
    return count, failed


def _trace_campaign(tracer: Tracer) -> None:
    import repro.experiments.parallel as parallel
    from repro import MWPMDecoder, PauliFrameSimulator

    tracer.patch(PauliFrameSimulator, "sample", "sim")
    tracer.patch(parallel, "unique_rows", "census")
    tracer.patch(parallel, "merge_censuses", "census")
    tracer.patch(MWPMDecoder, "decode_batch", "decoders")
    tracer.patch(parallel, "tally_decode_results", "experiments.tally")


def _counts(result, decoder) -> dict:
    table, graph = decoder.sparse_stats, decoder.graph_stats
    return {
        "shots": result.shots,
        "logical_errors": result.errors,
        "unique_rows": result.unique_syndromes,
        "table_clusters": table.clusters,
        "table_cache_hits": table.cache_hits,
        "table_cache_lookups": table.cache_hits + table.cache_misses,
        "graph_clusters": graph.clusters,
        "graph_blossom_clusters": graph.blossom_clusters,
        "graph_nodes_settled": graph.nodes_settled,
        "fallbacks": table.total_fallbacks + graph.total_fallbacks,
    }


def run(distance: int, seed: int, seconds: float, trace: bool):
    """One ler run; returns (record, attempted, failed, metrics)."""
    tracer = Tracer() if trace else None
    base_seed = seed * SEED_STRIDE
    shots = CAMPAIGN_SHOTS[distance]
    blocks = -(-shots // BLOCK_SHOTS)

    setup_times, builds = [], []

    def cold_build():
        if tracer is not None:
            trace_pipeline(tracer)
        elapsed, built = _cold_build(distance)
        setup_times.append(elapsed)
        if tracer is not None:
            tracer.restore()
            builds.append(tracer.take_self_times())
        return built

    # The host's speed wanders over seconds, so the cold builds are spread
    # over the run instead of bunched at one end.  Campaigns fill
    # ``seconds``; builds and checks come on top.
    setup = cold_build()
    spent = 0.0
    attempted = failed = 0
    rates, layer_runs, overheads = [], [], []
    first = None
    k = 0
    with GcClock() as gc_clock:
        while k == 0 or spent < seconds:
            mark = time.perf_counter()
            # Traced runs decode each campaign twice, traced and untraced
            # in alternating order, so the tracing overhead is paired.
            walls = {}
            for traced in (False,) if tracer is None else ((False, True), (True, False))[k % 2]:
                if traced:
                    _trace_campaign(tracer)
                elapsed, bad, result, decoder = _campaign(setup, base_seed + k * blocks)
                if traced:
                    tracer.restore()
                    layer_runs.append((elapsed, tracer.take_self_times()))
                walls[traced] = elapsed
                attempted += shots
                failed += bad
                rates.append(shots / elapsed)
                if first is None:
                    first = (result, decoder)
            if tracer is not None:
                overheads.append(walls[True] / walls[False] - 1.0)
            spent += time.perf_counter() - mark
            k += 1
            if len(setup_times) < SETUP_BUILDS[distance] * min(1.0, spent / seconds):
                cold_build()
        while len(setup_times) < SETUP_BUILDS[distance]:
            cold_build()

    # The engines' stats are running totals, so campaign 0's counts are
    # read before the check decodes more rows through its decoder.
    counts = _counts(*first)
    checked, check_failed = _check_rows(setup, first[1], seed, base_seed)
    attempted += checked
    failed += check_failed
    record = {"campaigns": len(rates), "checked_rows": checked, "counts": counts}

    if tracer is None:
        shots_per_s = median(rates)
        return record, attempted, failed, {
            "setup_s": median(setup_times),
            "shots_per_s": shots_per_s,
            "max_rounds_per_s": shots_per_s * (setup.experiment.rounds + 1),
            # Campaign wall time per shot: a campaign's episode is a shot.
            "episode_p50_ms": 1e3 / shots_per_s,
            "peak_rss_mb": peak_rss_mb(),
        }

    def layer(name: str) -> float:
        return median(times.get(name, 0.0) for _, times in layer_runs)

    decode_s = layer("decoders")
    metrics = per_layer_defaults()
    metrics.update(pipeline_metrics(builds))
    metrics.update(
        {
            "sim.sample_s": layer("sim"),
            "sim.shots": shots,
            "census.dedup_s": layer("census"),
            "census.unique_frac": counts["unique_rows"] / shots,
            "decoders.decode_s": decode_s,
            "decoders.rows": counts["unique_rows"],
            "decoders.rows_per_s": counts["unique_rows"] / decode_s,
            "matching.table.clusters": counts["table_clusters"],
            "matching.table.cache_hit_frac": counts["table_cache_hits"]
            / max(1, counts["table_cache_lookups"]),
            "matching.graph.clusters": counts["graph_clusters"],
            "matching.graph.blossom_clusters": counts["graph_blossom_clusters"],
            "matching.graph.nodes_settled": counts["graph_nodes_settled"],
            "matching.fallbacks": counts["fallbacks"],
            "experiments.tally_s": layer("experiments.tally"),
            "experiments.other_s": median(
                wall - sum(times.values()) for wall, times in layer_runs
            ),
            "runtime.gc_pause_s": gc_clock.seconds,
            "trace.overhead_frac": median(overheads),
        }
    )
    return record, attempted, failed, metrics
