"""Streaming workload: ``stream_d7``.

A ``DecodeService`` at d=7, p=1e-3 with ``ServiceConfig`` defaults except
``workers=1`` (the server process plus one worker fill a 2-core host)
serves 32 streams in two kinds of phase, alternated in slices of equal
length:

* open loop: one timer per QEC cycle hands the next round of every stream
  to its feeder at a fixed 8,000 rounds/s in total, as hardware emits
  them, whatever the service does.  An episode's latency runs from the due
  time of its last round until ``finish_episode`` returns;
* saturation: every stream feeds episodes back to back as fast as the
  service commits them (closed loop), which gives the highest sustained
  committed-round rate.

Every episode is then decoded again by the in-process
``SlidingWindowDecoder.decode_batch`` reference and must agree.  Set-up
is a cold start of the service until its worker answers a solve; the run
takes one in this process and ``CHILD_COLD_STARTS`` in fresh child
processes after each slice (the service keeps process-wide caches, so
only a new process starts cold) and reports their median.

Saturation feeds whole episodes, so ``shots_per_s`` is ``max_rounds_per_s``
divided by the rounds per episode: derived, not a separate measurement.
"""

from __future__ import annotations

import asyncio
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    P,
    GcClock,
    Tracer,
    cpu_seconds,
    median,
    peak_rss_mb,
    per_layer_defaults,
    percentile,
    pipeline_metrics,
    trace_pipeline,
)

DISTANCE = 7
STREAMS = 32
#: Open-loop offered load, rounds per second over all streams.
OPEN_LOOP_RATE = 8000.0
#: The run alternates open-loop and saturation slices of equal length, so
#: both phases sample the host's speed across the whole run.
SLICES = 4
#: Distinct sampled episodes per stream for the saturation phase; a
#: stream that outruns them starts over.
SATURATION_EPISODES = 1024
#: Cold starts in fresh child processes after each slice.
CHILD_COLD_STARTS = 2
#: Child cold starts must finish within this many seconds.
COLD_START_TIMEOUT = 60


def _config():
    from repro import PipelineConfig

    return PipelineConfig(DISTANCE, P)


async def _start():
    """Start a service; returns once its worker has answered a solve.

    The warm-up episode carries one defect in its first round, so the
    first window needs a solve on the worker.
    """
    from repro.service import DecodeService, ServiceConfig

    start = time.perf_counter()
    service = DecodeService(_config(), ServiceConfig(workers=1))
    await service.start()
    warm = service.open_stream("warm-up")
    for layer in range(service.decoder.num_layers):
        bits = np.zeros(len(service.decoder.layer_detectors(layer)), dtype=bool)
        bits[0] = layer == 0
        await warm.submit_round(bits)
    await warm.finish_episode()
    return time.perf_counter() - start, service


async def _cold_start_once() -> float:
    elapsed, service = await _start()
    await service.stop()
    return elapsed


def cold_start() -> float:
    return asyncio.run(_cold_start_once())


def _child_cold_start() -> float:
    """One cold start in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", "stream_d7", "--cold-start"],
        capture_output=True,
        text=True,
        timeout=COLD_START_TIMEOUT,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class _Episodes:
    """Sampled episodes of one phase, split into per-round bit vectors."""

    def __init__(self, detectors: np.ndarray, decoder) -> None:
        self.detectors = detectors
        self.per_stream = len(detectors) // STREAMS
        self.rounds = [detectors[:, decoder.layer_detectors(t)] for t in range(decoder.num_layers)]
        #: (shot, prediction, degraded) of every finished episode
        self.outcomes: list[tuple[int, bool, bool]] = []
        self._fed = [0] * STREAMS

    async def feed(self, stream: int, session, due_times=None):
        """Feed the stream's next episode (its own shots, in order, starting
        over when they run out), finish it and record the outcome.

        With ``due_times`` (a queue), each round waits for its due time;
        returns the last round's due time.
        """
        shot = stream * self.per_stream + self._fed[stream] % self.per_stream
        self._fed[stream] += 1
        due = None
        for layer in self.rounds:
            if due_times is not None:
                due = await due_times.get()
            await session.submit_round(layer[shot])
        degraded = session.stats.degraded_solves
        result = await session.finish_episode()
        self.outcomes.append(
            (shot, bool(result.prediction), session.stats.degraded_solves > degraded)
        )
        return due

    def check(self, decoder) -> tuple[int, int]:
        """(episodes differing from ``decode_batch``, degraded episodes)."""
        used = sorted({shot for shot, _, _ in self.outcomes})
        reference = {
            shot: bool(result.prediction)
            for shot, result in zip(used, decoder.decode_batch(self.detectors[used]))
        }
        mismatches = sum(p != reference[shot] for shot, p, _ in self.outcomes)
        return mismatches, sum(d for _, _, d in self.outcomes)


async def _open_loop(sessions, episodes: _Episodes, cycles: int):
    """Lockstep open-loop feed; returns (episode latencies, timer lateness)."""
    loop = asyncio.get_running_loop()
    inboxes = [asyncio.Queue() for _ in sessions]
    latencies, lateness = [], []

    async def ticker() -> None:
        period = STREAMS / OPEN_LOOP_RATE
        t0 = loop.time()
        for cycle in range(cycles):
            due = t0 + cycle * period
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(loop.time() - due)
            for inbox in inboxes:
                inbox.put_nowait(due)

    async def feeder(stream: int) -> None:
        for _ in range(cycles // len(episodes.rounds)):
            due = await episodes.feed(stream, sessions[stream], inboxes[stream])
            latencies.append(loop.time() - due)

    await asyncio.gather(ticker(), *(feeder(s) for s in range(len(sessions))))
    return latencies, lateness


async def _saturate(sessions, episodes: _Episodes, seconds: float) -> float:
    """Closed loop for ``seconds``: each stream feeds its next episode as
    soon as the last one is finished.  Returns the phase's wall time."""
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def feeder(stream: int) -> None:
        while loop.time() - start < seconds:
            await episodes.feed(stream, sessions[stream])

    await asyncio.gather(*(feeder(s) for s in range(len(sessions))))
    return loop.time() - start


async def _serve(seed: int, seconds: float, tracer: Tracer | None, cold_starts: list) -> dict:
    from repro import DecodingSetup, PauliFrameSimulator
    from repro.service import DecodeService

    worker_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        trace_pipeline(tracer)
        tracer.patch(DecodeService, "start", "service.start", awaited=True)
    setup_s, service = await _start()
    cold_starts.append(setup_s)
    out: dict = {}
    if tracer is not None:
        tracer.restore()
        build = tracer.take_self_times()
        out["pipeline"] = pipeline_metrics([build])
        out["start_s"] = build["service.start"] - sum(
            t for label, t in build.items() if label.startswith("pipeline.")
        )
    decoder = service.decoder
    layers = decoder.num_layers
    slice_s = seconds / SLICES
    cycles = int(slice_s * OPEN_LOOP_RATE / STREAMS) // layers * layers
    per_slice = STREAMS * (cycles // layers)
    circuit = DecodingSetup.from_config(_config()).experiment.circuit
    detectors = PauliFrameSimulator(circuit, seed=seed).sample(
        SLICES // 2 * per_slice + STREAMS * SATURATION_EPISODES
    ).detectors
    open_loops = [
        _Episodes(detectors[i * per_slice : (i + 1) * per_slice], decoder)
        for i in range(SLICES // 2)
    ]
    saturation = _Episodes(detectors[SLICES // 2 * per_slice :], decoder)
    sessions = [service.open_stream(f"stream-{s}") for s in range(STREAMS)]

    def trace_solves() -> None:
        if tracer is not None:
            tracer.patch(DecodeService, "solve", "service.solve", awaited=True)

    latencies, lateness, solves = [], [], []
    open_rounds = 0
    main_cpu = 0.0
    batches = batched = 0
    # (wall seconds, rounds committed) of untraced and traced saturation
    sat = {False: [0.0, 0], True: [0.0, 0]}
    with GcClock() as gc_clock:
        for i in range(SLICES):
            if i % 2 == 0:
                trace_solves()
                committed = service.stats.rounds_committed
                lat, late = await _open_loop(sessions, open_loops[i // 2], cycles)
                open_rounds += service.stats.rounds_committed - committed
                latencies += lat
                lateness += late
                if tracer is not None:
                    tracer.restore()
                    solves += tracer.durations("service.solve")
                    tracer.spans = []
            else:
                before = service.report()["service"]
                cpu = cpu_seconds()
                # Traced runs split each saturation slice into an untraced
                # and a traced half, in alternating order; the tracing
                # overhead is the ratio of their committed-round rates.
                halves = (False,) if tracer is None else ((False, True), (True, False))[i // 2 % 2]
                for traced in halves:
                    if traced:
                        trace_solves()
                    committed = service.stats.rounds_committed
                    elapsed = await _saturate(sessions, saturation, slice_s / len(halves))
                    if traced:
                        tracer.restore()
                        tracer.spans = []
                    sat[traced][0] += elapsed
                    sat[traced][1] += service.stats.rounds_committed - committed
                main_cpu += cpu_seconds() - cpu
                after = service.report()["service"]
                batches += after["batches"] - before["batches"]
                batched += after["batched_requests"] - before["batched_requests"]
            if tracer is None:
                # Cold starts spread over the run see the host's speed
                # wander as the measured phases do.
                cold_starts += [_child_cold_start() for _ in range(CHILD_COLD_STARTS)]
        report = service.report()
    await service.stop()
    if tracer is not None:
        out["overhead"] = (sat[False][1] / sat[False][0]) / (sat[True][1] / sat[True][0]) - 1.0
    finished_open = sum(len(e.outcomes) for e in open_loops)
    open_outcomes = [(e, outcome) for e in open_loops for outcome in e.outcomes]
    out.update(
        latencies=latencies,
        lateness=lateness,
        solves=solves,
        gc_s=gc_clock.seconds,
        main_cpu=main_cpu,
        worker_cpu=cpu_seconds(resource.RUSAGE_CHILDREN) - worker_cpu,
        wall=sat[False][0] + sat[True][0],
        sat_rounds=sat[False][1] + sat[True][1],
        sat_episodes=len(saturation.outcomes),
        batches=batches,
        batched=batched,
        report=report,
        # the warm-up episode is fed and committed too
        rounds_fed=layers * (finished_open + len(saturation.outcomes) + 1),
        rounds_committed=report["service"]["rounds_committed"],
        open_episodes=(len(open_loops) * per_slice, finished_open),
        open_rounds=open_rounds,
        # each open-loop shot is fed once, so these depend on the seed alone
        open_flips=sum(prediction for _, (_, prediction, _) in open_outcomes),
        open_nontrivial=sum(
            bool(e.detectors[shot].any()) for e, (shot, _, _) in open_outcomes
        ),
        checks=[e.check(decoder) for e in (*open_loops, saturation)],
    )
    return out


def run(seed: int, seconds: float, trace: bool):
    """One stream_d7 run; returns (record, attempted, failed, metrics)."""
    tracer = Tracer() if trace else None
    setup_times: list[float] = []
    out = asyncio.run(_serve(seed, seconds, tracer, setup_times))

    mismatches = sum(m for m, _ in out["checks"])
    degraded = sum(d for _, d in out["checks"])
    expected_open, finished_open = out["open_episodes"]
    lost = out["rounds_fed"] - out["rounds_committed"]
    episodes = finished_open + out["sat_episodes"]
    failed = abs(lost) + (expected_open - finished_open) + mismatches + degraded
    attempted = out["rounds_fed"] + episodes
    report = out["report"]
    record = {
        # The open-loop phase is fixed by seed and --seconds; how much the
        # saturation phase gets through depends on speed.
        "counts": {
            "open_loop_episodes": finished_open,
            "open_loop_rounds_committed": out["open_rounds"],
            "open_loop_nontrivial_episodes": out["open_nontrivial"],
            "open_loop_predicted_flips": out["open_flips"],
            "reference_mismatches": mismatches,
            "degraded_episodes": degraded,
        },
        "saturation": {
            "episodes": out["sat_episodes"],
            "rounds_fed": out["rounds_fed"],
            "rounds_committed": out["rounds_committed"],
        },
    }
    latencies = out["latencies"]
    if not trace:
        return record, attempted, failed, {
            "setup_s": median(setup_times),
            "shots_per_s": out["sat_episodes"] / out["wall"],
            "max_rounds_per_s": out["sat_rounds"] / out["wall"],
            "episode_p50_ms": median(latencies) * 1e3,
            "peak_rss_mb": peak_rss_mb(with_children=True),
        }

    recovery = report["service"]["recovery"]
    metrics = per_layer_defaults()
    metrics.update(out["pipeline"])
    metrics.update(
        {
            "service.start_s": out["start_s"],
            "service.main_cpu_us_per_round": out["main_cpu"] / out["sat_rounds"] * 1e6,
            "service.batches": out["batches"],
            "service.mean_batch_size": out["batched"] / max(1, out["batches"]),
            "service.worker_cpu_us_per_round": out["worker_cpu"] / out["rounds_committed"] * 1e6,
            "service.solve_p50_ms": percentile(out["solves"], 0.50) * 1e3,
            "service.solve_p99_ms": percentile(out["solves"], 0.99) * 1e3,
            "service.episode_p90_ms": percentile(latencies, 0.90) * 1e3,
            "service.episode_p99_ms": percentile(latencies, 0.99) * 1e3,
            "service.backpressure_events": report["backpressure_events"],
            "service.degraded_solves": sum(
                s["degraded_solves"] for s in report["streams"].values()
            ),
            "service.retries": recovery["retries"],
            "service.respawns": recovery["respawns"],
            "loadgen.late_p50_ms": percentile(out["lateness"], 0.50) * 1e3,
            "loadgen.late_p99_ms": percentile(out["lateness"], 0.99) * 1e3,
            "runtime.gc_pause_s": out["gc_s"],
            "trace.overhead_frac": out["overhead"],
        }
    )
    return record, attempted, failed, metrics
