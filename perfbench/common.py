"""Shared pieces of the benchmark: CLI, tracing spans, host record, output.

Every workload runs in its own process started by ``run.py``.  The
benchmark imports ``repro`` from the checkout's ``src`` directory and calls
only its public functions; nothing here changes the program.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Uniform circuit-level error rate of every workload.
P = 1e-3
#: Every workload ``run.py`` knows.  ``BENCHMARK.json`` gates all but
#: ``ler_d11``, whose throughput swings with the host's speed more than the
#: largest allowed bound (see README.md).
WORKLOADS = ("ler_d7", "ler_d11", "stream_d7")


@functools.cache
def spec() -> dict:
    """The benchmark definition, ``BENCHMARK.json`` at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_repro() -> None:
    """Put the checkout's ``src`` on ``sys.path``; fail fast without it.

    The benchmark must refuse to report anything in a directory that holds
    only the benchmark files, so a missing package is an error, not a skip.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    # A configured artifact store would turn cold builds into loads.
    os.environ.pop("REPRO_ARTIFACT_DIR", None)
    sys.path.insert(0, str(src))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cold-start",
        action="store_true",
        help="stream_d7 only: time one cold service start and print it "
        "(the workload's set-up samples taken in fresh processes)",
    )
    return parser.parse_args(argv)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return float(ordered[rank])


def cpu_seconds(who=resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(with_children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def host_fingerprint() -> dict:
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class GcClock:
    """Total time spent in garbage collection while installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class Tracer:
    """In-memory spans around calls into the program's layers.

    Synchronous spans nest on a stack, so each span knows its parent and
    a layer's self time is its duration minus that of its children.
    Wrappers are installed by :meth:`patch` and removed by
    :meth:`restore`; an untraced run never installs any.
    """

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name, fn):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's
        arguments (``DecodingPipeline.get`` is named by its stage)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((label, time.perf_counter(), 0.0, parent))
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                start = self.spans[index][1]
                self.spans[index] = (label, start, time.perf_counter(), parent)

        return wrapper

    def async_span(self, name: str, fn):
        """Span around an awaited call.  Concurrent calls overlap, so these
        spans take no part in nesting: their durations are latencies."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.spans.append((name, start, time.perf_counter(), -1))

        return wrapper

    def patch(self, owner, attr: str, name, *, awaited: bool = False) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a span."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        wrap = self.async_span if awaited else self.span
        setattr(owner, attr, wrap(name, original))

    def durations(self, name: str) -> list[float]:
        return [end - start for label, start, end, _ in self.spans if label == name]

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take_self_times(self) -> dict[str, float]:
        """Self time per span name over the recorded spans, then forget them."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (label, start, end, _), inner in zip(self.spans, child):
            totals[label] = totals.get(label, 0.0) + (end - start) - inner
        self.spans = []
        return totals


#: Pipeline stage spans folded into the ``pipeline.*`` per-layer metrics.
PIPELINE_METRICS = {
    "pipeline.circuit": "pipeline.dem_s",
    "pipeline.frame_program": "pipeline.dem_s",
    "pipeline.dem": "pipeline.dem_s",
    "pipeline.sparse_graph": "pipeline.graph_s",
    "pipeline.graph": "pipeline.graph_s",
    "pipeline.gwt": "pipeline.gwt_s",
    "pipeline.ideal_gwt": "pipeline.gwt_s",
    "pipeline.neighbor_structure": "pipeline.neighbor_structure_s",
    "pipeline.quantized_neighbor_structure": "pipeline.neighbor_structure_s",
    "pipeline.decoder": "pipeline.decoder_s",
}


def trace_pipeline(tracer: Tracer) -> None:
    """Span every stage resolution and every registry decoder build."""
    import repro.decoders.registry as registry
    from repro import DecodingPipeline

    tracer.patch(DecodingPipeline, "get", lambda _self, stage: f"pipeline.{stage}")
    tracer.patch(registry, "make_decoder", "pipeline.decoder")


def pipeline_metrics(builds: list[dict[str, float]]) -> dict[str, float]:
    """Median over builds of each ``pipeline.*`` metric's self time."""
    out = {}
    for metric in set(PIPELINE_METRICS.values()):
        out[metric] = median(
            sum(t for label, t in build.items() if PIPELINE_METRICS.get(label) == metric)
            for build in builds
        )
    return out


def emit(record: dict, attempted: int, failed: int, metrics: dict, trace: bool) -> None:
    """Print the determinism record, then the result as the last line.

    ``metrics`` maps metric names to values; units come from
    ``BENCHMARK.json`` and every metric it lists for the run kind must be
    present, so the output and the definition cannot drift apart.
    """
    listed = spec()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    extra = set(metrics) - {m["name"] for m in listed}
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {sorted(extra)}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in listed
                },
            }
        ),
        flush=True,
    )


def per_layer_defaults() -> dict[str, float]:
    """Every per-layer metric at 0: layers a workload does not exercise."""
    return {m["name"]: 0.0 for m in spec()["per_layer"]}
