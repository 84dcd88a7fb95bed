"""Run every workload several times and report how steady each metric is.

    python3 perfbench/steady.py --runs 10 --seed 1

Each run is a fresh process of ``run.py``; the workloads are interleaved
(run i of every workload before run i+1 of any), run i uses seed
``--seed + i``.  After the untraced runs come one run per workload on the
held-out seed and two traced runs per workload on ``--seed``, whose
determinism records must agree exactly.

For every metric the table gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and their distance as
a share of the median.  An end-to-end metric is flagged when the medians
of the first and second half of its runs differ by more than its bound.
With ``--runs 1`` this is the one command that runs every workload once
and prints every metric with its unit.  ``--workloads`` defaults to every
workload ``run.py`` knows, ``ler_d11`` included, which ``BENCHMARK.json``
does not gate.

Exit status: 1 when any run failed an output check, crashed or broke
determinism; 2 when a metric was flagged; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import WORKLOADS, spec

HERE = Path(__file__).resolve().parent
#: Seed no tuning run used; checked once per workload.
HELD_OUT_SEED = 7919
#: Traced runs per workload on ``--seed``; their counts must agree.
TRACED_RUNS = 2
RUN_TIMEOUT = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One fresh-process run; returns (record, result).  A crash or a
    timeout is reported as a failed result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT)
        lines = done.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    except (subprocess.TimeoutExpired, IndexError, KeyError, json.JSONDecodeError) as exc:
        print(f"  {workload} seed={seed} trace={trace}: no result ({exc!r})", file=sys.stderr)
        record, result = {}, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    else:
        if done.returncode != 0:
            print(f"  {workload} seed={seed} trace={trace}: exit {done.returncode}", file=sys.stderr)
    record["wall_s"] = time.perf_counter() - start
    return record, result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of ``values``."""
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else 0.0


def table(rows: list[tuple]) -> None:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    raw: dict = {w: {"untraced": [], "held_out": [], "traced": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            raw[w]["untraced"].append(run_once(w, args.seed + i, args.seconds, 0))
    for w in workloads:
        raw[w]["held_out"].append(run_once(w, HELD_OUT_SEED, args.seconds, 0))
        for _ in range(TRACED_RUNS):
            raw[w]["traced"].append(run_once(w, args.seed, args.seconds, 1))

    failures = flags = 0
    for w in workloads:
        print(f"\n== {w}")
        every = [r for kind in raw[w].values() for r in kind]
        attempted = sum(result["attempted"] for _, result in every)
        failed = sum(result["failed"] for _, result in every)
        failures += failed + sum(not result["correct"] for _, result in every)
        walls = [record["wall_s"] for record, _ in every]
        print(f"runs {len(every)}  attempted {attempted}  failed {failed}  "
              f"fail_frac {failed / max(1, attempted):.3g}  "
              f"run wall s: median {statistics.median(walls):.1f} max {max(walls):.1f}")
        counts = [record.get("counts") for record, _ in raw[w]["traced"]]
        same = all(c == counts[0] for c in counts)
        failures += not same
        print(f"traced counts repeat exactly for seed {args.seed}: {same}  {counts[0]}")
        rows = [("metric", "unit", "median", "q1", "q3", "iqr/median", "bound", "halves", "")]
        for kind, listed in (("untraced", spec()["end_to_end"]), ("traced", spec()["per_layer"])):
            for metric in listed:
                values = [
                    result["metrics"][metric["name"]]["value"]
                    for _, result in raw[w][kind]
                    if metric["name"] in result["metrics"]
                ]
                if not any(values):
                    continue  # a layer this workload does not exercise
                mid, q1, q3, iqr = spread(values)
                bound = metric.get("bound")
                half = len(values) // 2
                shift, flag = "", ""
                if bound is not None and half:
                    first = statistics.median(values[:half])
                    second = statistics.median(values[half:])
                    change = (second - first) / abs(first) if first else 0.0
                    shift = f"{change:+.3f}"
                    if abs(change) > bound:
                        flag, flags = "FLAG", flags + 1
                rows.append((
                    metric["name"], metric["unit"], f"{mid:.6g}", f"{q1:.6g}", f"{q3:.6g}",
                    f"{iqr:.3f}", "-" if bound is None else bound, shift, flag,
                ))
        table(rows)
    return 1 if failures else 2 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
