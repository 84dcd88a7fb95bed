"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ler_d7 --seed 2023 --seconds 45 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the host, the seed and the
counts that must repeat exactly for that seed.  The exit code is non-zero
when any output check failed.
"""

from __future__ import annotations

import sys

from common import emit, host_fingerprint, import_repro, parse_args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    trace = bool(args.trace)
    if args.workload == "stream_d7":
        import stream

        if args.cold_start:
            print(repr(stream.cold_start()))
            return 0
        record, attempted, failed, metrics = stream.run(args.seed, args.seconds, trace)
    else:
        import ler

        distance = int(args.workload.removeprefix("ler_d"))
        record, attempted, failed, metrics = ler.run(distance, args.seed, args.seconds, trace)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=host_fingerprint(),
        fail_frac=failed / attempted,
    )
    emit(record, attempted, failed, metrics, trace=trace)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
