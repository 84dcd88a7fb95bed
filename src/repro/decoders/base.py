"""Common decoder interface.

Every decoder in this repository -- the software MWPM baseline, Astrea,
Astrea-G and the prior-work comparators -- consumes a syndrome (the
detector bits of one logical cycle) and produces a :class:`DecodeResult`:
a predicted logical-observable flip, the matching it derived, and a latency
estimate (modeled hardware cycles for the hardware designs, measured
wall-clock for software decoders).

A *logical error* occurs when the prediction disagrees with the actual
observable flip sampled alongside the syndrome; the experiment harness in
:mod:`repro.experiments.memory` does that accounting.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from itertools import chain
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from ..backend import from_device

__all__ = [
    "DecodeBatch",
    "DecodeResult",
    "Decoder",
    "DecoderFallbackWarning",
    "BOUNDARY",
    "matching_to_detectors",
    "validate_syndrome",
    "validate_syndrome_batch",
]

from ..graphs.decoding_graph import BOUNDARY
from ..matching.boundary import matching_to_detectors


class DecoderFallbackWarning(UserWarning):
    """A decoder degraded to its reference path instead of aborting.

    Emitted (via :func:`warnings.warn`) when an accelerated decode path
    hits an internal inconsistency -- e.g. a sparse-engine anomaly or a
    non-finite matching weight -- and the decoder recovers by re-decoding
    the syndrome on its dense/reference path.  The warning carries the
    decoder name and a machine-readable reason so supervised experiment
    runs can log and count degradations.

    Attributes:
        decoder: Name of the decoder that degraded.
        reason: Short machine-readable reason code.
        detail: Human-readable description of the anomaly.
    """

    def __init__(self, decoder: str, reason: str, detail: str) -> None:
        self.decoder = decoder
        self.reason = reason
        self.detail = detail
        super().__init__(
            f"{decoder}: {reason}: {detail}; degraded to the reference path"
        )


def _binary_failure(values: np.ndarray) -> str | None:
    """Describe the first non-binary entry of ``values`` (None when clean)."""
    if values.dtype == bool:
        return None
    if values.dtype.kind not in "biuf":
        return f"unsupported syndrome dtype {values.dtype}"
    bad = ~((values == 0) | (values == 1))
    if bad.any():
        index = np.argwhere(bad)[0]
        return (
            f"non-binary value {values[tuple(index)]!r} at index "
            f"{tuple(int(i) for i in index)}"
        )
    return None


def validate_syndrome(
    syndrome: np.ndarray, expected_length: int | None = None
) -> np.ndarray:
    """Validate one syndrome vector and normalise it to ``bool``.

    Args:
        syndrome: 1-D array-like of 0/1 (or boolean) detector bits.
        expected_length: When given, the required number of detector bits.

    Returns:
        The syndrome as a 1-D boolean array.

    Raises:
        ValueError: On a non-1-D input, a length mismatch, a non-numeric
            dtype, or any value other than 0/1 (including NaN).
    """
    # Accept device arrays from the active array backend; decoders are
    # host-side consumers, so the seam crossing happens here, once.
    arr = np.asarray(from_device(syndrome))
    if arr.ndim != 1:
        raise ValueError(
            f"decode expects a 1-D syndrome vector, got shape {arr.shape}"
        )
    if expected_length is not None and arr.shape[0] != expected_length:
        raise ValueError(
            f"syndrome has {arr.shape[0]} detector bits, expected "
            f"{expected_length}"
        )
    failure = _binary_failure(arr)
    if failure is not None:
        raise ValueError(f"invalid syndrome: {failure}")
    return arr.astype(bool, copy=False)


def validate_syndrome_batch(
    syndromes: np.ndarray, expected_length: int | None = None
) -> np.ndarray:
    """Validate a syndrome matrix and normalise it to ``bool``.

    Args:
        syndromes: 2-D array-like, one syndrome per row.
        expected_length: When given, the required number of detector bits.

    Returns:
        The syndromes as a ``(shots, detectors)`` boolean matrix.

    Raises:
        ValueError: On a non-2-D input, a row-length mismatch, a
            non-numeric dtype, or any value other than 0/1 (including NaN).
    """
    arr = np.asarray(from_device(syndromes))
    if arr.ndim != 2:
        raise ValueError(
            "decode_batch expects a (shots, detectors) matrix, got shape "
            f"{arr.shape}"
        )
    if expected_length is not None and arr.shape[1] != expected_length:
        raise ValueError(
            f"syndromes have {arr.shape[1]} detector bits, expected "
            f"{expected_length}"
        )
    failure = _binary_failure(arr)
    if failure is not None:
        raise ValueError(f"invalid syndrome batch: {failure}")
    return arr.astype(bool, copy=False)


@dataclass(slots=True)
class DecodeResult:
    """Outcome of decoding one syndrome.

    Attributes:
        prediction: Predicted logical-observable flip.
        matching: Matched pairs in *detector index* terms; a pair's second
            element is :data:`BOUNDARY` for a boundary match.
        weight: Aggregate weight of the matching.
        cycles: Modeled hardware cycles consumed (0 for software decoders).
        latency_ns: Latency estimate -- modeled from cycles for hardware
            decoders, measured wall-clock for software decoders.
        decoded: False when the decoder declined the syndrome (e.g. Astrea
            beyond Hamming weight 10); the prediction is then "no flip".
        timed_out: True when a real-time decoder hit its deadline before
            exhausting its search (the result is then best-effort).
    """

    prediction: bool
    matching: list[tuple[int, int]] = field(default_factory=list)
    weight: float = 0.0
    cycles: int = 0
    latency_ns: float = 0.0
    decoded: bool = True
    timed_out: bool = False


def _column(values, dtype, num: int, default) -> np.ndarray:
    """One ``(num,)`` column; None or a scalar broadcasts to every row."""
    if values is None:
        values = default
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim == 0:
        return np.full(num, arr, dtype=dtype)
    if arr.shape != (num,):
        raise ValueError(f"column has shape {arr.shape}, expected ({num},)")
    return arr


@dataclass(frozen=True, eq=False)
class DecodeBatch(Sequence[DecodeResult]):
    """Columnar decode results of a syndrome matrix, one row per syndrome.

    A read-only sequence of :class:`DecodeResult`: indexing or iterating
    builds the per-row objects on demand, while bulk consumers (the
    memory-experiment tally, the runners) read the arrays directly.  The
    matchings are stored offset-indexed: row ``i``'s pairs are
    ``zip(first[offsets[i]:offsets[i + 1]], second[...])``, in the order
    :class:`DecodeResult.matching` lists them.  Columns left as None (or
    given as a scalar) fill every row with the :class:`DecodeResult`
    default (or that scalar).  The arrays are frozen in place.

    Attributes:
        predictions: ``(N,)`` bool predicted logical flips.
        weights: ``(N,)`` float64 matching weights.
        offsets: ``(N + 1,)`` row boundaries into ``first``/``second``.
        first: ``(P,)`` first detector of each matched pair.
        second: ``(P,)`` partner of each pair (:data:`BOUNDARY` for a
            boundary match).
        cycles: ``(N,)`` int64 modeled hardware cycles.
        latency_ns: ``(N,)`` float64 latency estimates.
        decoded: ``(N,)`` bool; False where the decoder declined the row.
        timed_out: ``(N,)`` bool; True where a deadline cut the search.
    """

    predictions: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    first: np.ndarray
    second: np.ndarray
    cycles: np.ndarray | None = None
    latency_ns: np.ndarray | None = None
    decoded: np.ndarray | None = None
    timed_out: np.ndarray | None = None

    def __post_init__(self) -> None:
        predictions = np.asarray(self.predictions, dtype=bool)
        if predictions.ndim != 1:
            raise ValueError("predictions must be a 1-D column")
        num = predictions.shape[0]
        offsets = np.asarray(self.offsets, dtype=np.intp)
        if offsets.shape != (num + 1,) or offsets[0] != 0:
            raise ValueError(
                f"offsets must be ({num + 1},) starting at 0, got shape "
                f"{offsets.shape}"
            )
        total = int(offsets[-1])
        columns = {
            "predictions": predictions,
            "weights": _column(self.weights, np.float64, num, 0.0),
            "offsets": offsets,
            "first": _column(self.first, np.intp, total, 0),
            "second": _column(self.second, np.intp, total, 0),
            "cycles": _column(self.cycles, np.int64, num, 0),
            "latency_ns": _column(self.latency_ns, np.float64, num, 0.0),
            "decoded": _column(self.decoded, bool, num, True),
            "timed_out": _column(self.timed_out, bool, num, False),
        }
        for name, arr in columns.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        # Rebuild through __init__ so unpickled columns are frozen too.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def from_solutions(
        cls,
        solutions: Sequence[tuple[Sequence[tuple[int, int]], float, bool]],
        **columns,
    ) -> DecodeBatch:
        """Batch from per-row ``(pairs, weight, prediction)`` solutions, the
        matching engines' answer format, plus any other columns."""
        return cls._from_matchings(
            [pairs for pairs, _, _ in solutions],
            weights=[weight for _, weight, _ in solutions],
            predictions=[prediction for _, _, prediction in solutions],
            **columns,
        )

    @classmethod
    def from_results(cls, results: Sequence[DecodeResult]) -> DecodeBatch:
        """Columnar view of any decoder's results (a batch is returned as is)."""
        if isinstance(results, DecodeBatch):
            return results
        return cls._from_matchings(
            [r.matching for r in results],
            predictions=[r.prediction for r in results],
            weights=[r.weight for r in results],
            cycles=[r.cycles for r in results],
            latency_ns=[r.latency_ns for r in results],
            decoded=[r.decoded for r in results],
            timed_out=[r.timed_out for r in results],
        )

    @classmethod
    def _from_matchings(
        cls, matchings: Sequence[Sequence[tuple[int, int]]], **columns
    ) -> DecodeBatch:
        # Flattened straight into an array: no per-pair objects are built.
        offsets = np.zeros(len(matchings) + 1, dtype=np.intp)
        np.cumsum(list(map(len, matchings)), out=offsets[1:])
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(matchings)),
            dtype=np.intp,
            count=2 * int(offsets[-1]),
        )
        return cls(offsets=offsets, first=flat[0::2], second=flat[1::2], **columns)

    @classmethod
    def concat(cls, parts: Sequence[DecodeBatch]) -> DecodeBatch:
        """Rows of ``parts`` one after another."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.from_solutions([])
        offsets = [np.zeros(1, dtype=np.intp)]
        base = 0
        for part in parts:
            offsets.append(part.offsets[1:] + base)
            base += int(part.offsets[-1])
        return cls(
            offsets=np.concatenate(offsets),
            **{
                f.name: np.concatenate([getattr(p, f.name) for p in parts])
                for f in fields(cls)
                if f.name != "offsets"
            },
        )

    def __len__(self) -> int:
        return self.predictions.shape[0]

    def __getitem__(self, index):
        """One row as a :class:`DecodeResult`; a slice or an integer
        array of rows as a new :class:`DecodeBatch`."""
        if isinstance(index, slice):
            return self._take(np.arange(len(self))[index])
        if isinstance(index, (np.ndarray, list)):
            rows = np.asarray(index)
            if rows.dtype == bool:
                rows = np.nonzero(rows)[0]
            return self._take(rows.astype(np.intp, copy=False))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"row {index} out of range for {len(self)} rows")
        start, stop = self.offsets[i], self.offsets[i + 1]
        return DecodeResult(
            prediction=bool(self.predictions[i]),
            matching=list(
                zip(self.first[start:stop].tolist(), self.second[start:stop].tolist())
            ),
            weight=float(self.weights[i]),
            cycles=int(self.cycles[i]),
            latency_ns=float(self.latency_ns[i]),
            decoded=bool(self.decoded[i]),
            timed_out=bool(self.timed_out[i]),
        )

    def __iter__(self):
        first = self.first.tolist()
        second = self.second.tolist()
        bounds = self.offsets.tolist()
        for i, (prediction, weight, cycles, latency, decoded, timed_out) in enumerate(
            zip(
                self.predictions.tolist(),
                self.weights.tolist(),
                self.cycles.tolist(),
                self.latency_ns.tolist(),
                self.decoded.tolist(),
                self.timed_out.tolist(),
            )
        ):
            start, stop = bounds[i], bounds[i + 1]
            yield DecodeResult(
                prediction,
                list(zip(first[start:stop], second[start:stop])),
                weight,
                cycles,
                latency,
                decoded,
                timed_out,
            )

    def _take(self, rows: np.ndarray) -> DecodeBatch:
        """The given rows, in the given order."""
        if rows.size and (rows.min() < -len(self) or rows.max() >= len(self)):
            raise IndexError(f"row index out of range for {len(self)} rows")
        rows = rows % max(len(self), 1)
        counts = self.offsets[rows + 1] - self.offsets[rows]
        offsets = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        gather = np.repeat(self.offsets[rows] - offsets[:-1], counts) + np.arange(
            offsets[-1]
        )
        return type(self)(
            offsets=offsets,
            first=self.first[gather],
            second=self.second[gather],
            **{
                f.name: getattr(self, f.name)[rows]
                for f in fields(self)
                if f.name not in ("offsets", "first", "second")
            },
        )


class Decoder(ABC):
    """Abstract base class of all decoders.

    Subclasses implement :meth:`decode_active`; syndromes arrive either as
    boolean vectors (:meth:`decode`) or as active-index lists.
    """

    #: Human-readable decoder name (used in reports and benchmarks).
    name: str = "decoder"

    #: Expected syndrome-vector length; ``None`` disables length checks
    #: (subclasses set it when the code geometry is known at build time).
    syndrome_length: int | None = None

    @abstractmethod
    def decode_active(self, active: list[int]) -> DecodeResult:
        """Decode a syndrome given its non-zero detector indices."""

    def decode(self, syndrome: np.ndarray) -> DecodeResult:
        """Decode a syndrome given as a boolean/0-1 vector.

        Raises:
            ValueError: When the syndrome is not a 1-D binary vector of
                the decoder's expected length.
        """
        validated = validate_syndrome(syndrome, self.syndrome_length)
        active = [int(i) for i in np.nonzero(validated)[0]]
        return self.decode_active(active)

    def decode_batch(self, syndromes: np.ndarray) -> list[DecodeResult]:
        """Decode each row of a (shots, detectors) syndrome matrix.

        Raises:
            ValueError: When the input is not a 2-D binary matrix whose
                rows match the decoder's expected syndrome length.
        """
        validated = validate_syndrome_batch(syndromes, self.syndrome_length)
        return [
            self.decode_active([int(i) for i in np.nonzero(row)[0]])
            for row in validated
        ]
