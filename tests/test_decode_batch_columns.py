"""Columnar batch decoding: :class:`DecodeBatch` and the sparse MWPM path.

``MWPMDecoder.decode_batch`` answers with a :class:`DecodeBatch` built
straight from the sparse engine's arrays.  Row ``i`` must equal per-row
``decode`` of row ``i`` -- prediction and weight bit for bit, the same
matching -- and a fresh decoder's engine counters must read what the
per-row loop leaves behind, on every route a row can take: closed forms,
grouped search, graph-engine growth, wide rows, and per-row dense
recovery of rows the engine refuses.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro import DecodingSetup, PauliFrameSimulator
from repro.decoders.astrea import AstreaDecoder
from repro.decoders.base import (
    BOUNDARY,
    DecodeBatch,
    DecodeResult,
    DecoderFallbackWarning,
)
from repro.decoders.mwpm import MWPMDecoder
from repro.experiments.memory import tally_decode_results
from repro.experiments.parallel import run_memory_experiment_parallel
from repro.experiments.resilient import run_memory_experiment_resilient
from repro.graphs.weights import GlobalWeightTable
from repro.matching.sparse import SparseMatchingEngine
from repro.sim.packing import unique_rows


def _census(setup, shots: int, seed: int = 5) -> np.ndarray:
    detectors = PauliFrameSimulator(setup.experiment.circuit, seed=seed).sample(
        shots
    ).detectors
    return unique_rows(detectors)[0]


def _assert_rows_equal(batch, syndromes, reference) -> None:
    """Batch rows vs ``reference.decode`` row by row, bit for bit."""
    assert isinstance(batch, DecodeBatch)
    assert len(batch) == len(syndromes)
    for row, got in zip(syndromes, batch):
        want = reference.decode(row)
        assert got.prediction is want.prediction
        assert got.weight == want.weight
        assert got.matching == want.matching
        assert got.decoded == want.decoded


def _stats(decoder) -> tuple:
    graph = decoder.graph_stats
    return (
        decoder.sparse_stats.as_dict(),
        graph.as_dict() if graph is not None else None,
        decoder.fallback_events,
    )


class TestDecodeBatchContainer:
    RESULTS = [
        DecodeResult(True, [(1, BOUNDARY), (2, 3)], 1.5, 3, 2.0),
        DecodeResult(False),
        DecodeResult(False, [(0, 4)], 0.25, decoded=False, timed_out=True),
    ]

    def test_round_trips_results(self):
        batch = DecodeBatch.from_results(self.RESULTS)
        assert list(batch) == self.RESULTS
        assert [batch[i] for i in range(3)] == self.RESULTS
        assert batch[-1] == self.RESULTS[-1]
        assert DecodeBatch.from_results(batch) is batch
        with pytest.raises(IndexError):
            batch[3]

    def test_slices_take_and_concat(self):
        batch = DecodeBatch.from_results(self.RESULTS)
        assert list(batch[1:]) == self.RESULTS[1:]
        assert list(batch[[2, 0]]) == [self.RESULTS[2], self.RESULTS[0]]
        assert list(batch[[-1, -3]]) == [self.RESULTS[2], self.RESULTS[0]]
        with pytest.raises(IndexError):
            batch[[0, 3]]
        assert list(batch[np.array([True, False, True])]) == [
            self.RESULTS[0],
            self.RESULTS[2],
        ]
        joined = DecodeBatch.concat([batch, batch[:0], batch[1:]])
        assert list(joined) == self.RESULTS + self.RESULTS[1:]
        assert len(DecodeBatch.concat([])) == 0

    def test_read_only_and_pickles(self):
        batch = DecodeBatch.from_results(self.RESULTS)
        with pytest.raises(ValueError):
            batch.weights[0] = 9.0
        clone = pickle.loads(pickle.dumps(batch))
        assert list(clone) == self.RESULTS
        assert not clone.first.flags.writeable
        assert not clone.predictions.flags.writeable

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            DecodeBatch(
                predictions=[True, False],
                weights=[1.0],
                offsets=[0, 0, 0],
                first=[],
                second=[],
            )

    def test_tally_reads_columns(self, setup_d3, sample_d3):
        rows = sample_d3.detectors[:300]
        results = AstreaDecoder(setup_d3.gwt).decode_batch(rows)
        counts = np.arange(1, len(rows) + 1)
        flips = counts // 3
        assert tally_decode_results(
            rows, counts, flips, results
        ) == tally_decode_results(
            rows, counts, flips, DecodeBatch.from_results(results)
        )


@pytest.mark.parametrize("distance", [3, 5, 7])
@pytest.mark.parametrize("p", [1e-3, 5e-3])
def test_census_rows_equal_per_row_decode(distance, p):
    setup = DecodingSetup.build(distance, p)
    shots = {3: 4000, 5: 3000, 7: 1500 if p < 5e-3 else 300}[distance]
    rows = _census(setup, shots)

    def make():
        return MWPMDecoder(
            setup.ideal_gwt,
            graph=setup.graph,
            measure_time=False,
            structure=setup.neighbor_structure,
        )

    batched, reference = make(), make()
    batch = batched.decode_batch(rows)
    _assert_rows_equal(batch, rows, reference)
    # A fresh decoder's counters match the per-row loop's, cache hits
    # included: the batch dedups its own clusters like the LRU would.
    assert _stats(batched) == _stats(reference)
    assert batched.fallback_events == 0


def _unsafe_table() -> GlobalWeightTable:
    # W[0, 1] violates the boundary-folding bound: an unsafe pair.
    weights = np.array(
        [
            [1.0, 3.0, 2.0, 1.5],
            [3.0, 1.0, 2.0, 2.0],
            [2.0, 2.0, 1.0, 1.25],
            [1.5, 2.0, 1.25, 1.0],
        ]
    )
    return GlobalWeightTable(
        weights=weights, parities=np.zeros((4, 4), dtype=bool), lsb=0.25
    )


class TestRefusedRows:
    SYNDROMES = np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1, 1, 1, 0],
            [0, 0, 0, 0],
            [1, 0, 1, 1],
            [1, 1, 1, 1],
            [0, 1, 0, 0],
        ],
        dtype=bool,
    )

    def test_only_refused_rows_go_dense(self):
        gwt = _unsafe_table()
        batched = MWPMDecoder(gwt, measure_time=False)
        reference = MWPMDecoder(gwt, measure_time=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DecoderFallbackWarning)
            batch = batched.decode_batch(self.SYNDROMES)
            _assert_rows_equal(batch, self.SYNDROMES, reference)
        # Rows 0, 2 and 5 hold the unsafe pair: one escalation each.
        assert batched.fallback_events == reference.fallback_events == 3
        assert batched.sparse_stats.fallback_events["unsafe_pair"] == 3
        assert _stats(batched) == _stats(reference)
        assert len(caught) == 2 * 3

    def test_quantized_census_recovers_per_row(self, setup_d5):
        rows = _census(setup_d5, 2000)
        batched = MWPMDecoder(setup_d5.gwt, measure_time=False)
        reference = MWPMDecoder(setup_d5.gwt, measure_time=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DecoderFallbackWarning)
            batch = batched.decode_batch(rows)
        assert len(caught) == batched.fallback_events > 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DecoderFallbackWarning)
            _assert_rows_equal(batch, rows, reference)
        assert _stats(batched) == _stats(reference)

    def test_graph_engine_takes_unsafe_rows(self, setup_d5):
        rows = _census(setup_d5, 2000)

        def make():
            return MWPMDecoder(
                setup_d5.gwt, graph=setup_d5.graph, measure_time=False
            )

        batched, reference = make(), make()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DecoderFallbackWarning)
            batch = batched.decode_batch(rows)
            _assert_rows_equal(batch, rows, reference)
        assert batched.sparse_stats.fallback_events["unsafe_pair"] > 0
        assert batched.fallback_events == 0
        assert _stats(batched) == _stats(reference)

    def test_poisoned_table_refuses_every_row(self, setup_d3, sample_d3):
        weights = setup_d3.ideal_gwt.weights.copy()
        weights[0, 1] = weights[1, 0] = np.nan
        gwt = GlobalWeightTable(
            weights=weights, parities=setup_d3.ideal_gwt.parities, lsb=None
        )
        rows = sample_d3.detectors[:40]
        batched = MWPMDecoder(gwt, measure_time=False)
        reference = MWPMDecoder(gwt, measure_time=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DecoderFallbackWarning)
            batch = batched.decode_batch(rows)
            for row, got in zip(rows, batch):
                want = reference.decode(row)
                assert got.prediction == want.prediction
                assert got.matching == want.matching
        nonempty = int(rows.any(axis=1).sum())
        assert batched.fallback_events == reference.fallback_events == nonempty
        assert _stats(batched) == _stats(reference)


def test_rows_wider_than_vectorized_labelling():
    """Rows above the uint8 matrix-power width label per row, same result."""
    n = 140
    rng = np.random.default_rng(3)
    radii = 1.0 + rng.random(n)
    radii[40] = 1e17
    diag_parities = rng.random(n) < 0.5
    # Every pair separable (matching both to the boundary is as good as
    # matching them together) except a close block of four and a close
    # pair, so wide rows mix singletons, pairs and a >= 3-defect cluster.
    # The pair straddles 29 singletons and weighs 9e16, so visiting
    # components in any order but by smallest member rounds differently.
    weights = radii[:, None] + radii[None, :]
    parities = diag_parities[:, None] ^ diag_parities[None, :]
    for (a, b), w in {
        (0, 1): 0.5, (2, 3): 0.5, (0, 2): 0.6, (0, 3): 0.7, (1, 2): 0.8,
        (1, 3): 0.9, (10, 40): 9e16,
    }.items():
        weights[a, b] = weights[b, a] = w
    np.fill_diagonal(weights, radii)
    np.fill_diagonal(parities, diag_parities)
    gwt = GlobalWeightTable(weights=weights, parities=parities, lsb=None)
    syndromes = np.zeros((6, n), dtype=bool)
    syndromes[:3, :130] = True
    syndromes[1, 2] = False
    syndromes[2, [1, 40]] = False
    syndromes[3, [0, 2, 3, 10, 40]] = True
    syndromes[4, rng.choice(n, 129, replace=False)] = True
    batched = MWPMDecoder(gwt, measure_time=False)
    reference = MWPMDecoder(gwt, measure_time=False)
    batch = batched.decode_batch(syndromes)
    _assert_rows_equal(batch, syndromes, reference)
    assert _stats(batched) == _stats(reference)
    assert batch[0].matching[:2] == [(0, 1), (2, 3)]


class TestTrivialAndGraphOnly:
    def test_empty_and_all_zero_batches(self, setup_d3):
        decoder = MWPMDecoder(setup_d3.ideal_gwt, measure_time=False)
        width = decoder.syndrome_length
        empty = decoder.decode_batch(np.zeros((0, width), dtype=bool))
        assert isinstance(empty, DecodeBatch) and len(empty) == 0
        zeros = decoder.decode_batch(np.zeros((5, width), dtype=bool))
        assert list(zeros) == [DecodeResult(False)] * 5
        assert decoder.sparse_stats.syndromes == 0

    def test_graph_only(self, setup_d3, sample_d3):
        rows = _census(setup_d3, 3000)

        def make():
            return MWPMDecoder(
                None, graph=setup_d3.sparse_graph, measure_time=False
            )

        batched, reference = make(), make()
        _assert_rows_equal(batched.decode_batch(rows), rows, reference)
        assert _stats(batched) == _stats(reference)

    def test_dense_path_returns_batch(self, setup_d3, sample_d3):
        rows = sample_d3.detectors[:200]
        dense = MWPMDecoder(setup_d3.ideal_gwt, use_sparse=False, measure_time=False)
        _assert_rows_equal(dense.decode_batch(rows), rows, dense)


def test_scalar_solve_keeps_its_lru_after_a_batch(setup_d5, sample_d5):
    engine = SparseMatchingEngine(setup_d5.ideal_gwt)
    engine.solve_batch(sample_d5.detectors)
    assert len(engine._cache) == 0
    hits = engine.stats.cache_hits
    misses = engine.stats.cache_misses
    engine.solve([0, 1, 2])
    engine.solve([0, 1, 2])
    assert engine.stats.cache_misses == misses + 1
    assert engine.stats.cache_hits == hits + 1


@pytest.mark.parametrize(
    "runner",
    [
        run_memory_experiment_parallel,
        lambda *args, **kwargs: run_memory_experiment_resilient(
            *args, **kwargs
        ).result,
    ],
    ids=["parallel", "resilient"],
)
def test_worker_split_gives_identical_result(runner, setup_d5):
    decoder = MWPMDecoder(
        setup_d5.ideal_gwt, graph=setup_d5.graph, measure_time=False
    )
    serial, split = (
        runner(
            setup_d5.experiment,
            decoder,
            3000,
            seed=61,
            workers=workers,
            chunks_per_worker=2,
            block_shots=500,
        )
        for workers in (1, 2)
    )
    assert serial == split
    assert serial.unique_syndromes > 100
