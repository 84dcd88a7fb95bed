"""Property tests: the sparse exact-MWPM engine vs the dense blossom solve.

Equivalence policy (mirrors ``test_astrea.py``):

* on *idealized* (float) weight tables the minimum-weight matching is
  generically unique, so sparse and dense must agree on weight AND
  prediction;
* on *quantized* tables equal-weight optima of different parity exist
  (already true of Astrea-vs-MWPM in the seed suite), so the matching
  weight must agree exactly while predictions may differ on degenerate
  ties only -- the unsafe-pair path, where the engine refuses (no graph
  engine attached) and the decoder degrades to rerun the dense solver
  verbatim, must agree on everything including the pairs.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.decoders.base import DecoderFallbackWarning
from repro.decoders.mwpm import MWPMDecoder
from repro.experiments.setup import DecodingSetup
from repro.graphs.decoding_graph import BOUNDARY, NeighborStructure
from repro.graphs.weights import GlobalWeightTable
from repro.matching.sparse import (
    SparseEngineError,
    SparseMatchingEngine,
    default_tolerance,
)

GRID = [(3, 1e-3), (3, 5e-3), (3, 1e-2), (5, 1e-3), (5, 5e-3), (5, 1e-2), (7, 1e-3)]


def _random_active(rng, n, max_hw):
    hw = int(rng.integers(0, max_hw + 1))
    return sorted(int(i) for i in rng.choice(n, size=hw, replace=False))


def _near_boundary_active(structure, rng, count):
    """Adversarial sets drawn from the detectors closest to the boundary."""
    order = np.argsort(structure.radii, kind="stable")
    pool = order[: max(6, len(order) // 4)]
    hw = int(rng.integers(1, min(9, pool.size + 1)))
    return sorted(int(i) for i in rng.choice(pool, size=hw, replace=False))


@pytest.mark.parametrize("distance,p", GRID)
class TestSparseEqualsDense:
    def test_ideal_table_bit_exact(self, distance, p):
        setup = DecodingSetup.build(distance, p)
        gwt = setup.ideal_gwt
        sparse = MWPMDecoder(gwt, measure_time=False, use_sparse=True)
        dense = MWPMDecoder(gwt, measure_time=False, use_sparse=False)
        n = gwt.weights.shape[0]
        rng = np.random.default_rng(100 * distance + int(p * 1e4))
        structure = sparse._engine.structure
        cases = [_random_active(rng, n, 12) for _ in range(120)]
        cases += [_near_boundary_active(structure, rng, 40) for _ in range(40)]
        for active in cases:
            s = sparse.decode_active(list(active))
            d = dense.decode_active(list(active))
            assert s.prediction == d.prediction, active
            assert s.weight == pytest.approx(d.weight, abs=1e-6), active

    def test_quantized_table_weight_exact(self, distance, p):
        setup = DecodingSetup.build(distance, p)
        gwt = setup.gwt
        sparse = MWPMDecoder(gwt, measure_time=False, use_sparse=True)
        dense = MWPMDecoder(gwt, measure_time=False, use_sparse=False)
        n = gwt.weights.shape[0]
        rng = np.random.default_rng(200 * distance + int(p * 1e4))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DecoderFallbackWarning)
            for _ in range(120):
                active = _random_active(rng, n, 12)
                s = sparse.decode_active(list(active))
                d = dense.decode_active(list(active))
                # Quantized weights are multiples of the lsb summed in
                # float; equality is exact (no representation error at
                # this scale).
                assert s.weight == d.weight, active
        # Every unsafe-pair row degrades with exactly one warning.
        assert [w.category for w in caught] == (
            [DecoderFallbackWarning] * sparse.fallback_events
        )
        assert (
            sparse.fallback_events
            == sparse.sparse_stats.fallback_events["unsafe_pair"]
        )

    def test_fallback_path_identical_to_dense(self, distance, p):
        """Unsafe-pair syndromes raise; the decoder reruns dense verbatim."""
        setup = DecodingSetup.build(distance, p)
        gwt = setup.gwt
        engine = SparseMatchingEngine(gwt)
        sparse = MWPMDecoder(gwt, measure_time=False, use_sparse=True)
        dense = MWPMDecoder(gwt, measure_time=False, use_sparse=False)
        unsafe_pairs = np.argwhere(engine.structure.unsafe)
        if unsafe_pairs.size == 0:
            pytest.skip("no unsafe pairs in this configuration")
        rng = np.random.default_rng(300 * distance + int(p * 1e4))
        n = gwt.weights.shape[0]
        checked = 0
        for a, b in unsafe_pairs[:30]:
            extra = _random_active(rng, n, 6)
            active = sorted(set(extra) | {int(a), int(b)})
            before = engine.stats.fallback_events["unsafe_pair"]
            with pytest.raises(SparseEngineError, match="unsafe pair"):
                engine.solve(active)
            assert engine.stats.fallback_events["unsafe_pair"] == before + 1
            with pytest.warns(DecoderFallbackWarning):
                s = sparse.decode_active(list(active))
            d = dense.decode_active(list(active))
            assert s.matching == d.matching, active
            assert s.weight == d.weight, active
            assert s.prediction == d.prediction, active
            checked += 1
        assert checked > 0
        assert sparse.fallback_events == checked
        assert (
            sparse.sparse_stats.fallback_events["unsafe_pair"] == checked
        )


class TestNeighborStructure:
    def test_partition_of_off_diagonal_pairs(self, setup_d5):
        gwt = setup_d5.gwt
        structure = NeighborStructure.from_weights(
            gwt.weights, gwt.parities, tolerance=default_tolerance(gwt)
        )
        total = (
            structure.close.astype(int)
            + structure.separable.astype(int)
            + structure.unsafe.astype(int)
        )
        n = structure.num_detectors
        assert (np.diag(total) == 0).all()
        off = ~np.eye(n, dtype=bool)
        assert (total[off] == 1).all()

    def test_neighbors_sorted_and_capped(self, setup_d5):
        gwt = setup_d5.gwt
        structure = NeighborStructure.from_weights(gwt.weights, gwt.parities)
        for i, nbrs in enumerate(structure.neighbors):
            ws = gwt.weights[i, nbrs]
            assert (np.diff(ws) >= 0).all()
            assert set(nbrs) == set(np.nonzero(structure.close[i])[0])
        capped = NeighborStructure.from_weights(
            gwt.weights, gwt.parities, max_neighbors=2
        )
        assert all(len(nbrs) <= 2 for nbrs in capped.neighbors)
        assert capped.degree(0) == len(capped.neighbors[0])

    def test_graph_accessor_is_cached(self, setup_d3):
        graph = setup_d3.graph
        first = graph.neighbor_structure()
        assert graph.neighbor_structure() is first
        other = graph.neighbor_structure(max_neighbors=1)
        assert other is not first


class TestSparseEngineMechanics:
    def test_empty_syndrome(self, setup_d3):
        engine = SparseMatchingEngine(setup_d3.gwt)
        assert engine.solve([]) == ([], 0.0, False)
        assert engine.stats.syndromes == 0

    def test_out_of_range_detector_index_messages(self, setup_d3):
        from repro.matching.sparse import SparseEngineError

        engine = SparseMatchingEngine(setup_d3.gwt)
        n = engine.gwt.weights.shape[0]
        with pytest.raises(SparseEngineError, match=f"index {n} "):
            engine.solve([0, n])
        # When the only violation is a negative index, the message must
        # name the negative index, not the in-range largest one.
        with pytest.raises(SparseEngineError, match="index -3 "):
            engine.solve([-3, 0])

    def test_singleton_and_pair_closed_forms(self, setup_d3):
        gwt = setup_d3.gwt
        engine = SparseMatchingEngine(gwt)
        pairs, weight, prediction = engine.solve([2])
        assert pairs == [(2, BOUNDARY)]
        assert weight == gwt.weights[2, 2]
        assert prediction == bool(gwt.parities[2, 2])
        close = np.argwhere(engine.structure.close)
        if close.size:
            a, b = (int(x) for x in close[0])
            pairs, weight, _ = engine.solve(sorted((a, b)))
            assert pairs == [(min(a, b), max(a, b))]
            assert weight == gwt.weights[a, b]

    def test_cache_hits_and_misses(self, setup_d3):
        engine = SparseMatchingEngine(setup_d3.gwt)
        engine.solve([0, 1, 2])
        misses = engine.stats.cache_misses
        engine.solve([0, 1, 2])
        assert engine.stats.cache_misses == misses
        assert engine.stats.cache_hits >= 1
        assert 0.0 < engine.stats.hit_rate < 1.0
        as_dict = engine.stats.as_dict()
        assert as_dict["cache_hits"] == engine.stats.cache_hits
        engine.clear_cache()
        engine.solve([0, 1, 2])
        assert engine.stats.cache_misses > misses

    def test_lru_eviction_bounds_cache(self, setup_d3):
        gwt = setup_d3.gwt
        engine = SparseMatchingEngine(gwt, cache_size=2)
        n = gwt.weights.shape[0]
        for d in range(min(8, n)):
            engine.solve([d])
        assert len(engine._cache) <= 2
        # Evicted entries still decode correctly (recomputed, not stale).
        pairs, weight, _ = engine.solve([0])
        assert pairs == [(0, BOUNDARY)]
        assert weight == gwt.weights[0, 0]

    def test_synthetic_unsafe_pair_forces_fallback(self):
        # Hand-built 3-detector table where W[0, 1] violates the
        # boundary-folding bound: the engine must not decompose.
        weights = np.array(
            [
                [1.0, 3.0, 5.0],
                [3.0, 1.0, 5.0],
                [5.0, 5.0, 1.0],
            ]
        )
        parities = np.zeros((3, 3), dtype=bool)
        gwt = GlobalWeightTable(weights=weights, parities=parities, lsb=0.25)
        engine = SparseMatchingEngine(gwt)
        assert engine.structure.unsafe[0, 1]
        with pytest.raises(SparseEngineError, match="unsafe pair"):
            engine.solve([0, 1])
        assert engine.stats.fallback_events["unsafe_pair"] == 1

        # With a graph engine attached the whole syndrome routes there:
        # growth re-derives true weights, so no decomposition is needed.
        sentinel = ([(0, 1)], 3.0, False)

        class _StubGraphEngine:
            calls = 0

            def solve(self, dets):
                _StubGraphEngine.calls += 1
                return sentinel

        routed = SparseMatchingEngine(gwt, graph_engine=_StubGraphEngine())
        assert routed.solve([0, 1]) == sentinel
        assert _StubGraphEngine.calls == 1
        assert routed.stats.fallback_events["unsafe_pair"] == 1

        # Without one, the decoder degrades and reproduces the dense solve
        # exactly: an even syndrome has no virtual node, so the defects
        # pair directly at W[0, 1] (the inconsistent through-boundary
        # route is never offered -- which is precisely why decomposing
        # here would be unsound).
        sparse = MWPMDecoder(gwt, measure_time=False, use_sparse=True)
        dense = MWPMDecoder(gwt, measure_time=False, use_sparse=False)
        with pytest.warns(DecoderFallbackWarning):
            s = sparse.decode_active([0, 1])
        d = dense.decode_active([0, 1])
        assert s.matching == d.matching == [(0, 1)]
        assert s.weight == d.weight == pytest.approx(3.0)
        assert sparse.fallback_events == 1

    def test_tolerance_defaults(self, setup_d3):
        assert default_tolerance(setup_d3.gwt) == 0.0
        assert default_tolerance(setup_d3.ideal_gwt) == pytest.approx(1e-9)
        assert SparseMatchingEngine(setup_d3.gwt).tolerance == 0.0
        assert SparseMatchingEngine(setup_d3.ideal_gwt).tolerance == 1e-9


class TestSparseThroughDecoder:
    def test_decode_batch_matches_scalar(self, setup_d5, sample_d5):
        decoder = MWPMDecoder(setup_d5.ideal_gwt, measure_time=False)
        rows = sample_d5.detectors[:300]
        batch = decoder.decode_batch(rows)
        for row, b in zip(rows, batch):
            s = decoder.decode(row)
            assert s.prediction == b.prediction
            assert s.matching == b.matching
            assert s.weight == b.weight

    def test_sparse_stats_exposed(self, setup_d3, sample_d3):
        decoder = MWPMDecoder(setup_d3.ideal_gwt, measure_time=False)
        decoder.decode_batch(sample_d3.detectors[:200])
        stats = decoder.sparse_stats
        assert stats is not None and stats.syndromes > 0
        dense = MWPMDecoder(setup_d3.ideal_gwt, use_sparse=False)
        assert dense.sparse_stats is None

    def test_batch_latency_includes_shared_construction(self, setup_d3, sample_d3):
        for use_sparse in (True, False):
            decoder = MWPMDecoder(setup_d3.gwt, use_sparse=use_sparse)
            results = decoder.decode_batch(sample_d3.detectors[:64])
            assert all(r.latency_ns > 0 for r in results)
