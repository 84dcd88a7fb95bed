"""Differential exactness of the subset-DP kernel and the engines using it.

:func:`repro.matching.search.batched_dp` solves every cluster of 12 to
:data:`~repro.matching.search.MAX_DP_NODES` matching nodes in both sparse
engines.  It is checked three ways:

* kernel against the independent scalar oracle
  :func:`~repro.matching.brute_force.min_weight_perfect_matching_dp` for
  every even node count from 12 to the cap, on random floats and on
  tie-heavy small integers, plus odd clusters closed by the virtual
  boundary node.  The check is tie-aware: the result must be a valid
  perfect matching reaching the oracle weight.  Both sum in the same order
  and break ties toward the lowest partner, so they also pick the same
  matching;
* the table engine, the graph-only engine and the dense reference
  (``MWPMDecoder(use_sparse=False)``) on seeded d = 7 and d = 9 syndromes
  with forced >= 11-defect clusters: weights agree within 1e-9 relative,
  and predictions may differ only where two matchings tie on the optimum;
* per-row ``decode`` against ``decode_batch`` on those rows (bit for bit),
  and the engines' counters: every distinct oversized cluster of a batch
  is one ``dp_clusters`` or ``blossom_clusters`` count, and the attached
  graph engine does no work on an ideal table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import repro.matching.search as search
from repro import DecodingSetup, PauliFrameSimulator
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.verify import verify_decode_result
from repro.matching.brute_force import min_weight_perfect_matching_dp
from repro.matching.search import MAX_DP_NODES, MAX_SEARCH_NODES, batched_dp
from repro.sim.packing import unique_rows

REL_TOL = 1e-9

#: Oracle instances per node count: the scalar oracle visits all 2**m
#: masks in Python (about 3 s at m = 20), so large m get one instance.
INSTANCES = {12: 4, 14: 3, 16: 2, 18: 1, 20: 1}
DP_SIZES = list(range(MAX_SEARCH_NODES + 2, MAX_DP_NODES + 1, 2))


def _symmetric(upper: np.ndarray) -> np.ndarray:
    """Symmetric matrices from the upper triangles of a ``(B, m, m)`` draw."""
    sym = np.triu(upper, 1)
    return sym + sym.transpose(0, 2, 1)


def _assert_perfect(pairs: np.ndarray, m: int) -> None:
    nodes = np.sort(pairs.ravel())
    assert (nodes == np.arange(m)).all(), pairs
    assert (pairs[:, 0] < pairs[:, 1]).all(), pairs


def _check_against_oracle(weights: np.ndarray) -> None:
    pair_tensor, totals = batched_dp(weights)
    m = weights.shape[1]
    for w, pairs, total in zip(weights, pair_tensor, totals):
        _assert_perfect(pairs, m)
        # The reported total is the weight of the reported pairs ...
        assert total == pytest.approx(w[pairs[:, 0], pairs[:, 1]].sum(), abs=1e-9)
        # ... and reaches the oracle's optimum.
        want_pairs, want = min_weight_perfect_matching_dp(w)
        assert total == want
        assert sorted(map(tuple, pairs.tolist())) == want_pairs


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# ----------------------------------------------------------------------
# The kernel against the scalar DP oracle
# ----------------------------------------------------------------------


class TestKernel:
    @pytest.mark.parametrize("m", DP_SIZES)
    def test_random_floats_match_oracle(self, m):
        rng = np.random.default_rng(m)
        _check_against_oracle(_symmetric(rng.uniform(0.1, 5.0, (INSTANCES[m], m, m))))

    @pytest.mark.parametrize("m", DP_SIZES)
    def test_tie_heavy_integers_match_oracle(self, m):
        rng = np.random.default_rng(100 + m)
        weights = _symmetric(rng.integers(1, 4, (INSTANCES[m], m, m)).astype(float))
        _check_against_oracle(weights)

    @pytest.mark.parametrize("k", [11, 13, 15])
    def test_odd_clusters_with_virtual_node(self, k):
        """Odd clusters padded as MatchingProblem does: node k is the
        boundary, its pair weight with i the diagonal W[i, i]."""
        rng = np.random.default_rng(k)
        base = _symmetric(rng.uniform(0.5, 3.0, (2, k, k)))
        radii = rng.uniform(0.5, 2.5, (2, k))
        weights = np.zeros((2, k + 1, k + 1))
        weights[:, :k, :k] = base
        weights[:, :k, k] = radii
        weights[:, k, :k] = radii
        _check_against_oracle(weights)
        pair_tensor, _ = batched_dp(weights)
        # Exactly one detector goes to the boundary.
        assert ((pair_tensor == k).sum(axis=(1, 2)) == 1).all()

    def test_all_equal_weights_pick_lowest_partners(self):
        pair_tensor, totals = batched_dp(np.ones((1, 12, 12)))
        assert pair_tensor[0].tolist() == [[2 * i, 2 * i + 1] for i in range(6)]
        assert totals[0] == 6.0

    def test_plan_keeps_only_reachable_masks(self):
        # F(m + 1) masks (the full set included), stored as int32.
        for m, count in ((12, 233), (14, 610), (16, 1597), (18, 4181), (20, 10946)):
            plan = search._dp_plan(m)
            assert 1 + sum(len(layer.low) for layer in plan) == count
            assert all(layer.child.dtype == np.int32 for layer in plan)

    def test_chunking_is_invisible(self, monkeypatch):
        rng = np.random.default_rng(3)
        weights = _symmetric(rng.uniform(0.1, 5.0, (7, 14, 14)))
        whole = batched_dp(weights)
        monkeypatch.setattr(search, "_DP_CHUNK_ENTRIES", 1)
        chunked = batched_dp(weights)
        assert (whole[0] == chunked[0]).all()
        assert (whole[1] == chunked[1]).all()

    def test_empty_and_odd_inputs(self):
        pairs, totals = batched_dp(np.zeros((0, 12, 12)))
        assert pairs.shape == (0, 6, 2) and totals.shape == (0,)
        with pytest.raises(ValueError):
            batched_dp(np.zeros((1, 13, 13)))
        with pytest.raises(ValueError):
            batched_dp(np.zeros((1, MAX_DP_NODES + 2, MAX_DP_NODES + 2)))


# ----------------------------------------------------------------------
# Engines on real d = 7 / d = 9 stacks with forced large clusters
# ----------------------------------------------------------------------


def _forced_rows(setup, seed: int, count: int) -> np.ndarray:
    """Rows each holding one connected close-cluster of 11-24 defects.

    The cluster is grown breadth-first over the ideal table's close
    adjacency from a random detector, so it is one component however
    its sizes fall; three random defects elsewhere complete the row.
    """
    close = setup.neighbor_structure.close
    n = close.shape[0]
    rng = np.random.default_rng(seed)
    rows = np.zeros((count, n), dtype=bool)
    for row in rows:
        size = int(rng.integers(11, 25))
        members = [int(rng.integers(n))]
        for node in members:
            if len(members) >= size:
                break
            for nbr in rng.permutation(np.flatnonzero(close[node])).tolist():
                if nbr not in members and len(members) < size:
                    members.append(nbr)
        row[members] = True
        row[rng.choice(n, 3, replace=False)] = True
    return rows


@lru_cache(maxsize=None)
def _setup(distance: int) -> DecodingSetup:
    return DecodingSetup.build(distance, 1e-3)


@pytest.fixture(scope="module", params=[7, 9])
def stack(request):
    setup = _setup(request.param)
    return setup, _forced_rows(setup, seed=request.param, count=24)


def _table(setup) -> MWPMDecoder:
    """The default ``mwpm``: ideal table, graph engine attached."""
    return MWPMDecoder(setup.ideal_gwt, graph=setup.graph, measure_time=False)


class TestEngines:
    def test_forced_rows_reach_dp_and_blossom(self, stack):
        setup, rows = stack
        decoder = _table(setup)
        decoder.decode_batch(rows)
        assert decoder.sparse_stats.dp_clusters > 0
        assert decoder.sparse_stats.blossom_clusters > 0

    def test_table_graph_and_dense_agree(self, stack):
        setup, rows = stack
        gwt = setup.ideal_gwt
        table = _table(setup).decode_batch(rows)
        graph_only = MWPMDecoder(None, graph=setup.graph, measure_time=False)
        dense = MWPMDecoder(gwt, use_sparse=False, measure_time=False)
        for row, got in zip(rows, table):
            active = [int(i) for i in np.flatnonzero(row)]
            want = dense.decode(row)
            other = graph_only.decode(row)
            assert _rel(got.weight, want.weight) <= REL_TOL
            assert _rel(other.weight, want.weight) <= REL_TOL
            assert verify_decode_result(got, active, gwt=gwt).valid
            for result in (got, other):
                if result.prediction != want.prediction:
                    # Only a tie on the optimum may flip the prediction:
                    # both matchings, scored on the table, are optimal.
                    report = verify_decode_result(
                        result, active, gwt=gwt, weight_tolerance=1e-9 * want.weight
                    )
                    assert report.valid, report.problems
                    assert result.matching != want.matching

    def test_solve_and_solve_batch_bit_identical(self, stack):
        setup, rows = stack
        batch_decoder, row_decoder = _table(setup), _table(setup)
        batch = batch_decoder.decode_batch(rows)
        for row, got in zip(rows, batch):
            want = row_decoder.decode(row)
            assert got.prediction is want.prediction
            assert got.weight == want.weight
            assert got.matching == want.matching
        assert batch_decoder.sparse_stats.as_dict() == row_decoder.sparse_stats.as_dict()


def _distinct_oversized(rows: np.ndarray, close: np.ndarray) -> set[tuple[int, ...]]:
    """Distinct clusters too large for exhaustive search, found per row
    from the close adjacency alone."""
    found = set()
    for row in rows:
        dets = np.flatnonzero(row)
        _, labels = connected_components(close[np.ix_(dets, dets)], directed=False)
        for label in np.unique(labels):
            members = dets[labels == label]
            if members.size + members.size % 2 > MAX_SEARCH_NODES:
                found.add(tuple(members.tolist()))
    return found


def test_counters_cover_every_oversized_cluster_d9():
    setup = _setup(9)
    sampled = PauliFrameSimulator(setup.experiment.circuit, seed=21).sample(4096)
    forced = _forced_rows(setup, seed=21, count=16)
    # Repeats and a shared cluster with a different tail give the batch
    # duplicate oversized clusters to deduplicate.
    tail = forced[:4].copy()
    tail[:, 0] ^= True
    census = unique_rows(np.vstack([sampled.detectors, forced, forced[:4], tail]))[0]
    decoder = _table(setup)
    decoder.decode_batch(census)
    stats = decoder.sparse_stats
    distinct = _distinct_oversized(census, setup.neighbor_structure.close)
    assert len(distinct) > 0
    assert stats.dp_clusters + stats.blossom_clusters == len(distinct)
    graph = decoder.graph_stats.as_dict()
    assert all(not value for key, value in graph.items() if key != "fallback_events")
    assert not any(graph["fallback_events"].values())
