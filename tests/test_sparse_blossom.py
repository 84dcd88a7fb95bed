"""Cross-validation of the graph-local sparse-blossom engine.

The engine (:class:`repro.matching.sparse_blossom.SparseBlossomEngine`)
claims *exact* MWPM on decoding-graph adjacency without ever reading an
all-pairs weight table.  Here that claim is checked three ways:

* randomized synthetic decoding graphs (boundary edges, disconnected
  regions, degenerate equal-weight ties) against an exhaustive
  enumeration oracle that scores every pairing/boundary partition of the
  active set using the independently built all-pairs tables;
* real surface-code graphs at d = 3 and d = 5 against the dense
  per-syndrome blossom reference through :class:`MWPMDecoder`;
* the engine's own entry points against each other (``solve`` vs
  ``solve_batch``).

The subset-DP kernel that solves its 12-20-node clusters is checked
against the DP oracle in ``tests/test_subset_dp.py``.

On idealized float weights the optimum is generically unique, so weights
AND predictions must agree; on hand-built degenerate graphs several
optima can differ in parity, so the engine's prediction must match the
parity of *some* optimal matching while the weight matches exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.decoders.mwpm import MWPMDecoder
from repro.experiments.setup import DecodingSetup
from repro.graphs.decoding_graph import BOUNDARY, DecodingGraph
from repro.graphs.weights import GlobalWeightTable
from repro.matching.sparse import SparseEngineError, SparseMatchingEngine
from repro.matching.sparse_blossom import SparseBlossomEngine
from repro.sim.dem import DetectorErrorModel, FaultMechanism

TOL = 1e-9


# ----------------------------------------------------------------------
# Synthetic graph construction
# ----------------------------------------------------------------------


def _random_dem(rng, n, *, tie_prone=False, boundary_all=False):
    """A random connected graph-like DEM over ``n`` detectors.

    A spanning chain guarantees connectivity; extra chords and boundary
    edges are sampled at random.  ``tie_prone`` draws probabilities from
    a tiny discrete set so many distinct routes carry exactly equal
    weight (degenerate optima).  At least one boundary edge always
    exists, so every odd cluster is solvable.
    """
    if tie_prone:
        draw = lambda: float(rng.choice([1e-1, 1e-2, 1e-3]))
    else:
        draw = lambda: float(rng.uniform(1e-4, 0.3))
    mechanisms = []

    def add(dets):
        mechanisms.append(
            FaultMechanism(
                probability=draw(),
                detectors=dets,
                observables=(0,) if rng.random() < 0.5 else (),
            )
        )

    for i in range(n - 1):
        add((i, i + 1))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        add((i, j))
    boundary = (
        range(n)
        if boundary_all
        else {int(rng.integers(0, n))}
        | {int(i) for i in range(n) if rng.random() < 0.4}
    )
    for i in boundary:
        add((int(i),))
    return DetectorErrorModel(
        num_detectors=n, num_observables=1, mechanisms=mechanisms
    )


def _parity_sets(graph_dense):
    """For every pair, the parities achievable by tying shortest paths.

    Degenerate graphs admit several equal-weight shortest paths between
    the same endpoints, and those paths may flip the logical observable
    differently; any of them is a legal optimum.  A Dijkstra on the
    parity-doubled graph (vertex ``(v, parity)``) yields, per source, the
    cheapest route to every vertex *of each parity* -- a parity is
    achievable exactly when its doubled distance ties the pair weight.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = graph_dense.num_detectors
    indptr, indices, weights, parities = graph_dense.csr_adjacency()
    src = np.repeat(np.arange(n + 1), np.diff(indptr))
    rows, cols, vals = [], [], []
    for u, v, w, p in zip(src, indices, weights, parities):
        for bit in (0, 1):
            rows.append(2 * int(u) + bit)
            cols.append(2 * int(v) + (bit ^ int(p)))
            vals.append(float(w))
    doubled = csr_matrix((vals, (rows, cols)), shape=(2 * (n + 1),) * 2)
    dist2 = dijkstra(doubled, directed=True)

    def achievable(i, j):
        target = 2 * (n if i == j else j)
        base = graph_dense.pair_weights[i, j]
        return {
            bool(bit)
            for bit in (0, 1)
            if dist2[2 * i, target + bit] <= base + TOL
        }

    return achievable


def _oracle(graph_dense, active):
    """Every pairing/boundary partition of ``active``, exhaustively.

    Uses the all-pairs tables (built independently of the engine under
    test, with through-boundary routes already folded in).  Returns the
    optimal weight and the set of logical parities over all matchings
    whose weight ties the optimum within :data:`TOL`, where each matched
    pair may realise any parity a tying shortest path achieves.
    """
    weights = graph_dense.pair_weights
    achievable = _parity_sets(graph_dense)
    best = [np.inf]
    optimal_parities = set()

    def note(acc_w, acc_p):
        if acc_w < best[0] - TOL:
            best[0] = acc_w
            optimal_parities.clear()
        best[0] = min(best[0], acc_w)
        optimal_parities.add(acc_p)

    def rec(remaining, acc_w, acc_p):
        if acc_w > best[0] + TOL:
            return
        if not remaining:
            note(acc_w, acc_p)
            return
        i, rest = remaining[0], remaining[1:]
        for parity in achievable(i, i):
            rec(rest, acc_w + weights[i, i], acc_p ^ parity)
        for k, j in enumerate(rest):
            for parity in achievable(i, j):
                rec(
                    rest[:k] + rest[k + 1 :],
                    acc_w + weights[i, j],
                    acc_p ^ parity,
                )

    rec(tuple(active), 0.0, False)
    return best[0], optimal_parities


def _assert_valid_matching(pairs, active):
    """Each active detector appears exactly once; partners are legal."""
    seen = []
    for a, b in pairs:
        seen.append(a)
        if b == BOUNDARY:
            continue
        seen.append(b)
    assert sorted(seen) == sorted(active), pairs


def _check_engine_against_oracle(engine, graph_dense, active):
    pairs, weight, prediction = engine.solve(list(active))
    opt_weight, opt_parities = _oracle(graph_dense, active)
    assert weight == pytest.approx(opt_weight, abs=1e-6), active
    _assert_valid_matching(pairs, active)
    # The reported weight must equal the weight of the reported pairs.
    recomputed = sum(
        graph_dense.pair_weights[a, a if b == BOUNDARY else b]
        for a, b in pairs
    )
    assert weight == pytest.approx(recomputed, abs=1e-6), active
    assert prediction in opt_parities, active


# ----------------------------------------------------------------------
# Randomized cross-validation on synthetic graphs
# ----------------------------------------------------------------------


class TestSyntheticGraphs:
    @pytest.mark.parametrize("tie_prone", [False, True])
    def test_random_graphs_match_exhaustive_oracle(self, tie_prone):
        rng = np.random.default_rng(7 if tie_prone else 11)
        for trial in range(60):
            n = int(rng.integers(4, 12))
            dem = _random_dem(rng, n, tie_prone=tie_prone)
            graph_dense = DecodingGraph.from_dem(dem, all_pairs=True)
            engine = SparseBlossomEngine(
                DecodingGraph.from_dem(dem, all_pairs=False)
            )
            for _ in range(8):
                hw = int(rng.integers(1, min(9, n + 1)))
                active = sorted(
                    int(i) for i in rng.choice(n, size=hw, replace=False)
                )
                _check_engine_against_oracle(engine, graph_dense, active)

    def test_boundary_heavy_graphs(self):
        """All detectors have boundary edges; odd syndromes everywhere."""
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            dem = _random_dem(rng, n, boundary_all=True)
            graph_dense = DecodingGraph.from_dem(dem, all_pairs=True)
            engine = SparseBlossomEngine(
                DecodingGraph.from_dem(dem, all_pairs=False)
            )
            for hw in (1, 3, min(5, n)):
                active = sorted(
                    int(i) for i in rng.choice(n, size=hw, replace=False)
                )
                _check_engine_against_oracle(engine, graph_dense, active)

    def test_unsolvable_graph_refused_and_counted(self):
        """No boundary edge anywhere: radii are infinite, engine refuses."""
        mechanisms = [
            FaultMechanism(probability=0.01, detectors=(i, i + 1), observables=())
            for i in range(3)
        ]
        dem = DetectorErrorModel(
            num_detectors=4, num_observables=1, mechanisms=mechanisms
        )
        engine = SparseBlossomEngine(DecodingGraph.from_dem(dem, all_pairs=False))
        with pytest.raises(SparseEngineError, match="no boundary path"):
            engine.solve([0, 1, 2])
        assert engine.stats.fallback_events["unsolvable"] == 1

    def test_out_of_range_detector_refused(self):
        rng = np.random.default_rng(3)
        dem = _random_dem(rng, 5)
        engine = SparseBlossomEngine(DecodingGraph.from_dem(dem, all_pairs=False))
        with pytest.raises(SparseEngineError, match="outside"):
            engine.solve([0, 17])
        assert engine.stats.fallback_events["unsolvable"] == 1


# ----------------------------------------------------------------------
# Real surface-code graphs vs the dense blossom reference
# ----------------------------------------------------------------------


class TestRealGraphs:
    @pytest.mark.parametrize("distance,p", [(3, 1e-3), (3, 1e-2), (5, 1e-3)])
    def test_matches_dense_decoder(self, distance, p):
        setup = DecodingSetup.build(distance, p)
        engine = SparseBlossomEngine(
            DecodingGraph.from_dem(setup.dem, all_pairs=False)
        )
        dense = MWPMDecoder(setup.ideal_gwt, measure_time=False, use_sparse=False)
        n = setup.dem.num_detectors
        rng = np.random.default_rng(1000 * distance + int(p * 1e4))
        for _ in range(150):
            hw = int(rng.integers(0, 13))
            active = sorted(
                int(i) for i in rng.choice(n, size=hw, replace=False)
            )
            pairs, weight, prediction = engine.solve(list(active))
            d = dense.decode_active(list(active))
            assert weight == pytest.approx(d.weight, abs=1e-6), active
            assert prediction == d.prediction, active
            _assert_valid_matching(pairs, active)

    def test_unsafe_pair_syndrome_solved_exactly_in_graph(self):
        """The quantization artifact the table engine must refuse.

        A coarse-lsb quantized table at d = 3 contains unsafe pairs
        (``W[a, b] > W[a, a] + W[b, b]``).  The table engine routes such
        syndromes whole to the graph engine, whose growth re-derives true
        float weights -- the result must equal the dense solve on the
        *ideal* table, proving the route is exact rather than degraded.
        """
        setup = DecodingSetup.build(3, 1e-3)
        coarse = GlobalWeightTable.from_graph(setup.graph, lsb=2.0)
        engine = SparseMatchingEngine(
            coarse,
            graph_engine=SparseBlossomEngine(
                DecodingGraph.from_dem(setup.dem, all_pairs=False)
            ),
        )
        unsafe = np.argwhere(engine.structure.unsafe)
        if unsafe.size == 0:
            pytest.skip("no unsafe pairs at this quantization")
        ideal = MWPMDecoder(
            setup.ideal_gwt, measure_time=False, use_sparse=False
        )
        routed = 0
        for a, b in unsafe[:20]:
            active = sorted({int(a), int(b)})
            pairs, weight, prediction = engine.solve(list(active))
            d = ideal.decode_active(list(active))
            assert weight == pytest.approx(d.weight, abs=1e-6)
            assert prediction == d.prediction
            _assert_valid_matching(pairs, active)
            routed += 1
        assert engine.stats.fallback_events["unsafe_pair"] == routed
        assert engine.graph_engine.stats.syndromes == routed


# ----------------------------------------------------------------------
# Entry-point consistency
# ----------------------------------------------------------------------


class TestEntryPoints:
    def _engine_and_cases(self, seed, count=40):
        setup = DecodingSetup.build(3, 1e-3)
        engine = SparseBlossomEngine(
            DecodingGraph.from_dem(setup.dem, all_pairs=False)
        )
        n = setup.dem.num_detectors
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(count):
            hw = int(rng.integers(0, 11))
            cases.append(
                np.sort(rng.choice(n, size=hw, replace=False)).astype(np.intp)
            )
        return engine, cases, n

    def test_solve_batch_equals_scalar_solve(self):
        engine, cases, n = self._engine_and_cases(9, count=30)
        syndromes = np.zeros((len(cases), n), dtype=bool)
        for row, active in enumerate(cases):
            syndromes[row, active] = True
        batch = engine.solve_batch(syndromes)
        engine.clear_cache()
        scalar = [engine.solve(c) for c in cases]
        assert batch == scalar

    def test_memoization_reuses_cluster_solutions(self):
        engine, cases, _ = self._engine_and_cases(13)
        for c in cases:
            engine.solve(c)
        misses_after_first = engine.stats.cache_misses
        for c in cases:
            engine.solve(c)
        assert engine.stats.cache_misses == misses_after_first
        assert engine.stats.cache_hits > 0
