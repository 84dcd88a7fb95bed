"""Cross-module edge-case tests.

Deliberately adversarial inputs: saturated weight tables, degenerate
syndromes, boundary-routed pairs, minimal codes, and configuration
extremes that the happy-path tests do not reach.
"""

import warnings

import numpy as np
import pytest

from repro import (
    AstreaDecoder,
    AstreaGDecoder,
    BOUNDARY,
    CliqueDecoder,
    DecodingSetup,
    GlobalWeightTable,
    MWPMDecoder,
    NoiseParams,
    UnionFindDecoder,
    build_memory_circuit,
    matching_to_correction,
)
from repro.decoders.base import DecoderFallbackWarning
from repro.decoders.verify import verify_decode_result
from repro.matching.boundary import MatchingProblem
from repro.matching.brute_force import count_perfect_matchings_in_graph


class TestSaturatedQuantization:
    def test_coarse_lsb_saturates_far_pairs(self, setup_d5):
        gwt = GlobalWeightTable.from_graph(setup_d5.graph, lsb=0.01)
        # LSB 0.01 caps at 2.55 -- below most pair weights.
        assert gwt.max_representable_weight() == pytest.approx(2.55)
        saturated = (gwt.weights >= 2.55 - 1e-9).mean()
        assert saturated > 0.5

    def test_decoding_still_valid_under_saturation(self, setup_d5, sample_d5):
        gwt = GlobalWeightTable.from_graph(setup_d5.graph, lsb=0.05)
        decoder = MWPMDecoder(gwt, measure_time=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DecoderFallbackWarning)
            for det in sample_d5.detectors[:100]:
                active = [int(i) for i in np.nonzero(det)[0]]
                result = decoder.decode_active(active)
                assert verify_decode_result(result, active, gwt=gwt).valid
        # Saturation creates unsafe pairs; each degraded row warns once.
        assert decoder.fallback_events > 0
        assert [w.category for w in caught] == (
            [DecoderFallbackWarning] * decoder.fallback_events
        )


class TestDegenerateSyndromes:
    def test_all_detectors_active(self, setup_d3):
        """A fully lit syndrome is legal input for every decoder."""
        active = list(range(16))
        decoders = [
            MWPMDecoder(setup_d3.ideal_gwt, measure_time=False),
            AstreaGDecoder(setup_d3.ideal_gwt),
            UnionFindDecoder(setup_d3.graph),
            CliqueDecoder(setup_d3.graph, setup_d3.ideal_gwt),
        ]
        for decoder in decoders:
            result = decoder.decode_active(active)
            assert isinstance(result.prediction, bool)

    def test_astrea_declines_fully_lit_syndrome(self, setup_d3):
        result = AstreaDecoder(setup_d3.ideal_gwt).decode_active(list(range(16)))
        assert not result.decoded

    def test_single_defect_every_position(self, setup_d3):
        mwpm = MWPMDecoder(setup_d3.ideal_gwt, measure_time=False)
        astrea = AstreaDecoder(setup_d3.ideal_gwt)
        for detector in range(16):
            m = mwpm.decode_active([detector])
            a = astrea.decode_active([detector])
            assert m.matching == [(detector, BOUNDARY)]
            assert a.prediction == m.prediction

    def test_unsorted_active_input(self, setup_d3):
        mwpm = MWPMDecoder(setup_d3.ideal_gwt, measure_time=False)
        assert (
            mwpm.decode_active([9, 2, 5]).weight
            == pytest.approx(mwpm.decode_active([2, 5, 9]).weight)
        )


class TestBoundaryRoutedPairs:
    def test_correction_of_boundary_routed_pair(self, setup_d3):
        """A pair whose weight equals both boundary weights routes through
        the boundary; its physical correction must still annihilate it."""
        g = setup_d3.graph
        W = g.pair_weights
        found = None
        for i in range(g.num_detectors):
            for j in range(i + 1, g.num_detectors):
                if abs(W[i, j] - (W[i, i] + W[j, j])) < 1e-9:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            pytest.skip("no boundary-routed pair at this configuration")
        correction = matching_to_correction(g, [found])
        assert correction.defect_set() == sorted(found)


class TestMinimalCode:
    def test_one_round_distance_three(self):
        """The smallest meaningful experiment: d = 3, 1 round."""
        setup = DecodingSetup.build(3, 2e-3, rounds=1)
        assert setup.experiment.num_detectors == 8
        decoder = MWPMDecoder(setup.ideal_gwt, measure_time=False)
        from repro import run_memory_experiment

        result = run_memory_experiment(setup.experiment, decoder, 3000, seed=1)
        assert 0 <= result.logical_error_rate < 0.2

    def test_x_basis_one_round(self):
        setup = DecodingSetup.build(3, 2e-3, rounds=1, basis="x")
        assert setup.experiment.num_detectors == 8


class TestAstreaGConfigurationExtremes:
    def test_min_candidates_one(self, setup_d5, sample_d5):
        decoder = AstreaGDecoder(
            setup_d5.ideal_gwt, weight_threshold=0.1, min_candidates=1,
            exhaustive_cutoff=6,
        )
        for det in sample_d5.detectors[:100]:
            active = [int(i) for i in np.nonzero(det)[0]]
            result = decoder.decode_active(active)
            assert verify_decode_result(result, active).valid

    def test_huge_fetch_width_is_exhaustive_like(self, setup_d5, sample_d5):
        wide = AstreaGDecoder(
            setup_d5.ideal_gwt,
            weight_threshold=100.0,
            fetch_width=16,
            queue_capacity=64,
            exhaustive_cutoff=6,
        )
        mwpm = MWPMDecoder(setup_d5.ideal_gwt, measure_time=False)
        misses = 0
        total = 0
        for det in sample_d5.detectors:
            active = [int(i) for i in np.nonzero(det)[0]]
            if len(active) <= 6:
                continue
            if total >= 30:  # bound runtime; heavy syndromes are rare
                break
            total += 1
            misses += int(
                abs(
                    wide.decode_active(active).weight
                    - mwpm.decode_active(active).weight
                )
                > 1e-9
            )
        assert total > 5
        assert misses / total < 0.05

    def test_threshold_zero_still_completes(self, setup_d5):
        decoder = AstreaGDecoder(
            setup_d5.ideal_gwt, weight_threshold=0.0, exhaustive_cutoff=6
        )
        rng = np.random.default_rng(0)
        active = sorted(int(x) for x in rng.choice(72, size=10, replace=False))
        result = decoder.decode_active(active)
        assert verify_decode_result(result, active).valid


class TestMatchingCountGraph:
    def test_complete_graph_matches_formula(self):
        from repro.matching.brute_force import count_perfect_matchings

        for n in (2, 4, 6, 8):
            adj = np.ones((n, n), dtype=bool)
            np.fill_diagonal(adj, False)
            assert count_perfect_matchings_in_graph(adj) == count_perfect_matchings(n)

    def test_disconnected_graph_has_no_matchings(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True  # vertices 2,3 isolated
        assert count_perfect_matchings_in_graph(adj) == 0

    def test_cycle_graph(self):
        # A 6-cycle has exactly 2 perfect matchings.
        adj = np.zeros((6, 6), dtype=bool)
        for i in range(6):
            adj[i, (i + 1) % 6] = adj[(i + 1) % 6, i] = True
        assert count_perfect_matchings_in_graph(adj) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            count_perfect_matchings_in_graph(np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            count_perfect_matchings_in_graph(np.zeros((22, 22), dtype=bool))


class TestNoiseModelCorners:
    def test_probability_one_everywhere_runs(self):
        mem = build_memory_circuit(3, NoiseParams.uniform(1.0), rounds=1)
        from repro import PauliFrameSimulator

        res = PauliFrameSimulator(mem.circuit, seed=0).sample(32)
        # Maximal noise: detectors fire at ~50%.
        assert 0.2 < res.detectors.mean() < 0.8

    def test_partial_noise_params(self):
        noise = NoiseParams(measurement_flip=0.01)
        mem = build_memory_circuit(3, noise)
        names = {i.name for i in mem.circuit.noise_channels()}
        assert names == set()  # measurement flips ride on MR/M args
        from repro import PauliFrameSimulator

        res = PauliFrameSimulator(mem.circuit, seed=1).sample(4000)
        assert res.detectors.any()

    def test_matching_problem_on_weightless_pairs(self, setup_d3):
        """Zero-weight entries (saturated-down) stay decodable."""
        gwt = GlobalWeightTable(
            weights=np.zeros_like(setup_d3.ideal_gwt.weights),
            parities=setup_d3.ideal_gwt.parities.copy(),
            lsb=None,
        )
        problem = MatchingProblem.from_syndrome(gwt, [0, 3, 7])
        assert problem.num_nodes == 4
        decoder = MWPMDecoder(gwt, measure_time=False)
        result = decoder.decode_active([0, 3, 7])
        assert verify_decode_result(result, [0, 3, 7]).valid
