"""Reproduction of *Astrea: Accurate Quantum Error-Decoding via Practical
Minimum-Weight Perfect-Matching* (Vittal, Das, Qureshi -- ISCA 2023).

The package is organised bottom-up:

* :mod:`repro.circuits` -- stabilizer-circuit IR, the paper's circuit-level
  noise model and memory-experiment generator;
* :mod:`repro.codes` -- rotated surface code layouts;
* :mod:`repro.sim` -- Pauli-frame Monte-Carlo sampler, CHP tableau
  reference simulator and detector-error-model extraction (Stim stand-in);
* :mod:`repro.graphs` -- decoding graph and the Global Weight Table;
* :mod:`repro.matching` -- blossom (BlossomV stand-in), exhaustive and DP
  matchers, boundary folding;
* :mod:`repro.decoders` -- MWPM, **Astrea**, **Astrea-G**, Union-Find
  (AFS), Clique and LILLIPUT;
* :mod:`repro.pipeline` -- staged lazy construction of the decoding
  stack, a bounded stage cache and the content-addressed artifact store;
* :mod:`repro.experiments` -- memory-experiment harness, Hamming census,
  stratified LER estimation;
* :mod:`repro.analysis` / :mod:`repro.hw` -- analytical and hardware
  (latency, SRAM, bandwidth) models.

Quickstart::

    from repro import DecodingSetup, make_decoder, run_memory_experiment

    setup = DecodingSetup.build(distance=5, physical_error_rate=1e-3)
    decoder = make_decoder("astrea", setup)
    result = run_memory_experiment(setup.experiment, decoder, shots=10_000)
    print(result.logical_error_rate)
"""

from .analysis.render import render_lattice, render_series, render_syndrome_layer
from .backend import (
    ArrayBackend,
    available_backends,
    backend_info,
    from_device,
    get_backend,
    get_namespace,
    set_backend,
    to_device,
    use_backend,
)
from .analysis.scaling import ScalingFit, fit_error_scaling, suppression_factors
from .analysis.threshold import ThresholdEstimate, estimate_crossing, log_spaced
from .circuits.circuit import Circuit, Instruction
from .circuits.memory import MemoryExperiment, build_memory_circuit
from .circuits.noise import NoiseParams
from .circuits.stim_io import from_stim, to_stim
from .codes.repetition import RepetitionCode, build_repetition_memory_circuit
from .codes.rotated import RotatedSurfaceCode, Stabilizer
from .decoders.astrea import AstreaDecoder, HW6Decoder, exhaustive_search
from .decoders.astrea_g import AstreaGDecoder, PipelineSnapshot, weight_threshold_for
from .decoders.base import BOUNDARY, DecodeBatch, DecodeResult, Decoder
from .decoders.clique import CliqueDecoder
from .decoders.correction import PhysicalCorrection, matching_to_correction
from .decoders.lilliput import LilliputDecoder, lut_size_bytes
from .decoders.mwpm import MWPMDecoder
from .decoders.registry import (
    DecoderSpec,
    decoder_names,
    get_decoder_spec,
    make_decoder,
    register_decoder,
)
from .decoders.single_round import SingleRoundDecoder
from .decoders.union_find import UnionFindDecoder
from .decoders.verify import VerificationReport, verify_decode_result
from .decoders.windowed import SlidingWindowDecoder
from .experiments.hamming import HammingCensus, hamming_weight_census
from .experiments.importance import StratifiedEstimate, estimate_ler_stratified
from .experiments.memory import MemoryRunResult, run_memory_experiment
from .experiments.setup import DecodingSetup
from .experiments.stats import wilson_interval
from .experiments.sweep import SweepPoint, ler_vs_distance, ler_vs_physical_error
from .graphs.decoding_graph import DecodingGraph, GraphEdge, NeighborStructure
from .graphs.weights import GlobalWeightTable
from .matching.sparse import SparseMatchingEngine, SparseStats
from .hw.bandwidth import BandwidthModel
from .hw.compression import (
    CompressionReport,
    RunLengthCompressor,
    SparseIndexCompressor,
    compression_census,
)
from .hw.latency import FpgaTiming, astrea_total_cycles
from .hw.sram import AstreaGStorageModel
from .experiments.accuracy import PairedComparison, compare_decoders
from .experiments.io import load_sweep, save_sweep
from .experiments.parallel import run_memory_experiment_parallel
from .experiments.report import HeadlineReport, run_headline_report
from .pipeline import (
    ArtifactStore,
    DecoderHandle,
    DecodingPipeline,
    PipelineConfig,
    StageCache,
    experiment_fingerprint,
)
from .sim.dem import DetectorErrorModel, FaultMechanism, build_detector_error_model
from .sim.pauli_frame import PauliFrameSimulator, SampleResult
from .sim.reference import ReferenceSampler
from .sim.tableau import TableauSimulator, run_tableau_shot

__version__ = "1.0.0"

__all__ = [
    "ArrayBackend",
    "ArtifactStore",
    "AstreaDecoder",
    "AstreaGDecoder",
    "AstreaGStorageModel",
    "BandwidthModel",
    "BOUNDARY",
    "Circuit",
    "CliqueDecoder",
    "CompressionReport",
    "DecodeBatch",
    "DecodeResult",
    "Decoder",
    "DecoderHandle",
    "DecoderSpec",
    "DecodingGraph",
    "DecodingPipeline",
    "DecodingSetup",
    "DetectorErrorModel",
    "FaultMechanism",
    "FpgaTiming",
    "GlobalWeightTable",
    "GraphEdge",
    "HammingCensus",
    "HeadlineReport",
    "HW6Decoder",
    "Instruction",
    "LilliputDecoder",
    "MemoryExperiment",
    "MemoryRunResult",
    "MWPMDecoder",
    "NeighborStructure",
    "NoiseParams",
    "PairedComparison",
    "PauliFrameSimulator",
    "PhysicalCorrection",
    "PipelineConfig",
    "PipelineSnapshot",
    "ReferenceSampler",
    "RepetitionCode",
    "RotatedSurfaceCode",
    "RunLengthCompressor",
    "SampleResult",
    "ScalingFit",
    "SingleRoundDecoder",
    "SlidingWindowDecoder",
    "SparseIndexCompressor",
    "SparseMatchingEngine",
    "SparseStats",
    "StageCache",
    "Stabilizer",
    "StratifiedEstimate",
    "SweepPoint",
    "TableauSimulator",
    "ThresholdEstimate",
    "UnionFindDecoder",
    "VerificationReport",
    "astrea_total_cycles",
    "available_backends",
    "backend_info",
    "build_detector_error_model",
    "build_memory_circuit",
    "build_repetition_memory_circuit",
    "compare_decoders",
    "compression_census",
    "decoder_names",
    "estimate_crossing",
    "estimate_ler_stratified",
    "exhaustive_search",
    "experiment_fingerprint",
    "fit_error_scaling",
    "from_device",
    "from_stim",
    "get_backend",
    "get_decoder_spec",
    "get_namespace",
    "hamming_weight_census",
    "ler_vs_distance",
    "ler_vs_physical_error",
    "load_sweep",
    "log_spaced",
    "lut_size_bytes",
    "make_decoder",
    "matching_to_correction",
    "register_decoder",
    "render_lattice",
    "render_series",
    "render_syndrome_layer",
    "run_headline_report",
    "run_memory_experiment",
    "run_memory_experiment_parallel",
    "run_tableau_shot",
    "save_sweep",
    "set_backend",
    "suppression_factors",
    "to_device",
    "to_stim",
    "use_backend",
    "verify_decode_result",
    "wilson_interval",
    "weight_threshold_for",
]
