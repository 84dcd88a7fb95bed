"""The decoder zoo (see docs/decoders.md for the selection guide)."""

from .astrea import AstreaDecoder, HW6Decoder, exhaustive_search
from .astrea_g import AstreaGDecoder, PipelineSnapshot, weight_threshold_for
from .base import BOUNDARY, DecodeBatch, DecodeResult, Decoder
from .cascade import (
    Cascade,
    CascadeDecoder,
    CascadeStats,
    CascadeTier,
    ClosedFormTier,
    DecoderTier,
    EscalationPolicy,
    PredecodeTier,
    RoutingTable,
    TierLadder,
    TierOutcome,
    TierStats,
    TrivialTier,
    cascade_tune,
    load_or_tune_routing_table,
)
from .clique import CliqueDecoder
from .correction import (
    PhysicalCorrection,
    matching_to_correction,
    primitive_edge_parities,
)
from .lilliput import LilliputDecoder, lut_size_bytes
from .mwpm import MWPMDecoder
from .single_round import SingleRoundDecoder
from .union_find import UnionFindDecoder
from .verify import VerificationReport, verify_decode_result
from .windowed import SlidingWindowDecoder

__all__ = [
    "AstreaDecoder",
    "AstreaGDecoder",
    "BOUNDARY",
    "Cascade",
    "CascadeDecoder",
    "CascadeStats",
    "CascadeTier",
    "CliqueDecoder",
    "ClosedFormTier",
    "DecodeBatch",
    "DecodeResult",
    "Decoder",
    "DecoderTier",
    "EscalationPolicy",
    "HW6Decoder",
    "LilliputDecoder",
    "MWPMDecoder",
    "PhysicalCorrection",
    "PipelineSnapshot",
    "PredecodeTier",
    "RoutingTable",
    "SingleRoundDecoder",
    "SlidingWindowDecoder",
    "TierLadder",
    "TierOutcome",
    "TierStats",
    "TrivialTier",
    "UnionFindDecoder",
    "VerificationReport",
    "cascade_tune",
    "exhaustive_search",
    "load_or_tune_routing_table",
    "lut_size_bytes",
    "matching_to_correction",
    "primitive_edge_parities",
    "verify_decode_result",
    "weight_threshold_for",
]
