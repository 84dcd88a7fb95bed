"""Paired decoder comparison on shared samples.

Comparing two decoders by their independent LER estimates wastes
statistical power: most shots are decoded identically, and the independent
Monte-Carlo noise of two runs swamps a small accuracy gap.  The right tool
is a *paired* comparison on one shared sample -- count the shots where
decoder A errs and B does not, and vice versa (the discordant pairs of
McNemar's test).  The decoders' LER difference is exactly the difference
of those two counts over the trials, and its significance follows from the
discordant counts alone.

This is how the repository's claims of the form "Astrea-G is within x of
MWPM" should be sharpened when the gap is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.memory import MemoryExperiment
from ..decoders.base import DecodeBatch, Decoder
from ..sim.packing import unique_rows
from ..sim.pauli_frame import PauliFrameSimulator

__all__ = ["PairedComparison", "compare_decoders"]


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired accuracy comparison.

    Attributes:
        name_a: First decoder's name.
        name_b: Second decoder's name.
        shots: Shared Monte-Carlo trials.
        errors_a: Logical errors of decoder A.
        errors_b: Logical errors of decoder B.
        only_a: Shots where only A erred (discordant pairs favouring B).
        only_b: Shots where only B erred (discordant pairs favouring A).
        both: Shots where both erred.
    """

    name_a: str
    name_b: str
    shots: int
    errors_a: int
    errors_b: int
    only_a: int
    only_b: int
    both: int

    @property
    def ler_difference(self) -> float:
        """``LER(A) - LER(B)`` (positive when A is worse)."""
        return (self.errors_a - self.errors_b) / self.shots

    @property
    def discordant(self) -> int:
        """Total discordant pairs (the informative shots)."""
        return self.only_a + self.only_b

    def mcnemar_statistic(self) -> float:
        """McNemar's chi-squared statistic (without continuity correction).

        Under the null hypothesis (equal accuracy), the discordant pairs
        split 50/50; values above ~3.84 reject equality at the 5% level.
        """
        if self.discordant == 0:
            return 0.0
        return (self.only_a - self.only_b) ** 2 / self.discordant

    def significant(self, threshold: float = 3.841) -> bool:
        """Whether the accuracy difference is significant at ~5%."""
        return self.mcnemar_statistic() > threshold

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        verdict = (
            f"{self.name_a} worse"
            if self.errors_a > self.errors_b
            else f"{self.name_b} worse"
            if self.errors_b > self.errors_a
            else "tied"
        )
        sig = "significant" if self.significant() else "not significant"
        return (
            f"{self.name_a} {self.errors_a} vs {self.name_b} {self.errors_b} "
            f"errors over {self.shots} shared shots "
            f"(discordant {self.only_a}/{self.only_b}; {verdict}, {sig}, "
            f"chi2={self.mcnemar_statistic():.2f})"
        )


def compare_decoders(
    experiment: MemoryExperiment,
    decoder_a: Decoder | str,
    decoder_b: Decoder | str,
    shots: int,
    *,
    seed: int | None = None,
    setup=None,
) -> PairedComparison:
    """Run a paired accuracy comparison on one shared sample.

    Args:
        experiment: Memory experiment supplying the workload.
        decoder_a: First decoder, or a registry decoder name.
        decoder_b: Second decoder, or a registry decoder name.
        shots: Monte-Carlo trials (each decoded by both decoders).
        seed: Sampler seed.
        setup: The :class:`~repro.experiments.setup.DecodingSetup` to
            build named decoders against.  Required when a decoder is
            given by name; must match ``experiment``.

    Returns:
        The :class:`PairedComparison`.
    """
    if isinstance(decoder_a, str) or isinstance(decoder_b, str):
        if setup is None:
            raise ValueError(
                "compare_decoders needs setup= to resolve decoder names"
            )
        from ..decoders.registry import make_decoder

        if isinstance(decoder_a, str):
            decoder_a = make_decoder(decoder_a, setup)
        if isinstance(decoder_b, str):
            decoder_b = make_decoder(decoder_b, setup)
    sample = PauliFrameSimulator(experiment.circuit, seed=seed).sample(shots)
    observed = sample.observables[:, 0]
    unique, inverse, _ = unique_rows(sample.detectors)
    pred_a = DecodeBatch.from_results(decoder_a.decode_batch(unique)).predictions
    pred_b = DecodeBatch.from_results(decoder_b.decode_batch(unique)).predictions
    err_a = pred_a[inverse] != observed
    err_b = pred_b[inverse] != observed
    return PairedComparison(
        name_a=decoder_a.name,
        name_b=decoder_b.name,
        shots=shots,
        errors_a=int(err_a.sum()),
        errors_b=int(err_b.sum()),
        only_a=int((err_a & ~err_b).sum()),
        only_b=int((err_b & ~err_a).sum()),
        both=int((err_a & err_b).sum()),
    )
