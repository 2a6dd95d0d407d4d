"""Configuration for the HighRPM framework."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError


@dataclass(frozen=True)
class HighRPMConfig:
    """All tunables in one place.

    Parameters
    ----------
    miss_interval:
        Seconds between integrated-measurement readings (the paper's
        ``miss_interval``; 10 ⇒ restoring 0.1 Sa/s to 1 Sa/s is a 10×
        temporal-resolution gain).
    alpha / beta:
        Algorithm-1 agreement thresholds. When spline and ResModel disagree
        by less than ``alpha``·min(·) the spline wins; between ``alpha`` and
        ``beta`` they are averaged; beyond ``beta`` the ResModel is
        distrusted and the spline wins again.
    spike_fraction:
        Operation-1 threshold: a predicted short-term mutation larger than
        this fraction of the physical power range is treated as a sustained
        phase change and spread over the surrounding half-window.
    p_upper / p_bottom:
        Physical node-power limits used for clamping; when None they are
        taken from the platform spec at fit time.
    lstm_hidden / lstm_layers / lstm_iters:
        DynamicTRR network structure (paper §6.4.3 found 2 layers optimal)
        and offline training budget.
    srr_hidden / srr_iters:
        SRR MLP structure (one hidden layer) and training budget.
    finetune_steps:
        Online fine-tuning budget when a real IM reading arrives
        (the paper reports < 2 s; tens of Adam steps on one window).
    reinforcement_fraction / active_rounds:
        Active-learning stage: fraction of the combined (initial ∪ restored)
        sample set drawn as reinforcement samples, and number of rounds.
    resync_gap_factor:
        A reading arriving more than ``resync_gap_factor · miss_interval``
        seconds after the previous one means the IM feed was down and has
        recovered; the online session re-syncs with a boosted fine-tune.
        The same threshold classifies samples as model-only in the
        per-sample provenance flags.
    seed:
        Root seed for all stochastic pieces.
    """

    miss_interval: int = 10
    alpha: float = 0.05
    beta: float = 0.25
    spike_fraction: float = 0.30
    p_upper: "float | None" = None
    p_bottom: "float | None" = None
    residual_signed: bool = True
    lstm_hidden: int = 16
    lstm_layers: int = 2
    lstm_iters: int = 500
    srr_hidden: int = 32
    srr_iters: int = 4000
    finetune_steps: int = 10
    reinforcement_fraction: float = 0.3
    active_rounds: int = 2
    resync_gap_factor: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.miss_interval < 2:
            raise ValidationError("miss_interval must be >= 2")
        if not 0.0 < self.alpha < self.beta:
            raise ValidationError("need 0 < alpha < beta")
        if not 0.0 < self.spike_fraction <= 1.0:
            raise ValidationError("spike_fraction must lie in (0, 1]")
        if self.p_upper is not None and self.p_bottom is not None:
            if self.p_upper <= self.p_bottom:
                raise ValidationError("p_upper must exceed p_bottom")
        for name in ("lstm_hidden", "lstm_layers", "lstm_iters", "srr_hidden",
                     "srr_iters", "finetune_steps", "active_rounds"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if not 0.0 < self.reinforcement_fraction <= 1.0:
            raise ValidationError("reinforcement_fraction must lie in (0, 1]")
        if self.resync_gap_factor < 1.0:
            raise ValidationError("resync_gap_factor must be >= 1")
