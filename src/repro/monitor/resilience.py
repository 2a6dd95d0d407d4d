"""Consumer-side resilience for the monitor service.

The fault layer (:mod:`repro.faults`) makes the IM feed fail the way real
BMC channels do; this module is the other half: the policies the service
applies so monitoring *degrades* instead of erroring. Three mechanisms:

* **retry with backoff** — transient read failures
  (:class:`~repro.errors.TransientSensorError`) are retried a bounded
  number of times with exponential backoff (the backoff is recorded, and
  only actually slept when the policy carries a ``sleep`` callable — tests
  and simulations pass none);
* **plausibility gating** — IM readings outside the Algorithm-1 physical
  power clamps ``[p_bottom, p_upper]`` (± a margin) are measurement
  glitches, not power; they are dropped before restoration ever sees them;
* **graceful degradation** — when no usable reading survives (outage,
  short run, everything gated) the service falls back to model-only
  restoration and flags every sample's provenance accordingly.

:class:`NodeHealth` is the per-node record of all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import TransientSensorError, ValidationError
from ..sensors.base import SparseReadings

#: Node health states (most recent observed run wins).
HEALTHY = "healthy"
DEGRADED = "degraded"
OUTAGE = "outage"


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the service responds to a misbehaving IM feed.

    Parameters
    ----------
    max_retries:
        Extra ``sample()`` attempts after a transient failure.
    backoff_base_s:
        First retry delay; doubles per attempt (recorded in the node
        health; slept only when ``sleep`` is provided).
    gate_readings:
        Drop readings outside the physical power clamps before restoring.
    gate_margin_fraction:
        Fractional widening of ``[p_bottom, p_upper]`` before a reading is
        declared implausible. The clamps are Algorithm-1 operating bounds,
        not hard physical rails — bursty workloads overshoot ``p_upper``
        by up to ~20 % on the synthetic platforms, and sensor noise and
        quantisation add more — so the default margin is generous; it
        still rejects the hundreds-of-watts glitches gating exists for.
    degrade_to_model_only:
        When no usable readings remain — outage, short bundle, everything
        gated — restore model-only instead of raising.
    min_readings_static / min_readings_dynamic:
        Fewest plausible readings each restoration mode needs; below the
        floor the run degrades (StaticTRR's spline needs four knots).
    sleep:
        Optional callable taking the backoff seconds; ``None`` keeps
        retries instantaneous (simulation/tests).
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    gate_readings: bool = True
    gate_margin_fraction: float = 0.25
    degrade_to_model_only: bool = True
    min_readings_static: int = 4
    min_readings_dynamic: int = 1
    sleep: "Callable[[float], None] | None" = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValidationError("backoff_base_s must be >= 0")
        if self.gate_margin_fraction < 0:
            raise ValidationError("gate_margin_fraction must be >= 0")
        if self.min_readings_static < 4:
            raise ValidationError("min_readings_static must be >= 4 (spline knots)")
        if self.min_readings_dynamic < 1:
            raise ValidationError("min_readings_dynamic must be >= 1")

    def min_readings(self, online: bool) -> int:
        return self.min_readings_dynamic if online else self.min_readings_static


@dataclass
class NodeHealth:
    """Per-node feed-health bookkeeping, updated on every observed run."""

    node_id: str
    status: str = HEALTHY
    runs: int = 0
    consecutive_failures: int = 0
    transient_failures: int = 0
    retries: int = 0
    backoff_total_s: float = 0.0
    gated_readings: int = 0
    outages: int = 0
    model_only_runs: int = 0
    degraded_runs: int = 0
    last_error: "str | None" = None

    def record_healthy_run(self) -> None:
        self.runs += 1
        self.consecutive_failures = 0
        self.status = HEALTHY

    def record_degraded_run(self, reason: str) -> None:
        self.runs += 1
        self.degraded_runs += 1
        self.consecutive_failures = 0
        self.status = DEGRADED
        self.last_error = reason

    def record_outage_run(self, reason: str) -> None:
        self.runs += 1
        self.outages += 1
        self.model_only_runs += 1
        self.consecutive_failures += 1
        self.status = OUTAGE
        self.last_error = reason

    def record_transient(self, error: Exception, backoff_s: float) -> None:
        self.transient_failures += 1
        self.retries += 1
        self.backoff_total_s += float(backoff_s)
        self.last_error = str(error)


def sample_with_retry(
    sensor,
    bundle,
    policy: ResiliencePolicy,
    health: NodeHealth,
) -> SparseReadings:
    """``sensor.sample`` with bounded exponential-backoff retry.

    Transient failures are retried ``policy.max_retries`` times; the final
    failure (or any non-transient :class:`~repro.errors.SensorError`)
    propagates to the caller's degradation path.
    """
    attempt = 0
    while True:
        try:
            return sensor.sample(bundle)
        except TransientSensorError as exc:
            if attempt >= policy.max_retries:
                raise
            backoff = policy.backoff_base_s * (2.0 ** attempt)
            health.record_transient(exc, backoff)
            if policy.sleep is not None:
                policy.sleep(backoff)
            attempt += 1


def gate_readings(
    readings: SparseReadings,
    p_bottom: float,
    p_upper: float,
    margin_fraction: float,
) -> tuple["SparseReadings | None", int]:
    """Drop implausible readings; returns ``(gated_stream, n_dropped)``.

    The plausibility band is the Algorithm-1 physical clamp range widened
    by ``margin_fraction`` of its span. A stream whose every reading is
    implausible returns ``None`` — for the consumer that is an outage.
    """
    span = float(p_upper) - float(p_bottom)
    if span <= 0:
        raise ValidationError(f"invalid power clamps: [{p_bottom}, {p_upper}]")
    lo = float(p_bottom) - margin_fraction * span
    hi = float(p_upper) + margin_fraction * span
    ok = (readings.values >= lo) & (readings.values <= hi)
    dropped = int((~ok).sum())
    if dropped == 0:
        return readings, 0
    if not ok.any():
        return None, dropped
    return (
        SparseReadings(
            indices=readings.indices[ok],
            values=readings.values[ok],
            interval_s=readings.interval_s,
            n_dense=readings.n_dense,
        ),
        dropped,
    )
