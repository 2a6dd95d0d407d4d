"""The observation pipeline: ingest → calibrate → gate → restore →
attribute → sink.

One observed run, decomposed into reusable :class:`~repro.stream.Stage`
objects. Stages are stateless; everything mutable for one observed run
lives on the :class:`ObservationContext`, so the same stage instances
serve many interleaved runs. The run driver,
:class:`~repro.monitor.fleet.FleetMonitor`, drives one context per node
through the shared stages.

Degradation policy is centralised in
:meth:`ObservationContext.fail_or_degrade`: any stage that finds the IM
feed unusable either raises (strict policies) or flags the whole run for
model-only restoration.
"""

from __future__ import annotations

import numpy as np

from ..core.highrpm import PROV_MODEL_ONLY, provenance_from_readings
from ..errors import SensorError, ValidationError
from ..sensors.base import SparseReadings
from ..stream import PowerChunk, RunContext, Stage, StreamPipeline, chunk_spans
from .profile import apply_attribution
from .resilience import gate_readings, sample_with_retry
from .scheduler import thin_readings


class ObservationContext(RunContext):
    """Per-run state for one node's observation through the pipeline."""

    def __init__(self, service, node_id: str, bundle, online: bool,
                 chunk_size: "int | None" = None) -> None:
        super().__init__(node_id, bundle.workload, len(bundle))
        self.service = service
        self.bundle = bundle
        self.online = bool(online)
        self.chunk_size = chunk_size
        self.sensor = service.sensor(node_id)
        self.health = service.health(node_id)
        self.policy = service.policy
        #: the node's device class resolves which restoration model,
        #: attribution head, and plausibility clamps serve this run.
        self.device_class = service.device_class_of(node_id)
        self.model = self.device_class.model
        self.head = self.device_class.head
        self.clamps = self.device_class.clamps
        #: compensation registered for this node (None = uncalibrated);
        #: consumed by CalibrateStage.open_run before the gate sees the feed.
        self.transform = service.calibration_for(node_id)
        #: set once CalibrateStage actually rewrote the readings.
        self.calibrated = False
        self.mode = "dynamic" if online else "static"
        self.readings: "SparseReadings | None" = None
        self.gated = 0
        self.transients_before = self.health.transient_failures
        #: set when the run degraded to model-only; consumed by the
        #: driver's end-of-run health bookkeeping.
        self.degrade_reason: "str | None" = None
        #: bounded-memory restorer chosen by RestoreStage.open_run.
        self.restorer = None
        #: whole-run provenance flags, computed once at RestoreStage.open_run
        #: and sliced per chunk (None until then / for model-only runs).
        self.provenance_full: "np.ndarray | None" = None
        #: sinks receiving this run's finished chunks.
        self.sinks = service.sinks_for(node_id)

    def fail_or_degrade(self, degrade_reason: str, strict_record: str,
                        strict_exc: Exception, cause: "Exception | None" = None):
        """The single unusable-feed path.

        Strict policies record the outage and raise ``strict_exc``; the
        default policy flags the run for model-only restoration instead
        (the outage is recorded once, at end of run).
        """
        if not self.policy.degrade_to_model_only:
            self.health.record_outage_run(strict_record)
            if cause is not None and cause is not strict_exc:
                raise strict_exc from cause
            raise strict_exc
        self.degrade_reason = degrade_reason
        self.mode = "model_only"
        self.readings = None


def input_chunks(ctx: ObservationContext):
    """Source chunks for one run (bare spans; ingest attaches the data)."""
    spans = chunk_spans(ctx.n_samples, ctx.chunk_size)
    for seq, (start, stop) in enumerate(spans):
        yield PowerChunk(
            node_id=ctx.node_id, workload=ctx.workload,
            start=start, stop=stop, seq=seq,
            final=(stop == ctx.n_samples),
        )


class IngestStage(Stage):
    """Sample the node's IM sensor (with retry/backoff) and attach PMCs."""

    name = "ingest"
    span = "monitor.im_sample"

    def open_run(self, ctx: ObservationContext) -> None:
        try:
            ctx.readings = sample_with_retry(
                ctx.sensor, ctx.bundle, ctx.policy, ctx.health
            )
            self._thin(ctx)
        except SensorError as exc:
            # Outage (possibly injected): retries exhausted or every
            # reading dropped at the source.
            ctx.fail_or_degrade(
                f"sensor outage: {exc}", str(exc), exc, cause=exc
            )
        except ValidationError as exc:
            # The sensor cannot cover this bundle at all (run shorter than
            # the IM interval / readout delay).
            ctx.fail_or_degrade(
                f"run too short for the IM interval: {exc}",
                str(exc),
                ValidationError(
                    f"bundle {ctx.bundle.workload!r} ({len(ctx.bundle)} "
                    f"samples) is too short for node {ctx.node_id!r}'s IM "
                    f"sensor (interval {ctx.sensor.interval_s} s): {exc}"
                ),
                cause=exc,
            )

    @staticmethod
    def _thin(ctx: ObservationContext) -> None:
        """Apply the sampling governor's stride to the sampled feed.

        Thinning happens at the source — before calibration and gating —
        so every downstream stage sees exactly the feed a sparser sensor
        would have produced. The stride is clamped inside
        :func:`~repro.monitor.scheduler.thin_readings` so the gate's
        minimum-readings floor always survives.
        """
        stride = ctx.service.sampling_stride(ctx.node_id)
        if stride <= 1 or ctx.readings is None:
            return
        ctx.readings, dropped = thin_readings(
            ctx.readings, stride, ctx.policy.min_readings(ctx.online),
            offset=ctx.service.sampling_offset(ctx.node_id),
        )
        if dropped:
            ctx.service.registry.counter(
                "repro_sched_thinned_readings_total",
                "IM readings skipped by the sampling governor.", ("node",),
            ).labels(node=ctx.node_id).inc(dropped)

    def process(self, ctx: ObservationContext, chunk: PowerChunk) -> PowerChunk:
        chunk.pmcs = ctx.bundle.pmcs.matrix[chunk.start:chunk.stop]
        return chunk


class CalibrateStage(Stage):
    """Apply the node's registered compensation before the gate.

    Uncalibrated nodes (no transform, or the identity) pass through
    untouched — ``CompensationTransform.apply`` returns the *same*
    readings object for the identity, so the stage is bit-identity
    neutral when calibration is disabled. A non-identity transform
    rewrites the whole readings stream once per run (lag shift + affine
    correction; see ``docs/calibration.md``) and publishes the
    ``repro_calib_*`` counters.
    """

    name = "calibrate"
    span = "monitor.calibrate"

    def open_run(self, ctx: ObservationContext) -> None:
        if ctx.degrade_reason is not None or ctx.readings is None:
            return  # the feed already failed upstream
        transform = ctx.transform
        if transform is None or transform.is_identity:
            return
        try:
            compensated = transform.apply(ctx.readings)
        except SensorError as exc:
            # Lag compensation shifted every reading outside the run —
            # for the consumer that is a dead feed.
            ctx.fail_or_degrade(
                f"calibration emptied the feed: {exc}", str(exc), exc,
                cause=exc,
            )
            return
        dropped = len(ctx.readings) - len(compensated)
        ctx.readings = compensated
        ctx.calibrated = True
        registry = ctx.service.registry
        registry.counter(
            "repro_calib_runs_total",
            "Observed runs whose IM feed was compensated.", ("node",),
        ).labels(node=ctx.node_id).inc()
        registry.counter(
            "repro_calib_compensated_readings_total",
            "IM readings rewritten by the calibrate stage.", ("node",),
        ).labels(node=ctx.node_id).inc(len(compensated))
        if dropped:
            registry.counter(
                "repro_calib_dropped_readings_total",
                "IM readings shifted outside the run by lag compensation.",
                ("node",),
            ).labels(node=ctx.node_id).inc(dropped)


class GateStage(Stage):
    """Drop implausible readings; degrade when too few survive."""

    name = "gate"
    span = "monitor.gate"

    def open_run(self, ctx: ObservationContext) -> None:
        if ctx.degrade_reason is not None:
            return  # the feed already failed upstream
        gated = 0
        if ctx.policy.gate_readings:
            lo, hi = ctx.clamps
            ctx.readings, gated = gate_readings(
                ctx.readings, lo, hi, ctx.policy.gate_margin_fraction
            )
            ctx.health.gated_readings += gated
            ctx.gated = gated
        floor = ctx.policy.min_readings(ctx.online)
        if ctx.readings is None or len(ctx.readings) < floor:
            n_left = 0 if ctx.readings is None else len(ctx.readings)
            reason = (
                f"only {n_left} plausible reading(s) survived "
                f"({gated} gated); "
                f"{'dynamic' if ctx.online else 'static'} restoration needs "
                f">= {floor}"
            )
            ctx.fail_or_degrade(
                reason, reason,
                ValidationError(
                    f"node {ctx.node_id!r}, run {ctx.bundle.workload!r}: "
                    f"{reason}"
                ),
            )


class RestoreStage(Stage):
    """Restore dense node power with the mode's bounded-memory restorer.

    Dynamic and model-only runs map chunks one-to-one through an
    :class:`~repro.core.OnlineTRRSession`. Static runs feed a
    :class:`~repro.core.StaticTRRStream`, whose output spans lag the input
    by half a miss-interval (Algorithm-1 holds reach that far back) — the
    emitted chunks are re-spanned accordingly and still tile the run
    exactly.
    """

    name = "restore"
    span = "monitor.restore"

    def open_run(self, ctx: ObservationContext) -> None:
        model = ctx.model
        if ctx.mode == "static":
            if ctx.restorer is None:  # the fleet front-end pre-fills in stacks
                pmcs = ctx.bundle.pmcs.matrix
                ctx.restorer = model.offline_stream(
                    pmcs[ctx.readings.indices], ctx.readings
                )
        else:  # dynamic, or model_only's anchorless forecast
            ctx.restorer = model.online_session(retain=False)
        # Provenance depends only on the run's reading positions, which are
        # fixed once the gate has passed — flag the whole trace here and
        # slice per chunk instead of re-deriving neighbour distances for
        # every chunk of every node.
        if ctx.mode != "model_only":
            ctx.provenance_full = provenance_from_readings(
                ctx.n_samples, ctx.readings,
                outage_factor=ctx.model.config.resync_gap_factor,
            )

    def process(self, ctx: ObservationContext, chunk: PowerChunk):
        if ctx.mode == "static":
            return self._static(ctx, chunk)
        if chunk.p_node is None:  # the fleet front-end pre-fills in stacks
            readings = ctx.readings if ctx.mode == "dynamic" else None
            chunk.p_node = ctx.restorer.run_chunk(chunk.pmcs, readings)
        chunk.mode = ctx.mode
        chunk.provenance = self._provenance(ctx, chunk.start, chunk.stop)
        return chunk

    def _static(self, ctx: ObservationContext, chunk: PowerChunk):
        start, vals = ctx.restorer.restore_chunk(
            chunk.pmcs, residual_hat=chunk.residual_hat
        )
        if chunk.final:
            _, tail = ctx.restorer.finish()
            vals = np.concatenate([vals, tail])
        if vals.shape[0] == 0:
            return None  # held back until the fusion window closes
        stop = start + vals.shape[0]
        return PowerChunk(
            node_id=chunk.node_id, workload=chunk.workload,
            start=start, stop=stop, seq=chunk.seq, final=chunk.final,
            mode="static",
            pmcs=ctx.bundle.pmcs.matrix[start:stop],
            p_node=vals,
            provenance=self._provenance(ctx, start, stop),
        )

    def _provenance(self, ctx: ObservationContext, start: int, stop: int):
        if ctx.mode == "model_only":
            return np.full(stop - start, PROV_MODEL_ONLY, dtype=np.uint8)
        return ctx.provenance_full[start:stop]


class AttributeStage(Stage):
    """Distribute restored node power via the node's attribution head.

    CPU-only classes split two ways (SRR); accelerated classes split
    three ways (GPUSRR), filling ``chunk.p_gpu`` as well. The head is
    resolved per run from the node's device class, so one pipeline serves
    a heterogeneous fleet.
    """

    name = "attribute"
    span = "monitor.attribute"

    def process(self, ctx: ObservationContext, chunk: PowerChunk) -> PowerChunk:
        if chunk.p_cpu is None:  # the fleet front-end pre-fills in batches
            apply_attribution(
                chunk, ctx.head.predict(chunk.pmcs, chunk.p_node)
            )
        return chunk


class SinkStage(Stage):
    """Persist finished chunks to every configured sink."""

    name = "sink"
    span = "monitor.log_append"

    def process(self, ctx: ObservationContext, chunk: PowerChunk) -> PowerChunk:
        for sink in ctx.sinks:
            sink.write(chunk)
        return chunk

    def close_run(self, ctx: ObservationContext) -> None:
        for sink in ctx.sinks:
            sink.end_run(ctx.node_id, ctx.workload, ctx.mode)


def build_pipeline() -> StreamPipeline:
    """The service's standard six-stage observation pipeline."""
    return StreamPipeline([
        IngestStage(), CalibrateStage(), GateStage(), RestoreStage(),
        AttributeStage(), SinkStage(),
    ])
