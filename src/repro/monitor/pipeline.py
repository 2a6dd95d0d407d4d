"""The observation pipeline: ingest → calibrate → gate → restore →
attribute → sink.

One observed run, decomposed into reusable :class:`~repro.stream.Stage`
objects. Stages are stateless; everything mutable for one observed run
lives on the :class:`ObservationContext`, so the same stage instances
serve many interleaved runs. The run driver,
:class:`~repro.monitor.fleet.FleetMonitor`, drives one context per node
through the shared stages, a round's opens and a tick's chunks each as
one batch per stage: the ingest, calibrate and gate stages open run by
run; the restore stage flags every run's provenance in one pass and fits
every static run of the round in one stack, its ResModel trees in one
level-synchronous pass per PMC width.

Degradation policy is centralised in
:meth:`ObservationContext.fail_or_degrade`: any stage that finds the IM
feed unusable either raises (strict policies) or flags the whole run for
model-only restoration.
"""

from __future__ import annotations

import numpy as np

from ..core.dynamic_trr import run_fine_tunes
from ..core.highrpm import PROV_MODEL_ONLY, provenance_stack
from ..core.static_trr import fit_checked_streams, restore_streams
from ..errors import SensorError, ValidationError
from ..obs import current_tracer
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
        #: bounded-memory restorer chosen by RestoreStage.open_all.
        self.restorer = None
        #: whole-run provenance flags, computed once at RestoreStage.open_all
        #: and sliced per chunk (None until then / for model-only runs).
        self.provenance_full: "np.ndarray | None" = None
        #: sinks receiving this run's finished chunks.
        self.sinks = service.sinks

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
    :class:`~repro.core.StaticTRRStream` (a run's final chunk also flushes
    it), whose output spans lag the input by half a miss-interval
    (Algorithm-1 holds reach that far back) — the emitted chunks are
    re-spanned accordingly and still tile the run exactly.

    A round's static runs fit, and a tick's chunks restore, as stacks
    across their runs, bit-identical per run to each run on its own.
    """

    name = "restore"
    span = "monitor.restore"

    def open_all(self, contexts, lost: list) -> None:
        """Open a round's restorers: every static run's StaticTRR fits in
        one :func:`~repro.core.static_trr.fit_checked_streams` stack, each
        dynamic and model-only run gets its own online session, and every
        run with readings gets its whole trace's provenance in one
        :func:`~repro.core.highrpm.provenance_stack` pass.

        Each static run's inputs are checked on their own first, and only
        here (:meth:`~repro.core.StaticTRR.check_stream`), so a malformed
        run is lost alone; if the provenance pass or the stacked fit itself
        raises, every run it carried is lost to it."""
        static = []  # (ctx, unfitted StaticTRR, PMC rows at the readings)
        anchored = []  # runs whose provenance follows their readings
        for ctx in contexts:
            try:
                if ctx.mode == "static":
                    trr = ctx.model.static_trr()
                    static.append((ctx, trr, trr.check_stream(
                        ctx.bundle.pmcs.matrix[ctx.readings.indices],
                        ctx.readings,
                    )))
                else:  # dynamic, or model_only's anchorless forecast
                    ctx.restorer = ctx.model.online_session()
                if ctx.mode != "model_only":
                    anchored.append(ctx)
            except Exception as exc:  # lost alone; the batch still opens
                lost.append((ctx, exc))
        if anchored:
            # Provenance depends only on a run's reading positions, which
            # are fixed once the gate has passed: flag every whole trace
            # here and slice per chunk.
            try:
                provenance = provenance_stack(
                    [ctx.n_samples for ctx in anchored],
                    [ctx.readings for ctx in anchored],
                    [ctx.model.config.resync_gap_factor for ctx in anchored],
                )
            except Exception as exc:  # the pass's runs are lost together
                lost.extend((ctx, exc) for ctx in anchored)
                return
            for ctx, flags in zip(anchored, provenance):
                ctx.provenance_full = flags
        if not static:
            return
        try:
            streams = fit_checked_streams(
                [trr for _, trr, _ in static],
                [rows for _, _, rows in static],
                [ctx.readings for ctx, _, _ in static],
            )
        except Exception as exc:  # the stack's runs are lost together
            lost.extend((ctx, exc) for ctx, _, _ in static)
            return
        for (ctx, _, _), stream in zip(static, streams):
            ctx.restorer = stream

    def process_all(self, items, out: list) -> None:
        """Restore a batch: every static chunk in one
        :func:`~repro.core.static_trr.restore_streams` pass (which also
        flushes each run's final chunk), every dynamic and model-only chunk
        in one lockstep online step; a static chunk held back until its
        fusion window closes emits nothing."""
        static = [(ctx, chunk) for ctx, chunk in items if ctx.mode == "static"]
        spans = iter(restore_streams([ctx.restorer for ctx, _ in static],
                                     [chunk.pmcs for _, chunk in static],
                                     [chunk.final for _, chunk in static]))
        self._online([(ctx, chunk) for ctx, chunk in items
                      if ctx.mode != "static"])
        for ctx, chunk in items:
            if ctx.mode != "static":
                chunk.mode = ctx.mode
                chunk.provenance = self._provenance(ctx, chunk.start, chunk.stop)
                out.append((ctx, chunk))
                continue
            start, vals = next(spans)
            if vals.shape[0] == 0:
                continue  # held back until the fusion window closes
            stop = start + vals.shape[0]
            out.append((ctx, PowerChunk(
                node_id=chunk.node_id, workload=chunk.workload,
                start=start, stop=stop, seq=chunk.seq, final=chunk.final,
                mode="static",
                pmcs=ctx.bundle.pmcs.matrix[start:stop],
                p_node=vals,
                provenance=self._provenance(ctx, start, stop),
            )))

    @staticmethod
    def _online(items) -> None:
        """Fill dynamic and model-only chunks' node power, training the
        batch's fine-tunes as node stacks.

        Every session's chunk step advances in lockstep: each round moves
        every session to its next IM reading (forecasting the seconds
        before it) and collects the fine-tune job the reading hands back;
        the round's jobs then train as one stack per (buffer length, step
        budget) before every session resumes. Model-only sessions have no
        readings and finish in the first round."""
        if not items:
            return
        with current_tracer().span("trr.dynamic"):
            steppers = []
            for ctx, chunk in items:
                chunk.p_node = np.empty(chunk.n_samples)
                readings = ctx.readings if ctx.mode == "dynamic" else None
                steppers.append(ctx.restorer.chunk_steps(
                    chunk.pmcs, readings, chunk.p_node
                ))
            while steppers:
                jobs = [next(steps, None) for steps in steppers]
                steppers = [s for s, job in zip(steppers, jobs) if job is not None]
                run_fine_tunes([job for job in jobs if job is not None])

    def _provenance(self, ctx: ObservationContext, start: int, stop: int):
        if ctx.mode == "model_only":
            return np.full(stop - start, PROV_MODEL_ONLY, dtype=np.uint8)
        return ctx.provenance_full[start:stop]


class AttributeStage(Stage):
    """Distribute restored node power via the node's attribution head.

    CPU-only classes split two ways (SRR); accelerated classes split
    three ways (GPUSRR), filling ``chunk.p_gpu`` as well. The head is
    resolved per run from the node's device class, so one pipeline serves
    a heterogeneous fleet: a batch maps each head's chunks in one
    ``predict_batched`` forward.
    """

    name = "attribute"
    span = "monitor.attribute"

    def process_all(self, items, out: list) -> None:
        groups: "dict[int, tuple]" = {}
        for ctx, chunk in items:
            groups.setdefault(id(ctx.head), (ctx.head, []))[1].append(chunk)
        for head, chunks in groups.values():
            splits = head.predict_batched([(c.pmcs, c.p_node) for c in chunks])
            for chunk, parts in zip(chunks, splits):
                apply_attribution(chunk, parts)
        out.extend(items)


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
