"""The run driver: many nodes, one shared model, batched inference.

The paper's deployment is one HighRPM service shared by many computing
nodes (§4.1). :class:`FleetMonitor` is the only driver of the observation
pipeline: it opens a run per node, interleaves the registered nodes' runs
chunk by chunk, and closes each run when its source is exhausted.
``PowerMonitorService.observe_run`` is a fleet of one. A round's runs
open as one batch per stage (:meth:`~repro.stream.StreamPipeline.open_all`),
and the restore stage fits every static run's StaticTRR in that batch as
one stack (splines stacked per knot count). A tick is the unit of work:
every active run's next chunk goes through each stage as one batch
(:meth:`~repro.stream.StreamPipeline.apply_all`), and the restore and
attribute stages batch their predict calls across the tick's runs through
the compiled flat-array layer:

* static runs' per-run ResModel trees are fused into
  :class:`~repro.perf.TreeStack` frontier descents over every node's
  pending chunk — one stack per PMC width, so CPU trees (10 counter
  columns) and GPU trees (16) each batch among themselves;
* static runs' chunks then restore as one stack
  (:func:`~repro.core.static_trr.restore_streams`): one spline-trend
  evaluation, one spike mask and one elementwise Algorithm-1 fusion over
  every run's chunk, each run's final chunk flushed in the same pass;
* dynamic runs' chunks advance in lockstep from one IM reading to the
  next, and the online fine-tunes those readings ask for train as one
  BPTT stack per (buffer length, step budget) instead of once per node;
* each device class's attribution head maps every member node's restored
  chunk in one concatenated forward pass (two-way SRR for CPU classes,
  three-way GPUSRR for accelerated ones).

The batched paths are bit-identical per node to restoring each run on its
own (the compiled predictors are batch-size independent, and the stacked
trainer leaves each node's model where its own fine-tunes would), so
fleet results equal single-node results exactly — including on
heterogeneous fleets.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..core.highrpm import (
    PROV_MEASURED,
    PROV_MODEL_ONLY,
    PROV_RESTORED,
    MonitorResult,
)
from ..errors import ValidationError
from ..obs import use_registry, use_tracer
from ..types import TraceBundle
from .pipeline import ObservationContext, build_pipeline, input_chunks

#: Human-readable provenance labels for the sample-mix counter.
_PROV_LABELS = {
    PROV_MEASURED: "measured",
    PROV_RESTORED: "restored",
    PROV_MODEL_ONLY: "model_only",
}

#: IM readings that survive per run: a smoke trace keeps a handful, a
#: campaign trace a few hundred.
_READINGS_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0)


class _FleetRun:
    """One node's in-flight run (context, chunk source, collected output)."""

    __slots__ = ("ctx", "source", "chunks", "before", "exhausted")

    def __init__(self, ctx, source, before) -> None:
        self.ctx = ctx
        self.source = source
        self.chunks = []
        self.before = before
        self.exhausted = False


class FleetMonitor:
    """Interleaves runs from N registered nodes through one service.

    ``submit_all`` opens a run per node in one pass (at most one in
    flight per node; ``submit`` is the pass of one); every ``tick``
    advances each active run by one ``chunk_size`` chunk (``None``: the
    whole run as one chunk), batching ResModel and SRR inference across
    the fleet. ``observe_all`` is the submit-and-drain convenience
    wrapper.

    A tick that raises loses every run whose chunk it was carrying: those
    runs leave the active set and count once in
    ``repro_monitor_failed_runs_total{node}``, and the exception
    propagates. The profiler prices every step and counts a run (and its
    samples) when it finishes.
    """

    def __init__(self, service, chunk_size: "int | None" = 256) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        self.service = service
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        #: the staged observation pipeline; stages are stateless, per-run
        #: state travels on an ObservationContext.
        self.pipeline = build_pipeline()
        self._runs: "dict[str, _FleetRun]" = {}

    @property
    def active_nodes(self) -> tuple:
        return tuple(self._runs)

    @contextmanager
    def _step(self, span: str, at_risk: "set[str]"):
        """One driver step under the service's registry, tracer and
        profiler. If it raises, every run named in ``at_risk`` is lost.

        The ambient registry and tracer route the pipeline's own
        instrumentation (TRR/SRR spans, the online fine-tune counters, the
        perf dispatch mix) into this service for the step's duration."""
        service = self.service
        with use_registry(service.registry), use_tracer(service.tracer), \
                service.profiler.measure() as cost:
            cost.runs = 0
            try:
                with service.tracer.span(span):
                    yield cost
            except Exception:
                self._lose(at_risk)
                raise

    def _lose(self, node_ids) -> None:
        """Drop runs lost to an exception; each counts once as failed."""
        failed = self.service.registry.counter(
            "repro_monitor_failed_runs_total",
            "Runs lost to an exception inside the monitor.", ("node",),
        )
        for node_id in node_ids:
            self._runs.pop(node_id, None)
            failed.labels(node=node_id).inc()

    def submit(self, node_id: str, bundle: TraceBundle, online: bool = True) -> None:
        """Open one run for a node: the :meth:`submit_all` of one."""
        self.submit_all([(node_id, bundle)], online=online)

    def submit_all(self, runs, online: bool = True) -> None:
        """Open one run per ``{node_id: bundle}`` entry (or pair) in one pass.

        The pass opens the runs stage-major
        (:meth:`~repro.stream.StreamPipeline.open_all`): each stage once
        over every run still standing, the restore stage fitting every
        static run's StaticTRR as one stack.

        A run whose open raises is lost alone: it counts once in
        ``repro_monitor_failed_runs_total``, the other runs still open, and
        the first exception raised in the pass re-raises once the pass is
        done. A stacked StaticTRR fit that raises after every run passed
        its checks loses every static run of the stack. An unknown node, or
        one with a run in flight (or named twice), raises before any run
        opens.
        """
        items = runs.items() if hasattr(runs, "items") else runs
        pending = []  # (context, health counters before the run)
        named: "set[str]" = set()
        for node_id, bundle in items:
            if node_id in self._runs or node_id in named:
                raise ValidationError(
                    f"node {node_id!r} already has an active run"
                )
            named.add(node_id)
            ctx = ObservationContext(self.service, node_id, bundle, online,
                                     self.chunk_size)
            health = ctx.health
            pending.append((ctx, (health.retries, health.gated_readings,
                                  health.outages, health.degraded_runs)))
        if not pending:
            return
        with self._step("fleet.submit", set()):
            lost = self.pipeline.open_all([ctx for ctx, _ in pending])
            dead = {ctx.node_id for ctx, _ in lost}
            self._lose(dead)
            for ctx, before in pending:
                if ctx.node_id not in dead:
                    self._runs[ctx.node_id] = _FleetRun(
                        ctx, input_chunks(ctx), before
                    )
        if lost:
            raise lost[0][1]

    def tick(self) -> "dict[str, MonitorResult]":
        """Advance every active run by one chunk; returns finished runs."""
        if not self._runs:
            return {}
        finished: "dict[str, MonitorResult]" = {}
        at_risk: "set[str]" = set()
        with self._step("fleet.tick", at_risk) as cost:
            self._advance(at_risk)
            for node_id in [nid for nid, r in self._runs.items() if r.exhausted]:
                at_risk.add(node_id)
                finished[node_id] = self._close(self._runs.pop(node_id))
                at_risk.discard(node_id)
            cost.runs = len(finished)
            cost.samples = sum(len(result) for result in finished.values())
        return finished

    def _advance(self, at_risk: "set[str]") -> None:
        """One interleaved step: every active run's next chunk goes
        through each stage as one batch. A run is in ``at_risk`` while its
        chunk is between source and sink."""
        items = []  # (ctx, chunk) the tick carries into the next stage
        for node_id, run in self._runs.items():
            chunk = next(run.source, None)
            if chunk is None:  # an empty run, or a final chunk already sunk
                run.exhausted = True
                continue
            at_risk.add(node_id)
            run.exhausted = chunk.final
            items.append((run.ctx, chunk))
        stages = range(len(self.pipeline.stages))
        for i in stages[:-1]:
            items = self.pipeline.apply_all(items, i)
            # a chunk a stage held back (the static restorer's fusion
            # window) is safe there
            at_risk.intersection_update(ctx.node_id for ctx, _ in items)
        sunk: list = []
        try:
            self.pipeline.apply_all(items, stages[-1], sunk)
        finally:  # a run leaves at_risk as soon as its chunk is sunk
            for ctx, chunk in sunk:
                self._runs[ctx.node_id].chunks.append(chunk)
                at_risk.discard(ctx.node_id)

    # ---------------------------------------------------------- end of run
    def _close(self, run: _FleetRun) -> MonitorResult:
        """Close one exhausted run: sinks end it, its chunks are assembled,
        and health, governor feedback and run metrics are recorded."""
        ctx = run.ctx
        self.pipeline.close_run(ctx)
        result = _assemble(ctx, run.chunks)
        _record_health(ctx, result)
        self._feed_governor(ctx, result)
        self._emit_run_metrics(ctx.node_id, result, run.before)
        return result

    def _feed_governor(self, ctx: ObservationContext, result: MonitorResult) -> None:
        """Feed one finished run back into the sampling schedule."""
        service = self.service
        governor = service.governor
        if governor is None or len(result) == 0:
            return
        budget = governor.policy.pinned_budget_fraction
        if budget is None:
            budget = service.profiler.budget_fraction
        with service.tracer.span("sched.decide"):
            decision = governor.update(
                ctx.node_id, float(result.confidence().mean()), float(budget)
            )
        registry = service.registry
        registry.gauge(
            "repro_sched_stride",
            "Sampling-governor IM reading stride per node (1 = dense).",
            ("node",),
        ).labels(node=ctx.node_id).set(decision.stride)
        registry.gauge(
            "repro_sched_interval_seconds",
            "Effective IM sampling interval per node under the governor.",
            ("node",),
        ).labels(node=ctx.node_id).set(
            float(ctx.sensor.interval_s * decision.stride)
        )
        registry.counter(
            "repro_sched_decisions_total",
            "Governor decisions by node and direction.",
            ("node", "direction"),
        ).labels(node=ctx.node_id, direction=decision.direction).inc()

    def _emit_run_metrics(
        self, node_id: str, result: MonitorResult, before: tuple
    ) -> None:
        """Publish one finished run's counters from the health deltas."""
        registry = self.service.registry
        health = self.service.health(node_id)
        registry.counter(
            "repro_monitor_runs_total",
            "Observed runs by node and restoration mode.", ("node", "mode"),
        ).labels(node=node_id, mode=result.mode).inc()
        deltas = (
            ("repro_monitor_retries_total",
             "IM sample retries after transient failures.", health.retries),
            ("repro_monitor_gated_readings_total",
             "IM readings dropped by the plausibility gate.",
             health.gated_readings),
            ("repro_monitor_outage_runs_total",
             "Runs degraded to model-only restoration.", health.outages),
            ("repro_monitor_degraded_runs_total",
             "Runs that needed retries, gating, or anchorless samples.",
             health.degraded_runs),
        )
        for (name, help_text, after_value), before_value in zip(deltas, before):
            if after_value > before_value:
                registry.counter(name, help_text, ("node",)).labels(
                    node=node_id
                ).inc(after_value - before_value)
        prov = result.provenance
        if prov is None:
            prov = np.full(len(result), PROV_RESTORED, dtype=np.uint8)
        counts = np.bincount(prov, minlength=max(_PROV_LABELS) + 1)
        samples = registry.counter(
            "repro_monitor_samples_total",
            "Logged samples by provenance.", ("provenance",),
        )
        for code, label in _PROV_LABELS.items():
            if counts[code]:
                samples.labels(provenance=label).inc(int(counts[code]))
        registry.histogram(
            "repro_monitor_readings_per_run",
            "Measured IM readings surviving per observed run.",
            buckets=_READINGS_BUCKETS,
        ).observe(int(counts[PROV_MEASURED]))
        energy = registry.counter(
            "repro_monitor_component_energy_joules_total",
            "Attributed component energy by node (1 Sa/s: watts sum to "
            "joules).",
            ("node", "component"),
        )
        for component, series in result.components.items():
            total = float(series.sum())
            if total > 0.0:
                energy.labels(node=node_id, component=component).inc(total)

    def observe_all(
        self, runs, online: bool = True
    ) -> "dict[str, MonitorResult]":
        """Submit ``{node_id: bundle}`` (or pairs) and tick until drained."""
        self.submit_all(runs, online=online)
        results: "dict[str, MonitorResult]" = {}
        while self._runs:
            results.update(self.tick())
        return results


def _assemble(ctx: ObservationContext, chunks) -> MonitorResult:
    """Concatenate the pipeline's finished chunks into one result."""
    if not chunks:
        return MonitorResult(
            p_node=np.empty(0), p_cpu=np.empty(0), p_mem=np.empty(0),
            mode=ctx.mode, provenance=np.empty(0, dtype=np.uint8),
        )
    return MonitorResult(
        p_node=np.concatenate([c.p_node for c in chunks]),
        p_cpu=np.concatenate([c.p_cpu for c in chunks]),
        p_mem=np.concatenate([c.p_mem for c in chunks]),
        mode=ctx.mode,
        provenance=np.concatenate([c.provenance for c in chunks]),
        p_gpu=(
            np.concatenate([c.p_gpu for c in chunks])
            if chunks[0].p_gpu is not None else None
        ),
    )


def _record_health(ctx: ObservationContext, result: MonitorResult) -> None:
    """End-of-run health bookkeeping, shared by all modes."""
    health = ctx.health
    if ctx.degrade_reason is not None:
        health.record_outage_run(ctx.degrade_reason)
        return
    retried = health.transient_failures - ctx.transients_before
    gap_samples = int(result.model_only_mask.sum())
    if ctx.gated or retried or gap_samples:
        health.record_degraded_run(
            f"{ctx.gated} reading(s) gated, {retried} transient "
            f"failure(s) retried, {gap_samples} sample(s) restored "
            f"without an anchor"
        )
    else:
        health.record_healthy_run()
