"""The run driver: many nodes, one shared model, batched inference.

The paper's deployment is one HighRPM service shared by many computing
nodes (§4.1). :class:`FleetMonitor` is the only driver of the observation
pipeline: it opens a run per node, interleaves the registered nodes' runs
chunk by chunk, and closes the runs whose sources are exhausted, one
batch per tick.
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

The runs a tick finishes close as one batch too
(:meth:`FleetMonitor._close_all`): sinks end each run, the runs' chunks
assemble as one stack per run length, their confidence means come from
one provenance-table pass, the sampling governor decides every stride
in one :meth:`~repro.monitor.scheduler.SamplingGovernor.update_all`
pass, and each run-level metric family is declared once per tick.

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
    provenance_confidence,
)
from ..errors import ValidationError
from ..obs import use_registry, use_tracer
from ..types import TraceBundle
from .pipeline import ObservationContext, build_pipeline, input_chunks

#: Human-readable provenance labels for the sample-mix counter.
_PROV_LABELS = {
    int(PROV_MEASURED): "measured",
    int(PROV_RESTORED): "restored",
    int(PROV_MODEL_ONLY): "model_only",
}

#: IM readings that survive per run: a smoke trace keeps a handful, a
#: campaign trace a few hundred.
_READINGS_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0)

#: Run-level counters that follow a node's health counters (``_health_counts``
#: order): each grows by the run's delta.
_HEALTH_DELTAS = (
    ("repro_monitor_retries_total",
     "IM sample retries after transient failures."),
    ("repro_monitor_gated_readings_total",
     "IM readings dropped by the plausibility gate."),
    ("repro_monitor_outage_runs_total",
     "Runs degraded to model-only restoration."),
    ("repro_monitor_degraded_runs_total",
     "Runs that needed retries, gating, or anchorless samples."),
)


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

    A tick that raises loses every run whose chunk it was carrying, or,
    if its close raises, every run it was closing: those runs leave the
    active set and count once in ``repro_monitor_failed_runs_total{node}``,
    and the exception propagates (the tick returns no partial results).
    The profiler prices every step and counts a run (and its samples)
    when it finishes.
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
        if not node_ids:  # declare no family without a sample to export
            return
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
            pending.append((ctx, _health_counts(ctx.health)))
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
        """Advance every active run by one chunk, then close the runs it
        finished as one batch; returns their results."""
        if not self._runs:
            return {}
        at_risk: "set[str]" = set()
        with self._step("fleet.tick", at_risk) as cost:
            self._advance(at_risk)
            done = [nid for nid, run in self._runs.items() if run.exhausted]
            at_risk.update(done)  # a close that raises loses all of them
            finished = self._close_all([self._runs.pop(nid) for nid in done])
            at_risk.difference_update(done)
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
    def _close_all(self, runs) -> "dict[str, MonitorResult]":
        """Close every run a tick finished in one batch: sinks end each run,
        the runs' chunks assemble as stacks, and health, governor feedback
        and run metrics are recorded.

        The governor decides every stride in one pass under one
        ``sched.decide`` span, each metric family is declared once, and
        the provenance counter is summed over the batch before it touches
        the registry; per-node series are written run by run."""
        if not runs:
            return {}
        service = self.service
        registry = service.registry
        contexts = [run.ctx for run in runs]
        self.pipeline.close_all(contexts)
        results, counts, energy, stacks = _assemble_all(runs)
        governor = service.governor
        fed = [i for i, result in enumerate(results) if len(result)]
        if governor is not None and fed:
            # bitwise each run's result.confidence().mean(): numpy reduces
            # a contiguous row as it reduces the same 1-D array
            confidence = np.zeros(len(runs))
            for members, prov in stacks:
                if prov.shape[1]:
                    confidence[members] = \
                        provenance_confidence(prov).mean(axis=1)
            budget = governor.policy.pinned_budget_fraction
            if budget is None:
                budget = service.profiler.budget_fraction
            with service.tracer.span("sched.decide"):
                decisions = governor.update_all(
                    [contexts[i].node_id for i in fed], confidence[fed],
                    float(budget),
                )
            strides = registry.gauge(
                "repro_sched_stride",
                "Sampling-governor IM reading stride per node (1 = dense).",
                ("node",),
            )
            intervals = registry.gauge(
                "repro_sched_interval_seconds",
                "Effective IM sampling interval per node under the governor.",
                ("node",),
            )
            directions = registry.counter(
                "repro_sched_decisions_total",
                "Governor decisions by node and direction.",
                ("node", "direction"),
            )
            for i, decision in zip(fed, decisions):
                node_id = decision.node_id
                strides.child(node_id).set(decision.stride)
                intervals.child(node_id).set(
                    float(contexts[i].sensor.interval_s * decision.stride)
                )
                directions.child(node_id, decision.direction).inc()
        runs_total = registry.counter(
            "repro_monitor_runs_total",
            "Observed runs by node and restoration mode.", ("node", "mode"),
        )
        readings = registry.histogram(
            "repro_monitor_readings_per_run",
            "Measured IM readings surviving per observed run.",
            buckets=_READINGS_BUCKETS,
        ).child()
        joules = registry.counter(
            "repro_monitor_component_energy_joules_total",
            "Attributed component energy by node (1 Sa/s: watts sum to "
            "joules).",
            ("node", "component"),
        )
        grown: "dict[int, list]" = {}  # health delta -> [(node, growth)]
        measured = counts[:, PROV_MEASURED].tolist()
        gaps = counts[:, PROV_MODEL_ONLY].tolist()
        for run, result, n_measured, n_gaps, parts in zip(
            runs, results, measured, gaps, energy
        ):
            ctx = run.ctx
            node_id = ctx.node_id
            _record_health(ctx, n_gaps)
            runs_total.child(node_id, result.mode).inc()
            for k, (after, before) in enumerate(
                zip(_health_counts(ctx.health), run.before)
            ):
                if after > before:
                    grown.setdefault(k, []).append((node_id, after - before))
            readings.observe(n_measured)
            for component, total in parts:
                if total > 0.0:
                    joules.child(node_id, component).inc(total)
        for k, growth in grown.items():  # declared once some run grew it
            family = registry.counter(*_HEALTH_DELTAS[k], ("node",))
            for node_id, delta in growth:
                family.child(node_id).inc(delta)
        samples = registry.counter(
            "repro_monitor_samples_total",
            "Logged samples by provenance.", ("provenance",),
        )
        for code, total in enumerate(counts.sum(axis=0).tolist()):
            if total:
                samples.child(_PROV_LABELS[code]).inc(total)
        return {ctx.node_id: result for ctx, result in zip(contexts, results)}

    def observe_all(
        self, runs, online: bool = True
    ) -> "dict[str, MonitorResult]":
        """Submit ``{node_id: bundle}`` (or pairs) and tick until drained."""
        self.submit_all(runs, online=online)
        results: "dict[str, MonitorResult]" = {}
        while self._runs:
            results.update(self.tick())
        return results


def _health_counts(health) -> tuple:
    """The node's health counters the run-level delta counters follow."""
    return (health.retries, health.gated_readings, health.outages,
            health.degraded_runs)


def _assemble_all(runs):
    """Assemble closing runs' chunks into their results, one stack per
    (run length, channel set).

    A run's chunks tile it in order, so a group's chunks concatenate once
    per channel into one row per run; each result's channels are its
    rows. Returns, in run order, the results, each run's sample count per
    provenance code (an ``(n, 3)`` array) and its ``(component, energy)``
    sums; and per group, its members' indices and provenance rows."""
    n = len(runs)
    results: list = [None] * n
    counts = np.zeros((n, len(_PROV_LABELS)), dtype=np.int64)
    energy: list = [None] * n
    groups: "dict[tuple, list[int]]" = {}
    for i, run in enumerate(runs):
        gpu = bool(run.chunks) and run.chunks[0].p_gpu is not None
        groups.setdefault((run.ctx.n_samples, gpu), []).append(i)
    stacks = []
    for (length, gpu), members in groups.items():
        chunks = [chunk for i in members for chunk in runs[i].chunks]
        shape = (len(members), length)
        p_node = _rows([c.p_node for c in chunks], shape)
        p_cpu = _rows([c.p_cpu for c in chunks], shape)
        p_mem = _rows([c.p_mem for c in chunks], shape)
        prov = _rows([c.provenance for c in chunks], shape, np.uint8)
        p_gpu = _rows([c.p_gpu for c in chunks], shape) if gpu else None
        stacks.append((members, prov))
        for code in _PROV_LABELS:
            counts[members, code] = (prov == code).sum(axis=1)
        components = [("cpu", p_cpu), ("mem", p_mem)]
        if gpu:
            components.append(("gpu", p_gpu))
        sums = [(name, block.sum(axis=1).tolist()) for name, block in components]
        for row, i in enumerate(members):
            results[i] = MonitorResult(
                p_node=p_node[row], p_cpu=p_cpu[row], p_mem=p_mem[row],
                mode=runs[i].ctx.mode, provenance=prov[row],
                p_gpu=None if p_gpu is None else p_gpu[row],
            )
            energy[i] = [(name, totals[row]) for name, totals in sums]
    return results, counts, energy, stacks


def _rows(parts, shape: tuple, dtype=np.float64) -> np.ndarray:
    """One channel of a group's chunks as one row per run."""
    if not parts:  # empty runs
        return np.empty(shape, dtype=dtype)
    return np.concatenate(parts).reshape(shape)


def _record_health(ctx: ObservationContext, gap_samples: int) -> None:
    """End-of-run health bookkeeping, shared by all modes; ``gap_samples``
    is the run's count of samples restored without an anchor."""
    health = ctx.health
    if ctx.degrade_reason is not None:
        health.record_outage_run(ctx.degrade_reason)
        return
    retried = health.transient_failures - ctx.transients_before
    if ctx.gated or retried or gap_samples:
        health.record_degraded_run(
            f"{ctx.gated} reading(s) gated, {retried} transient "
            f"failure(s) retried, {gap_samples} sample(s) restored "
            f"without an anchor"
        )
    else:
        health.record_healthy_run()
