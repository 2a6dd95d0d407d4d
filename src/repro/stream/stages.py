"""Stage protocol and pipeline driver for streaming power monitoring.

A pipeline is an ordered list of stateless :class:`Stage` objects; all
per-run state lives on the :class:`RunContext`, so one stage list can
serve many interleaved runs (the monitor's run driver,
:class:`~repro.monitor.FleetMonitor`, steps one context per node through
shared stages).

Lifecycle: :meth:`StreamPipeline.open_all` opens a round of runs stage
by stage, each stage's :meth:`Stage.open_all` once over the runs still
standing; the driver then steps the source chunks through the stages,
and :meth:`StreamPipeline.close_all` closes a batch of finished runs, each
stage's :meth:`Stage.close_all` once over them.
``process`` may return a chunk, a list of chunks, or None (absorbed —
e.g. the static restorer holding samples back until its fusion window
closes; it releases its tail with the source's ``final`` chunk, so
nothing is left over once the source is exhausted).

Every step is a batch: :meth:`StreamPipeline.open_all` runs each stage's
open once over a round's contexts, and :meth:`StreamPipeline.apply_all`
one stage's :meth:`Stage.process_all` over ``(ctx, chunk)`` items — a
fleet tick's chunks, one per run — each stage's batch under one tracer
span; :meth:`StreamPipeline.apply` is the batch of one. ``apply_all``
also counts the chunks and samples entering the stage, so per-stage
latency and throughput come for free in the ambient observability stack.
"""

from __future__ import annotations

from ..obs import current_tracer, get_registry
from .chunks import PowerChunk


class RunContext:
    """Mutable per-run state shared by all stages of a pipeline."""

    def __init__(self, node_id: str, workload: str, n_samples: int) -> None:
        self.node_id = node_id
        self.workload = workload
        self.n_samples = int(n_samples)
        #: restoration mode for the run; stages may update it (a failing IM
        #: feed degrades the whole run to "model_only" before restoration).
        self.mode = ""


class Stage:
    """One step of the monitoring pipeline. Subclasses override hooks.

    Stages hold no per-run state — everything mutable goes on the
    :class:`RunContext` so stage instances are reusable across concurrent
    runs.
    """

    #: short identifier used in the per-stage metrics labels.
    name: str = "stage"
    #: tracer span wrapped around every callback; None disables tracing.
    span: "str | None" = None

    def open_run(self, ctx: RunContext) -> None:
        """Run-scoped setup (may consume the whole-run inputs on ctx)."""

    def open_all(self, contexts, lost: list) -> None:
        """Open a batch of runs, appending ``(ctx, exception)`` to ``lost``
        for each run whose open raised; the other runs still open. The
        default opens each run through :meth:`open_run`; a stage that
        batches across runs overrides this instead."""
        for ctx in contexts:
            try:
                self.open_run(ctx)
            except Exception as exc:  # lost alone; the batch still opens
                lost.append((ctx, exc))

    def process(self, ctx: RunContext, chunk: PowerChunk):
        """Transform one chunk; return a chunk, a list of chunks, or None."""
        return chunk

    def process_all(self, items, out: list) -> None:
        """Process a batch of ``(ctx, chunk)`` items, appending each emitted
        ``(ctx, chunk)`` to ``out`` in item order. The default steps each
        item through :meth:`process`; a stage that batches across runs
        overrides this instead."""
        for ctx, chunk in items:
            emitted = self.process(ctx, chunk)
            if isinstance(emitted, PowerChunk):
                out.append((ctx, emitted))
            elif emitted is not None:
                out.extend((ctx, c) for c in emitted)

    def close_run(self, ctx: RunContext) -> None:
        """Run-scoped teardown (sinks end the run here)."""

    def close_all(self, contexts) -> None:
        """Close a batch of runs. The default closes each run through
        :meth:`close_run`; a stage that batches across runs overrides
        this instead."""
        for ctx in contexts:
            self.close_run(ctx)


class StreamPipeline:
    """An ordered list of stages, stepped one stage per call."""

    def __init__(self, stages: "list[Stage]") -> None:
        self.stages = list(stages)
        #: per-registry cache of the two per-stage counter children, so the
        #: per-batch hot path skips family lookup and label validation. A
        #: pipeline normally runs under exactly one ambient registry; the
        #: size guard keeps pathological registry churn bounded.
        self._enter_cache: "dict[object, dict[str, tuple]]" = {}

    def _enter(self, stage: Stage, items) -> None:
        registry = get_registry()
        per_registry = self._enter_cache.get(registry)
        if per_registry is None:
            if len(self._enter_cache) >= 8:
                self._enter_cache.clear()
            per_registry = self._enter_cache[registry] = {}
        pair = per_registry.get(stage.name)
        if pair is None:
            pair = per_registry[stage.name] = (
                registry.counter(
                    "repro_stream_chunks_total",
                    "Chunks entering each pipeline stage.", ("stage",),
                ).labels(stage=stage.name),
                registry.counter(
                    "repro_stream_samples_total",
                    "Samples entering each pipeline stage.", ("stage",),
                ).labels(stage=stage.name),
            )
        pair[0].inc(len(items))
        pair[1].inc(sum(chunk.n_samples for _, chunk in items))

    def _timed(self, stage: Stage, fn, *args):
        if stage.span is None:
            return fn(*args)
        with current_tracer().span(stage.span):
            return fn(*args)

    # The run driver interleaves many runs, stepping all of them through
    # one stage before the next, so the pipeline exposes single steps.
    def open_all(self, contexts) -> list:
        """Open a round of runs stage-major: each stage's
        :meth:`Stage.open_all` runs once, under one tracer span, over the
        runs no earlier stage lost. Returns the lost runs' ``(ctx,
        exception)`` pairs in the order they raised."""
        lost: list = []
        for stage in self.stages:
            if not contexts:
                break
            failed: list = []
            self._timed(stage, stage.open_all, contexts, failed)
            if failed:
                dead = {id(ctx) for ctx, _ in failed}
                contexts = [ctx for ctx in contexts if id(ctx) not in dead]
                lost += failed
        return lost

    def close_all(self, contexts) -> None:
        """Close a batch of finished runs stage-major: each stage's
        :meth:`Stage.close_all` once over them, in order."""
        for stage in self.stages:
            stage.close_all(contexts)

    def close_run(self, ctx: RunContext) -> None:
        """Close one run: the :meth:`close_all` of one."""
        self.close_all([ctx])

    def apply(self, ctx: RunContext, chunk: PowerChunk, i: int) -> "list[PowerChunk]":
        """Run exactly stage ``i`` on one chunk; returns what it emitted."""
        return [c for _, c in self.apply_all([(ctx, chunk)], i)]

    def apply_all(self, items, i: int, out: "list | None" = None) -> list:
        """Run exactly stage ``i`` on a batch of ``(ctx, chunk)`` items;
        returns ``out`` (a new list by default) with the emitted pairs
        appended as the stage emits them, so a caller whose stage raised
        still sees what it had finished. An empty batch is a no-op."""
        if out is None:
            out = []
        if items:
            stage = self.stages[i]
            self._enter(stage, items)
            self._timed(stage, stage.process_all, items, out)
        return out
