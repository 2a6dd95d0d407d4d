"""Stage protocol and pipeline driver for streaming power monitoring.

A pipeline is an ordered list of stateless :class:`Stage` objects; all
per-run state lives on the :class:`RunContext`, so one stage list can
serve many interleaved runs (the monitor's run driver,
:class:`~repro.monitor.FleetMonitor`, steps one context per node through
shared stages).

Lifecycle per run: :meth:`StreamPipeline.open_run` fires every stage's
``open_run`` in order, the driver then steps each source chunk through the
stages with :meth:`StreamPipeline.apply`, and
:meth:`StreamPipeline.close_run` fires every stage's ``close_run``.
``process`` may return a chunk, a list of chunks, or None (absorbed — e.g.
the static restorer holding samples back until its fusion window closes;
it releases its tail with the source's ``final`` chunk, so nothing is
left over once the source is exhausted).

The pipeline wraps every ``open_run`` and ``process`` call in the stage's
tracer span and counts chunks/samples entering each stage, so per-stage
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

    def process(self, ctx: RunContext, chunk: PowerChunk):
        """Transform one chunk; return a chunk, a list of chunks, or None."""
        return chunk

    def close_run(self, ctx: RunContext) -> None:
        """Run-scoped teardown (sinks end the run here)."""


class StreamPipeline:
    """An ordered list of stages, stepped one stage per call."""

    def __init__(self, stages: "list[Stage]") -> None:
        self.stages = list(stages)
        #: per-registry cache of the two per-stage counter children, so the
        #: per-chunk hot path skips family lookup and label validation. A
        #: pipeline normally runs under exactly one ambient registry; the
        #: size guard keeps pathological registry churn bounded.
        self._enter_cache: "dict[object, dict[str, tuple]]" = {}

    def _enter(self, stage: Stage, chunk: PowerChunk) -> None:
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
        pair[0].inc()
        pair[1].inc(chunk.n_samples)

    def _timed(self, stage: Stage, fn, *args):
        if stage.span is None:
            return fn(*args)
        with current_tracer().span(stage.span):
            return fn(*args)

    # The run driver interleaves many runs, pausing between stages to
    # batch inference across them, so the pipeline exposes single steps.
    def open_run(self, ctx: RunContext, start: int = 0,
                 stop: "int | None" = None) -> None:
        """Fire ``open_run`` of stages ``[start, stop)`` (default: all)."""
        for stage in self.stages[start:stop]:
            self._timed(stage, stage.open_run, ctx)

    def close_run(self, ctx: RunContext) -> None:
        for stage in self.stages:
            stage.close_run(ctx)

    def apply(self, ctx: RunContext, chunk: PowerChunk, i: int) -> "list[PowerChunk]":
        """Run exactly stage ``i`` on one chunk; returns what it emitted."""
        stage = self.stages[i]
        self._enter(stage, chunk)
        emitted = self._timed(stage, stage.process, ctx, chunk)
        if emitted is None:
            return []
        return [emitted] if isinstance(emitted, PowerChunk) else list(emitted)
