"""Spans around calls into each layer's public functions, for the traced run.

The program carries no benchmark instrumentation: :func:`install` swaps
each public function named in :data:`LAYERS` for a wrapper that records a
span — name, start, end and parent — in memory, and
:meth:`Installation.undo` puts the originals back. A layer's *self* time is its spans' duration
minus the time covered by their child spans, so nested layers are never
counted twice and the self times of all spans plus the benchmark's own
root spans add up to the wall time they cover.

Spans are kept per thread (the serve daemon's collector and HTTP threads
record beside the caller's thread) and written out as JSON when the run
ends. A forked shard process inherits the installed wrappers; it clears
the spans it inherited, and writes its own when its worker returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import threading
import time
from collections import Counter
from pathlib import Path

#: Span names that belong to no program layer: their self time is the
#: part of the wall time that no layer accounts for.
UNATTRIBUTED = ("bench.setup", "bench.rounds", "serve.run_worker")


def _rows(args, result) -> int:
    return int(args[1].shape[0])  # args[0] is self


def _rows_of_parts(args, result) -> int:
    return int(sum(part.shape[0] for part in args[1]))


def _stage_name(args) -> str:
    pipeline, _ctx, _chunk, index = args[:4]
    return "stream.stage." + pipeline.stages[index].name


#: (module, attribute path, span name or name-from-args, counters).
#: Counters are ``(counter name, fn(args, result) -> int)`` pairs.
LAYERS = (
    ("repro.hardware.node", "NodeSimulator.run", "hardware.simulate", ()),
    ("repro.gpu.hardware", "AcceleratedNodeSimulator.run", "gpu.simulate", ()),
    ("repro.gpu.srr", "GPUSRR.fit", "gpu.srr_fit", ()),
    ("repro.core.highrpm", "HighRPM.fit_initial", "core.fit_initial", ()),
    ("repro.sensors.ipmi", "IPMISensor.sample", "sensors.ipmi.sample",
     (("sensors.ipmi.readings", lambda args, result: len(result)),)),
    ("repro.monitor.fleet", "FleetMonitor.submit", "monitor.fleet.submit", ()),
    ("repro.monitor.scheduler", "SamplingGovernor.update",
     "monitor.governor.update", ()),
    ("repro.core.static_trr", "StaticTRR.fit_stream", "core.static.fit_stream",
     ()),
    ("repro.ml.tree", "DecisionTreeRegressor.fit", "ml.tree.fit", ()),
    ("repro.interp.spline", "CubicSplineInterpolator.fit", "interp.spline.fit",
     ()),
    ("repro.monitor.fleet", "FleetMonitor.tick", "monitor.fleet.tick", ()),
    ("repro.stream.stages", "StreamPipeline.apply", _stage_name, ()),
    ("repro.core.static_trr", "StaticTRRStream.restore_chunk",
     "core.static.restore_chunk", (("static_rows", _rows),)),
    ("repro.perf.batch", "TreeStack.predict", "perf.treestack.predict",
     (("batched_rows", _rows_of_parts),)),
    ("repro.core.srr", "SRR.predict_batched", "core.srr.predict_batched", ()),
    ("repro.gpu.srr", "GPUSRR.predict_batched", "gpu.srr.predict_batched", ()),
    ("repro.core.dynamic_trr", "OnlineTRRSession.run_chunk",
     "core.dynamic.run_chunk", ()),
    ("repro.ml.recurrent", "LSTMRegressor.partial_fit",
     "ml.recurrent.partial_fit", ()),
    ("repro.perf.flat_lstm", "CompiledLSTM.forecast", "perf.lstm.forecast", ()),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "obs.registry_snapshot",
     ()),
    ("repro.serve.shard", "QueueSink.write", "serve.queue_sink.write", ()),
    ("repro.serve.merge", "StreamHub.publish", "serve.hub.publish", ()),
    ("repro.serve.daemon", "FleetDaemon.metrics_text", "serve.metrics_text",
     ()),
    # Imported by name into the daemon module and called from there (and
    # from the in-process scrape through the ``repro.obs`` package).
    ("repro.serve.daemon", "merge_snapshots", "obs.merge_snapshots", ()),
    ("repro.serve.daemon", "render_prometheus", "obs.render_prometheus", ()),
    ("repro.obs", "merge_snapshots", "obs.merge_snapshots", ()),
    ("repro.obs", "render_prometheus", "obs.render_prometheus", ()),
)


class SpanRecorder:
    """In-memory span store: one list of ``(name, start, end, parent)`` per
    thread, ``parent`` being the index of the enclosing span (-1 at root),
    and one list of ``(counter, time, value)`` counts per thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (a forked child starts afresh)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: "list[tuple[list, list]]" = []

    def _state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            local.counts = []
            with self._lock:
                self._threads.append((spans, local.counts))
        return spans, local.stack, local.counts

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans, stack, _ = self._state()
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def count(self, name: str, value: int) -> None:
        self._state()[2].append((name, self.clock(), value))

    def wrap(self, fn, name, counters=()):
        """``fn`` wrapped in a span; ``name`` may be computed from args."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            result = recorder.call(label, fn, *args, **kwargs)
            for counter, measure in counters:
                recorder.count(counter, measure(args, result))
            return result

        return wrapper

    # ------------------------------------------------------------ reading
    def threads(self) -> "list[list[tuple]]":
        """Spans per thread; a span still open is ``None`` (its index is
        kept, so parent links stay valid)."""
        with self._lock:
            return [list(spans) for spans, _ in self._threads]

    def counts(self) -> "list[tuple[str, float, int]]":
        """Every count of every thread, as ``(counter, time, value)``."""
        with self._lock:
            return [entry for _, counts in self._threads for entry in counts]

    def dump(self, path) -> None:
        """Write every span and count as JSON."""
        payload = {"threads": self.threads(), "counts": self.counts()}
        Path(path).write_text(json.dumps(payload, separators=(",", ":")))


def self_times(threads, until: float = math.inf
               ) -> "dict[str, dict[str, float]]":
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    A span's self time is its duration minus its direct children's
    durations; children nest inside their parent on the same thread, so
    the subtraction never double counts. Only time before ``until``
    counts: a span still running then is cut there, and one that starts
    later is left out.
    """
    out: "dict[str, dict[str, float]]" = {}
    for spans in threads:
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0 and span[1] < until:
                child[span[3]] += min(span[2], until) - span[1]
        for i, span in enumerate(spans):
            if span is None or span[1] >= until:
                continue
            name, start, end, _parent = span
            duration = min(end, until) - start
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[i]
    return out


def count_totals(counts, until: float = math.inf) -> Counter:
    """Each counter's total over the counts made before ``until``."""
    total: Counter = Counter()
    for name, when, value in counts:
        if when < until:
            total[name] += value
    return total


def load_dump(path) -> "tuple[list, list]":
    payload = json.loads(Path(path).read_text())
    threads = [[None if s is None else tuple(s) for s in spans]
               for spans in payload["threads"]]
    return threads, [tuple(entry) for entry in payload["counts"]]


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Installation:
    """The wrappers :func:`install` put in place, undone by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: "list[tuple[object, str, bool, object]]" = []

    def patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every function in :data:`LAYERS`, plus the shard hooks."""
    done = Installation()
    for module_name, attr_path, name, counters in LAYERS:
        owner, attr = _resolve(module_name, attr_path)
        done.patch(owner, attr, recorder.wrap(getattr(owner, attr), name,
                                              counters))
    _install_shard_hooks(recorder, done)
    return done


def _install_shard_hooks(recorder: SpanRecorder, done: Installation) -> None:
    """Shard-side hooks: count the service tracer's spans when a shard's
    loop ends, and make a forked worker record and flush its own spans."""
    shard = importlib.import_module("repro.serve.shard")
    daemon = importlib.import_module("repro.serve.daemon")
    loop = shard.ShardRunner.loop

    @functools.wraps(loop)
    def counted_loop(self, stop):
        try:
            return loop(self, stop)
        finally:
            recorder.count("obs.tracer.spans", service_spans(self.service))

    done.patch(shard.ShardRunner, "loop", counted_loop)
    run_worker = daemon.run_worker

    @functools.wraps(run_worker)
    def traced_worker(shard_id, config, *args, **kwargs):
        if not config.processes:  # threads share the parent's recorder
            return recorder.call("serve.run_worker", run_worker, shard_id,
                                 config, *args, **kwargs)
        recorder.reset()  # drop the spans the fork copied from the parent
        try:
            return recorder.call("serve.run_worker", run_worker, shard_id,
                                 config, *args, **kwargs)
        finally:
            recorder.dump(shard_span_path(config.ndjson, shard_id))

    done.patch(daemon, "run_worker", traced_worker)


def shard_span_path(ndjson: str, shard_id: int) -> Path:
    """Where a forked shard writes its spans: beside the run's ndjson."""
    return Path(f"{ndjson}.shard{shard_id}.spans.json")


def service_spans(service) -> int:
    """Spans the service's own tracer closed (its ``Tracer.stats()``)."""
    return sum(s.count for s in service.tracer.stats().values())
