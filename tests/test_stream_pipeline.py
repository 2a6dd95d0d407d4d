"""Unit tests for the generic stream layer: chunks, stages, sinks.

The monitor pipeline and the fleet front-end are built on these pieces;
here they are exercised in isolation with toy stages.
"""

import json
import queue
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.monitor import MemoryLogSink, MonitorLog
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.serve import merge
from repro.stream import (
    JsonlSink,
    PowerChunk,
    RunContext,
    Stage,
    StreamPipeline,
    chunk_record,
    chunk_spans,
    encode_record,
    end_run_record,
    iter_jsonl,
)

#: Values on which the wire encoder writes what ``json.dumps`` writes:
#: ASCII strings without DEL, 64-bit ints, floats in ``[1e-4, 1e16)`` by
#: magnitude and the two zeros.
_SAME_AS_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(),
        st.text(st.characters(min_codepoint=0, max_codepoint=126)),
        st.integers(-(2 ** 63), 2 ** 63 - 1),
        st.floats(1e-4, 1e16, exclude_max=True),
        st.floats(-1e16, -1e-4, exclude_min=True),
        st.sampled_from([0.0, -0.0]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=8),
        st.dictionaries(
            st.text(st.characters(min_codepoint=0, max_codepoint=126)),
            inner, max_size=8,
        ),
    ),
    max_leaves=40,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestChunkSpans:
    def test_tiles_the_range_exactly(self):
        spans = chunk_spans(10, 3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_none_chunk_size_is_one_whole_chunk(self):
        assert chunk_spans(42, None) == [(0, 42)]

    def test_empty_run_has_no_spans(self):
        assert chunk_spans(0, 4) == []

    def test_rejects_non_positive_chunk_size(self):
        with pytest.raises(ValidationError, match="chunk_size must be >= 1"):
            chunk_spans(10, 0)

    def test_chunk_len_matches_span(self):
        chunk = PowerChunk(node_id="n", workload="w", start=5, stop=9)
        assert chunk.n_samples == 4
        assert len(chunk) == 4


class _Double(Stage):
    """Toy stage: doubles p_node in place."""

    name = "double"

    def process(self, ctx, chunk):
        chunk.p_node = chunk.p_node * 2.0
        return chunk


class _Collect(Stage):
    name = "collect"

    def open_run(self, ctx):
        ctx.collected = []

    def process(self, ctx, chunk):
        ctx.collected.append(chunk)
        return chunk


def _chunks(k, size=4):
    return [
        PowerChunk(node_id="n", workload="w", start=i * size,
                   stop=(i + 1) * size, seq=i,
                   p_node=np.full(size, float(i + 1)))
        for i in range(k)
    ]


def _drive(pipe, ctx, chunks):
    """Open the run, step every chunk through each stage with ``apply``,
    close the run; returns the chunks that left the last stage."""
    assert pipe.open_all([ctx]) == []
    out = []
    for chunk in chunks:
        alive = [chunk]
        for i in range(len(pipe.stages)):
            alive = [c2 for c in alive for c2 in pipe.apply(ctx, c, i)]
        out.extend(alive)
    pipe.close_run(ctx)
    return out


class TestStreamPipeline:
    def test_chunks_traverse_stages_in_order(self):
        pipe = StreamPipeline([_Double(), _Collect()])
        ctx = RunContext("n", "w", 12)
        out = _drive(pipe, ctx, _chunks(3))
        assert [c.seq for c in out] == [0, 1, 2]
        assert all(np.all(c.p_node == 2.0 * (c.seq + 1)) for c in out)
        assert ctx.collected == out

    def test_absorbed_chunk_stops_descending(self):
        class Absorb(Stage):
            name = "absorb"

            def process(self, ctx, chunk):
                return None

        pipe = StreamPipeline([Absorb(), _Collect()])
        ctx = RunContext("n", "w", 8)
        assert _drive(pipe, ctx, _chunks(2)) == []
        assert ctx.collected == []

    def test_stage_metrics_count_chunks_and_samples(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            _drive(StreamPipeline([_Double()]), RunContext("n", "w", 12),
                   _chunks(3))
        chunks = registry.counter(
            "repro_stream_chunks_total", "", ("stage",)
        ).labels(stage="double")
        samples = registry.counter(
            "repro_stream_samples_total", "", ("stage",)
        ).labels(stage="double")
        assert chunks.value == 3.0
        assert samples.value == 12.0

    def test_apply_runs_exactly_one_stage(self):
        pipe = StreamPipeline([_Double(), _Double()])
        ctx = RunContext("n", "w", 4)
        [chunk] = _chunks(1)
        emitted = pipe.apply(ctx, chunk, 0)
        assert len(emitted) == 1 and np.all(emitted[0].p_node == 2.0)


class _Traced(_Double):
    name = "traced"
    span = "toy.traced"


class TestApplyAll:
    """One stage over a batch of (ctx, chunk) items from several runs."""

    def _items(self, n_runs=3):
        ctxs = [RunContext(f"n{i}", "w", 8) for i in range(n_runs)]
        return [(ctx, chunk) for ctx in ctxs for chunk in _chunks(1)]

    def test_steps_every_item_in_order_under_one_span(self):
        registry, tracer = MetricsRegistry(), Tracer()
        pipe = StreamPipeline([_Traced(), _Collect()])
        items = self._items()
        assert pipe.open_all([ctx for ctx, _ in items]) == []
        with use_registry(registry), use_tracer(tracer):
            out = pipe.apply_all(items, 0)
            out = pipe.apply_all(out, 1)
        assert [ctx for ctx, _ in out] == [ctx for ctx, _ in items]
        assert all(ctx.collected == [chunk] and np.all(chunk.p_node == 2.0)
                   for ctx, chunk in out)
        assert tracer.stats()["toy.traced"].count == 1
        for stage in ("traced", "collect"):
            assert registry.counter(
                "repro_stream_chunks_total", "", ("stage",)
            ).labels(stage=stage).value == 3.0
            assert registry.counter(
                "repro_stream_samples_total", "", ("stage",)
            ).labels(stage=stage).value == 12.0

    def test_empty_batch_opens_no_span_and_counts_nothing(self):
        registry, tracer = MetricsRegistry(), Tracer()
        with use_registry(registry), use_tracer(tracer):
            assert StreamPipeline([_Traced()]).apply_all([], 0) == []
        assert "toy.traced" not in tracer.stats()
        assert registry.counter(
            "repro_stream_chunks_total", "", ("stage",)
        ).labels(stage="traced").value == 0.0

    def test_emitted_lists_and_absorbed_chunks(self):
        class SplitOrAbsorb(Stage):
            name = "split"

            def process(self, ctx, chunk):
                if ctx.node_id == "n1":
                    return None
                return [chunk, chunk]

        out = StreamPipeline([SplitOrAbsorb()]).apply_all(self._items(), 0)
        assert [ctx.node_id for ctx, _ in out] == ["n0", "n0", "n2", "n2"]

    def test_out_keeps_what_a_raising_stage_had_finished(self):
        class FailsOnN1(Stage):
            name = "fails"

            def process(self, ctx, chunk):
                if ctx.node_id == "n1":
                    raise OSError("sink full")
                return chunk

        items, out = self._items(), []
        with pytest.raises(OSError, match="sink full"):
            StreamPipeline([FailsOnN1()]).apply_all(items, 0, out)
        assert out == items[:1]

    def test_a_stage_can_batch_across_runs(self):
        class Batched(Stage):
            name = "batched"
            calls = []

            def process_all(self, items, out):
                self.calls.append(len(items))
                out.extend(items)

        stage = Batched()
        items = self._items()
        assert StreamPipeline([stage]).apply_all(items, 0) == items
        assert stage.calls == [3]
        # apply is the batch of one
        ctx, chunk = items[0]
        assert StreamPipeline([stage]).apply(ctx, chunk, 0) == [chunk]
        assert stage.calls == [3, 1]


class TestOpenAll:
    """A round's opens: each stage once over the runs still standing."""

    def test_stage_major_and_a_raising_run_is_lost_alone(self):
        order = []

        class Opens(Stage):
            span = "toy.open"

            def __init__(self, name, fails=()):
                self.name, self.fails = name, fails

            def open_run(self, ctx):
                order.append((self.name, ctx.node_id))
                if ctx.node_id in self.fails:
                    raise OSError(f"{ctx.node_id} broke")

        tracer = Tracer()
        ctxs = [RunContext(f"n{i}", "w", 8) for i in range(3)]
        pipe = StreamPipeline([Opens("a", fails=("n1",)), Opens("b")])
        with use_tracer(tracer):
            lost = pipe.open_all(ctxs)
        assert [(ctx.node_id, str(exc)) for ctx, exc in lost] \
            == [("n1", "n1 broke")]
        assert order == [("a", "n0"), ("a", "n1"), ("a", "n2"),
                         ("b", "n0"), ("b", "n2")]
        assert tracer.stats()["toy.open"].count == 2


class TestCloseAll:
    """A tick's finished runs: each stage once over them, stage-major."""

    def test_stage_major_through_each_stages_close_run(self):
        order = []

        class Closes(Stage):
            def __init__(self, name):
                self.name = name

            def close_run(self, ctx):
                order.append((self.name, ctx.node_id))

        pipe = StreamPipeline([Closes("a"), Closes("b")])
        pipe.close_all([RunContext(f"n{i}", "w", 8) for i in range(2)])
        assert order == [("a", "n0"), ("a", "n1"), ("b", "n0"), ("b", "n1")]
        order.clear()
        pipe.close_run(RunContext("n9", "w", 8))  # the batch of one
        assert order == [("a", "n9"), ("b", "n9")]


class TestJsonlSink:
    def _chunk(self, start, stop, seq):
        n = stop - start
        return PowerChunk(
            node_id="n0", workload="fft", start=start, stop=stop, seq=seq,
            mode="dynamic", p_node=np.arange(n, dtype=float) + start,
            p_cpu=np.ones(n), p_mem=np.zeros(n),
            provenance=np.full(n, 2, dtype=np.uint8),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlSink(path) as sink:
            sink.write(self._chunk(0, 4, 0))
            sink.write(self._chunk(4, 6, 1))
            sink.end_run("n0", "fft", "dynamic")
        records = list(iter_jsonl(path))
        assert [r["event"] for r in records] == ["chunk", "chunk", "end_run"]
        assert records[0]["p_node"] == [0.0, 1.0, 2.0, 3.0]
        assert records[1]["start"] == 4 and records[1]["stop"] == 6
        assert records[0]["provenance"] == [2, 2, 2, 2]
        assert records[2] == {
            "event": "end_run", "node_id": "n0", "workload": "fft",
            "mode": "dynamic",
        }

    def test_appends_across_reopens(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlSink(path) as sink:
            sink.write(self._chunk(0, 2, 0))
        with JsonlSink(path) as sink:
            sink.write(self._chunk(2, 4, 1))
        assert len(list(iter_jsonl(path))) == 2

    @given(_SAME_AS_JSON)
    def test_encoder_writes_what_json_dumps_writes(self, value):
        record = {"event": "chunk", "value": value}
        assert encode_record(record) \
            == json.dumps(record, separators=(",", ":")).encode()

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(5e-324)  # the smallest subnormal
    @example(2.2250738585072009e-308)  # the largest subnormal
    @example(2.2250738585072014e-308)  # the smallest normal
    @example(1e-05)
    @example(1e16)
    @example(-0.0)
    @example(1.7976931348623157e308)
    def test_every_finite_float_round_trips_bitwise(self, x):
        back = json.loads(encode_record({"p_node": [x]}))["p_node"][0]
        assert _bits(back) == _bits(x)

    def test_non_finite_values_encode_as_null(self, tmp_path):
        chunk = self._chunk(0, 4, 0)
        chunk.p_node = np.array([1.5, np.nan, np.inf, -np.inf])
        record = chunk_record(chunk)
        assert b'"p_node":[1.5,null,null,null]' in encode_record(record)
        path = tmp_path / "log.jsonl"
        with JsonlSink(path) as sink:
            sink.write(chunk)
        (back,) = iter_jsonl(path)
        assert back["p_node"] == [1.5, None, None, None]

    def test_sink_line_is_the_collector_line(self, tmp_path):
        chunks = [self._chunk(0, 4, 0), self._chunk(4, 6, 1)]
        chunks[1].p_node = np.array([0.1, 1 / 3])
        chunks[1].p_gpu = np.array([1e-05, 2.5e16])
        sink_path = tmp_path / "sink.jsonl"
        with JsonlSink(sink_path) as sink:
            for chunk in chunks:
                sink.write(chunk)
            sink.end_run("n0", "fft", "dynamic")
        registry = MetricsRegistry()
        hub = merge.StreamHub(registry)
        client = hub.subscribe()
        daemon_path = tmp_path / "daemon.jsonl"
        collector = merge.EventCollector(registry, hub, n_shards=1,
                                         ndjson=str(daemon_path))
        events = queue.SimpleQueue()
        for chunk in chunks:
            events.put(("chunk", 0, time.monotonic(), chunk_record(chunk)))
        events.put(("end_run", 0, time.monotonic(),
                    end_run_record("n0", "fft", "dynamic")))
        events.put(("done", 0, time.monotonic()))
        collector.run(events, 0)
        lines = sink_path.read_bytes().splitlines()
        assert len(lines) == 3
        assert daemon_path.read_bytes().splitlines() == lines
        assert [client.get_nowait() for _ in lines] == lines


def _restored(node_id, workload, start, values, mode="dynamic"):
    """A finished chunk of ``values`` as restored node power."""
    n = len(values)
    return PowerChunk(
        node_id=node_id, workload=workload, start=start, stop=start + n,
        mode=mode, p_node=np.asarray(values, dtype=np.float64),
        p_cpu=np.zeros(n), p_mem=np.zeros(n),
        provenance=np.full(n, 2, dtype=np.uint8),
    )


class TestMemoryLogSink:
    def test_feeds_monitor_log(self):
        sink = MemoryLogSink()
        sink.write(_restored("n0", "fft", 0, [1.0, 2.0, 3.0]))
        sink.end_run("n0", "fft", "dynamic")
        log = sink.log("n0")
        assert log.runs == ["fft"] and log.modes == ["dynamic"]
        assert len(log) == 3
        np.testing.assert_array_equal(log.p_node, [1.0, 2.0, 3.0])

    def test_interleaved_nodes_land_in_separate_logs(self):
        sink = MemoryLogSink()
        sink.write(_restored("a", "fft", 0, [1.0, 2.0]))
        sink.write(_restored("b", "gcc", 0, [10.0], mode="static"))
        sink.write(_restored("a", "fft", 2, [3.0]))
        sink.end_run("a", "fft", "dynamic")
        sink.write(_restored("b", "gcc", 1, [11.0, 12.0], mode="static"))
        sink.end_run("b", "gcc", "static")
        sink.write(_restored("a", "mcf", 0, [4.0]))
        sink.end_run("a", "mcf", "dynamic")
        a, b = sink.log("a"), sink.log("b")
        assert a.node_id == "a" and b.node_id == "b"
        np.testing.assert_array_equal(a.p_node, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(b.p_node, [10.0, 11.0, 12.0])
        assert a.runs == ["fft", "mcf"] and a.modes == ["dynamic", "dynamic"]
        assert b.runs == ["gcc"] and b.modes == ["static"]

    def test_run_boundary_alone_creates_the_log(self):
        sink = MemoryLogSink()
        sink.end_run("n0", "fft", "model_only")
        assert sink.log("n0").runs == ["fft"] and len(sink.log("n0")) == 0

    def test_unknown_node_rejected(self):
        sink = MemoryLogSink()
        sink.write(_restored("n0", "fft", 0, [1.0]))
        with pytest.raises(ValidationError, match="ghost"):
            sink.log("ghost")


class TestMonitorLogChunked:
    def test_many_appends_consolidate_lazily(self):
        log = MonitorLog("n0")
        for i in range(50):
            log.append_chunk(_restored("n0", "fft", 2 * i, [float(i)] * 2))
        assert len(log._parts["p_node"]) == 50
        assert len(log) == 100
        assert log.p_node.shape == (100,)
        # Property access consolidated the chunk list down to one block.
        assert len(log._parts["p_node"]) == 1
        np.testing.assert_array_equal(log.p_node[:2], [0.0, 0.0])
        np.testing.assert_array_equal(log.p_node[-2:], [49.0, 49.0])

    def test_empty_log_channels(self):
        log = MonitorLog("n0")
        assert log.p_node.shape == (0,)
        assert log.provenance.dtype == np.uint8
        assert log.model_only_fraction() == 0.0
