"""HTTP surface of the fleet daemon: /metrics, /healthz, /stream, drain.

One module-scoped daemon (threads, ephemeral port, one injected dead-feed
node, bounded runs) serves most tests; the SIGTERM drain contract gets its
own subprocess running the real ``python -m repro serve`` entry point.
"""

import http.client
import json
import multiprocessing as mp
import os
import queue
import signal
import struct
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.obs import MetricsRegistry, parse_prometheus
from repro.serve import FleetDaemon, ServeConfig, merge
from repro.serve import daemon as daemon_module
from repro.stream import encode_record, iter_jsonl

FAULT_NODE = "node3"


@pytest.fixture(scope="module")
def daemon(serve_model, tmp_path_factory):
    """A drained 4-node / 2-shard daemon whose HTTP surface is still up."""
    ndjson = tmp_path_factory.mktemp("serve") / "stream.jsonl"
    config = ServeConfig(
        nodes=4, shards=2, runs=1, run_seconds=40, chunk_size=16,
        keep_results=True, port=0, ndjson=str(ndjson),
        fault_nodes={FAULT_NODE: "dead-feed"},
    )
    d = FleetDaemon(config, model=serve_model)
    d.start()
    assert d.wait(timeout=180), "daemon failed to drain"
    yield d
    d.stop()


def _get(daemon, path: str):
    host, port = daemon.address
    return urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=30)


def test_metrics_parses_and_merges_shard_registries(daemon):
    with _get(daemon, "/metrics") as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("text/plain")
        families = parse_prometheus(resp.read().decode())
    runs = {s["labels"]["node"]: s["value"]
            for s in families["repro_monitor_runs_total"]["samples"]}
    # every node reported one run, across both shard registries
    assert set(runs) == {"node0", "node1", "node2", FAULT_NODE}
    assert all(v == 1.0 for v in runs.values())
    # colliding per-provenance counters summed into fleet totals
    assert "repro_monitor_samples_total" in families
    # the daemon's own registry rides along in the merge
    assert "repro_serve_events_total" in families
    assert "repro_serve_merge_latency_seconds" in families
    kinds = {s["labels"]["kind"]
             for s in families["repro_serve_events_total"]["samples"]}
    assert {"chunk", "end_run", "state", "done"} <= kinds


def test_healthz_reflects_injected_shard_fault(daemon):
    with _get(daemon, "/healthz") as resp:
        assert resp.status == 200
        payload = json.load(resp)
    assert payload["status"] == "degraded"
    assert payload["drained"] is True
    assert payload["outage_nodes"] == 1
    shard = f"s{daemon.config.shard_of(3)}"
    nodes = payload["shards"][shard]["nodes"]
    assert nodes[FAULT_NODE]["status"] == "outage"
    healthy = {
        node_id: state
        for info in payload["shards"].values()
        for node_id, state in info["nodes"].items()
        if node_id != FAULT_NODE
    }
    assert all(state["status"] == "healthy" for state in healthy.values())
    assert all(info["state"] == "drained"
               for info in payload["shards"].values())


def test_stream_ndjson_round_trips_to_monitor_results(daemon):
    """Replayed /stream lines reassemble bitwise to the MonitorResults."""
    host, port = daemon.address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.request("GET", "/stream")
    resp = conn.getresponse()
    assert resp.status == 200
    assert resp.getheader("Content-Type") == "application/x-ndjson"
    records = [json.loads(line) for line in resp.read().splitlines()]
    conn.close()
    assert {r["event"] for r in records} == {"chunk", "end_run"}
    for node_id, (result,) in daemon.results.items():
        chunks = sorted(
            (r for r in records
             if r["event"] == "chunk" and r["node_id"] == node_id),
            key=lambda r: r["seq"],
        )
        assert [r["start"] for r in chunks] == \
            list(range(0, len(result), daemon.config.chunk_size))
        for channel in ("p_node", "p_cpu", "p_mem"):
            streamed = np.concatenate(
                [np.asarray(r[channel], dtype=np.float64) for r in chunks]
            )
            np.testing.assert_array_equal(
                streamed, getattr(result, channel), err_msg=f"{node_id} {channel}"
            )
        provenance = np.concatenate(
            [np.asarray(r["provenance"]) for r in chunks]
        )
        np.testing.assert_array_equal(provenance, result.provenance)
        assert chunks[-1]["mode"] == result.mode


def test_ndjson_file_matches_the_stream_contract(daemon):
    records = list(iter_jsonl(daemon.config.ndjson))
    assert records, "merge sink wrote no ndjson"
    last_by_node = {}
    for record in records:
        last_by_node[record["node_id"]] = record["event"]
    # drained at a round boundary: every node's stream ends on end_run
    assert set(last_by_node.values()) == {"end_run"}
    assert len(last_by_node) == daemon.config.nodes


def test_stream_lines_equal_the_ndjson_lines_byte_for_byte(daemon):
    host, port = daemon.address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.request("GET", "/stream")
    streamed = conn.getresponse().read().splitlines()
    conn.close()
    assert streamed  # the drained daemon replays every record
    assert streamed == Path(daemon.config.ndjson).read_bytes().splitlines()


def test_collector_encodes_each_record_once(tmp_path, monkeypatch):
    encoded = []

    def spy(record):
        encoded.append(record)
        return encode_record(record)

    monkeypatch.setattr(merge, "encode_record", spy)
    registry = MetricsRegistry()
    hub = merge.StreamHub(registry)
    client = hub.subscribe()
    ndjson = tmp_path / "stream.jsonl"
    collector = merge.EventCollector(registry, hub, n_shards=1,
                                     ndjson=str(ndjson))
    records = [{"event": "chunk", "node_id": "n0", "seq": seq,
                "p_node": [101.5, 99.25 + seq]} for seq in range(3)]
    records.append({"event": "end_run", "node_id": "n0"})
    events = queue.SimpleQueue()
    for record in records:
        events.put((record["event"], 0, time.monotonic(), record))
    events.put(("done", 0, time.monotonic()))
    collector.run(events, 0)
    assert encoded == records
    published = [client.get_nowait() for _ in records]
    assert client.get_nowait() is None  # end of stream
    assert published == [encode_record(r) for r in records]
    assert ndjson.read_bytes().splitlines() == published


def test_unknown_endpoint_is_404(daemon):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(daemon, "/nope")
    assert excinfo.value.code == 404


def test_label_shards_mode_splits_fleet_totals(daemon):
    """label_shards turns the merged view per-shard instead of totals."""
    from dataclasses import replace

    relabelled = FleetDaemon.__new__(FleetDaemon)
    relabelled.config = replace(daemon.config, label_shards=True)
    relabelled.collector = daemon.collector
    relabelled.registry = daemon.registry
    families = parse_prometheus(relabelled.metrics_text())
    shards = {s["labels"].get("shard")
              for s in families["repro_monitor_samples_total"]["samples"]}
    assert shards == {"s0", "s1"}


@pytest.fixture(scope="module")
def hetero_daemon(serve_model, serve_gpu_models):
    """A drained mixed CPU+GPU daemon with the sampling governor on."""
    config = ServeConfig(
        nodes=8, gpu_nodes=2, shards=2, governor=True,
        runs=2, run_seconds=30, chunk_size=16, port=0,
    )
    d = FleetDaemon(config, model=serve_model, gpu=serve_gpu_models)
    d.start()
    assert d.wait(timeout=300), "heterogeneous daemon failed to drain"
    yield d
    d.stop()


def test_mixed_fleet_metrics_export_gpu_attribution(hetero_daemon):
    """/metrics carries per-component (CPU/DRAM/GPU) energy for the mixed
    fleet, and the governor's repro_sched_* series for every node."""
    with _get(hetero_daemon, "/metrics") as resp:
        assert resp.status == 200
        families = parse_prometheus(resp.read().decode())
    energy = families["repro_monitor_component_energy_joules_total"]
    by_component = {}
    for sample in energy["samples"]:
        labels = sample["labels"]
        by_component.setdefault(labels["component"], set()).add(labels["node"])
    assert {"cpu", "mem", "gpu"} <= set(by_component)
    # the accelerated tail of the fleet, and only it, logs GPU energy
    assert by_component["gpu"] == {"node6", "node7"}
    assert by_component["cpu"] == {f"node{i}" for i in range(8)}
    # governor surface: one stride/interval gauge per node, decisions count
    strides = {s["labels"]["node"]: s["value"]
               for s in families["repro_sched_stride"]["samples"]}
    assert set(strides) == {f"node{i}" for i in range(8)}
    assert all(v >= 1.0 for v in strides.values())
    assert any(v > 1.0 for v in strides.values()), \
        "governor never thinned a confident node"
    assert "repro_sched_interval_seconds" in families
    assert "repro_sched_decisions_total" in families


# ------------------------------------------------------------- config plan
def test_shard_layout_partitions_the_fleet():
    config = ServeConfig(nodes=11, shards=3)
    layout = config.shard_layout()
    assert [len(block) for block in layout] == [4, 4, 3]
    flat = [i for block in layout for i in block]
    assert flat == list(range(11))
    for index in range(11):
        assert index in layout[config.shard_of(index)]


@pytest.mark.parametrize("kwargs", [
    {"nodes": 0},
    {"nodes": 2, "shards": 3},
    {"runs": -1},
    {"chunk_size": 0},
    {"fault_nodes": {"node99": "dead-feed"}},
    {"fault_nodes": {"node0": "explode"}},
])
def test_config_validation(kwargs):
    with pytest.raises(ValidationError):
        ServeConfig(**kwargs)


def test_serve_cli_parser_wires_the_subcommand():
    from repro.cli import build_parser

    args = build_parser().parse_args([
        "serve", "--nodes", "16", "--shards", "4", "--port", "0",
        "--runs", "1", "--fault", "node2=dropout", "--processes",
    ])
    assert args.func.__name__ == "cmd_serve"
    assert (args.nodes, args.shards, args.processes) == (16, 4, True)
    assert args.fault == ["node2=dropout"]


# ------------------------------------------------------------ dead worker
def _healthz_body(daemon):
    """(HTTP status, JSON body) of /healthz, 503 included."""
    try:
        with _get(daemon, "/healthz") as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def test_sigkilled_shard_reads_failed_and_does_not_block_the_drain(
        serve_model, tmp_path):
    """A SIGKILLed process-hosted shard posts neither ``error`` nor
    ``done``: /healthz must read it failed (503) and the drain must still
    complete, with the surviving shard's streams ending on ``end_run``."""
    ndjson = tmp_path / "stream.jsonl"
    config = ServeConfig(
        nodes=2, shards=2, runs=0, run_seconds=30, chunk_size=8, port=0,
        processes=True, ndjson=str(ndjson),
    )
    d = FleetDaemon(config, model=serve_model)
    d.start()
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            _, body = _healthz_body(d)
            if all(info["rounds"] >= 1 for info in body["shards"].values()):
                break
            time.sleep(0.2)
        else:
            pytest.fail("shards reported no finished round before timeout")
        (pid,) = [p.pid for p in mp.active_children()
                  if p.name == "repro-serve-shard1"]
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, body = _healthz_body(d)
            if body["status"] == "failed":
                break
            time.sleep(0.2)
        else:
            pytest.fail(f"killed shard still reads alive: {body}")
        assert status == 503
        assert body["shards"]["s1"]["state"] == "failed"
        assert "code -9" in body["shards"]["s1"]["error"]
        assert body["shards"]["s0"]["error"] is None
    finally:
        drained = d.stop(timeout=120)
    assert drained
    last_by_node = {}
    for record in iter_jsonl(ndjson):
        last_by_node[record["node_id"]] = record["event"]
    survivors = [f"node{i}" for i in range(config.nodes)
                 if config.shard_of(i) == 0]
    assert survivors
    assert all(last_by_node[node] == "end_run" for node in survivors)


def _die_holding_the_write_lock(events) -> None:
    events._wlock.acquire()


def _die_mid_message(events) -> None:
    # A length header promising more bytes than ever follow it.
    os.write(events._writer.fileno(), struct.pack("!i", 4096) + b"half")


@pytest.mark.parametrize("die", [_die_holding_the_write_lock,
                                 _die_mid_message],
                         ids=["holding-write-lock", "mid-message"])
def test_a_shard_killed_mid_send_blocks_no_other_shard(
        serve_model, tmp_path, monkeypatch, die):
    """A process shard SIGKILLed in the middle of a send leaves its event
    channel's write lock held, or half a message in the pipe. That must
    stall no other shard and not the drain: each shard sends over a
    channel of its own, and the daemon posts the dead shard's ``error``
    and ``done`` straight to the collector."""
    real_worker = daemon_module.run_worker

    def worker(shard_id, config, model, events, stop, gpu=None):
        if shard_id == 1:
            die(events)
            os.kill(os.getpid(), signal.SIGKILL)
        real_worker(shard_id, config, model, events, stop, gpu)

    monkeypatch.setattr(daemon_module, "run_worker", worker)
    ndjson = tmp_path / "stream.jsonl"
    config = ServeConfig(
        nodes=2, shards=2, runs=1, run_seconds=30, chunk_size=8, port=0,
        processes=True, ndjson=str(ndjson),
    )
    d = FleetDaemon(config, model=serve_model)
    d.start()
    try:
        drained = d.wait(timeout=60)
        status, body = _healthz_body(d)
    finally:
        d.stop(timeout=5)
    assert drained
    assert status == 503
    assert "code -9" in body["shards"]["s1"]["error"]
    assert body["shards"]["s0"]["state"] == "drained"
    survivors = {f"node{i}" for i in range(config.nodes)
                 if config.shard_of(i) == 0}
    records = list(iter_jsonl(ndjson))
    assert {r["node_id"] for r in records} == survivors
    assert all(r["event"] == "end_run" for r in records[-len(survivors):])


# ---------------------------------------------------------------- SIGTERM
def test_sigterm_drains_without_truncating_ndjson(tmp_path):
    """SIGTERM on a runs=0 daemon finishes the in-flight round: every
    ndjson line parses and every node's stream ends on a run boundary."""
    ndjson = tmp_path / "drain.jsonl"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--nodes", "2",
         "--shards", "2", "--runs", "0", "--seconds", "30",
         "--chunk-size", "8", "--port", "0", "--ndjson", str(ndjson)],
        cwd=Path(__file__).resolve().parent.parent,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if ndjson.exists() and "end_run" in ndjson.read_text():
                break
            time.sleep(0.2)
        else:
            pytest.fail("daemon produced no complete run before timeout")
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "drained: status=ok" in out
    records = list(iter_jsonl(ndjson))  # json.loads raises on truncation
    last_by_node = {}
    for record in records:
        last_by_node[record["node_id"]] = record["event"]
    assert set(last_by_node.values()) == {"end_run"}
