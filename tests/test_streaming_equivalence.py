"""Chunked pipeline output is bit-identical to whole-run ``observe_run``.

Exercised on the golden reference service (the anchor of
``tests/fixtures/golden_monitor.npz``) for all three restoration modes:
online (dynamic), offline (static) and model-only (dead IM feed). The
sensors draw per-sample noise from their RNG, so every compared path gets
its own same-seed service — identical inputs, so any output difference is
the streaming decomposition's fault.
"""

import pathlib

import numpy as np
import pytest

from repro.calib import IDENTITY, CompensationTransform
from repro.core import HighRPM
from repro.faults import FaultySensor, GainDrift, OutageWindow
from repro.monitor import FleetMonitor, MemoryLogSink, PowerMonitorService
from repro.obs import MetricsRegistry
from repro.sensors import IPMISensor
from repro.stream import JsonlSink, Sink, iter_jsonl

GOLDEN_PATH = pathlib.Path(__file__).parent / "fixtures" / "golden_monitor.npz"
CHUNK_SIZES = [7, 64]

#: A non-trivial compensation for the calibrated equivalence runs: lag
#: shift plus a two-knot schedule, so every transform code path streams.
EQ_TRANSFORM = CompensationTransform(
    lag_s=2, knots_s=(0, 140), scales=(1.0 / 1.15, 1.0 / 1.25),
    offsets_w=(-3.0, -6.0),
)


def _twin_services(chaos_reference, n=2, dead=False, calibrate=None):
    """n fresh same-seed services over the shared trained model, each
    logging into its own MemoryLogSink (``svc.sinks[0]``).

    ``calibrate`` registers the same transform (a faulted feed underneath,
    so the compensation has something to undo) on every twin; pass
    ``IDENTITY`` to exercise the disabled-stage path explicitly.
    """
    reference, _ = chaos_reference
    services = []
    for _ in range(n):
        svc = PowerMonitorService(reference.model, reference.spec,
                                  sinks=[MemoryLogSink()])
        if dead:
            svc.register_node("eq-node", sensor=FaultySensor(
                IPMISensor(reference.spec, seed=41),
                faults=[OutageWindow(0, 10_000_000)], seed=42,
            ))
        elif calibrate is not None:
            svc.register_node("eq-node", sensor=FaultySensor(
                IPMISensor(reference.spec, seed=43),
                faults=[GainDrift(gain_start=1.15, gain_end=1.25,
                                  bias_start_w=3.0, bias_end_w=6.0)],
                seed=44,
            ))
            svc.set_calibration("eq-node", calibrate)
        else:
            svc.register_node("eq-node", seed=33)
        services.append(svc)
    return services


def _assert_identical(a, b):
    np.testing.assert_array_equal(a.p_node, b.p_node)
    np.testing.assert_array_equal(a.p_cpu, b.p_cpu)
    np.testing.assert_array_equal(a.p_mem, b.p_mem)
    np.testing.assert_array_equal(a.provenance, b.provenance)
    assert (a.p_gpu is None) == (b.p_gpu is None)
    if a.p_gpu is not None:
        np.testing.assert_array_equal(a.p_gpu, b.p_gpu)
    assert a.mode == b.mode


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize(
    "online,dead", [(True, False), (False, False), (True, True)],
    ids=["online", "offline", "model_only"],
)
def test_chunked_equals_whole_run(chaos_reference, online, dead, chunk_size):
    _, bundle = chaos_reference
    whole_svc, chunk_svc = _twin_services(chaos_reference, dead=dead)
    whole = whole_svc.observe_run("eq-node", bundle, online=online)
    chunked = chunk_svc.observe_run(
        "eq-node", bundle, online=online, chunk_size=chunk_size
    )
    if dead:
        assert whole.mode == "model_only"
    _assert_identical(whole, chunked)
    whole_log = whole_svc.sinks[0].log("eq-node")
    chunk_log = chunk_svc.sinks[0].log("eq-node")
    np.testing.assert_array_equal(whole_log.p_node, chunk_log.p_node)
    assert whole_log.modes == chunk_log.modes
    assert (whole_svc.health("eq-node").status
            == chunk_svc.health("eq-node").status)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize(
    "transform", [EQ_TRANSFORM, IDENTITY], ids=["compensated", "identity"]
)
@pytest.mark.parametrize("online", [True, False], ids=["online", "offline"])
def test_calibrated_chunked_and_fleet_equal_whole_run(
    chaos_reference, online, transform, chunk_size
):
    """With the calibrate stage enabled (real transform or identity), the
    whole-run, chunked, and fleet-batched paths stay bit-identical."""
    _, bundle = chaos_reference
    whole_svc, chunk_svc, fleet_svc = _twin_services(
        chaos_reference, n=3, calibrate=transform
    )
    whole = whole_svc.observe_run("eq-node", bundle, online=online)
    chunked = chunk_svc.observe_run(
        "eq-node", bundle, online=online, chunk_size=chunk_size
    )
    fleet = FleetMonitor(fleet_svc, chunk_size=chunk_size).observe_all(
        {"eq-node": bundle}, online=online
    )["eq-node"]
    _assert_identical(whole, chunked)
    _assert_identical(whole, fleet)


def test_identity_calibration_equals_uncalibrated_bitwise(chaos_reference):
    """A registered identity transform must be a guaranteed no-op — same
    bits as a node with no calibration at all."""
    from repro.obs import MetricsRegistry

    reference, bundle = chaos_reference
    plain_svc, = _twin_services(chaos_reference, n=1)
    ident_svc = PowerMonitorService(
        reference.model, reference.spec, registry=MetricsRegistry()
    )
    ident_svc.register_node("eq-node", seed=33)
    ident_svc.set_calibration("eq-node", IDENTITY)
    plain = plain_svc.observe_run("eq-node", bundle)
    ident = ident_svc.observe_run("eq-node", bundle)
    _assert_identical(plain, ident)
    snap = ident_svc.registry.snapshot()
    assert "repro_calib_runs_total" not in snap  # the stage never fired


def test_chunked_healthy_run_matches_golden_fixture(chaos_reference):
    """The streamed path reproduces the pinned golden traces, not just the
    current whole-run behaviour."""
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing - run scripts/make_golden_monitor.py"
    )
    with np.load(GOLDEN_PATH) as data:
        golden = {k: data[k] for k in data.files}
    reference, bundle = chaos_reference
    svc = PowerMonitorService(reference.model, reference.spec)
    # Same sensor seed as the fixture's healthy run (repro.faults.golden).
    from repro.faults.golden import _HEALTHY_SENSOR_SEED

    svc.register_node(
        "golden-chunked",
        sensor=IPMISensor(reference.spec,
                          seed=7 + _HEALTHY_SENSOR_SEED),
    )
    result = svc.observe_run("golden-chunked", bundle, chunk_size=32)
    for channel in ("p_node", "p_cpu", "p_mem"):
        np.testing.assert_allclose(
            getattr(result, channel), golden[f"healthy_{channel}"],
            rtol=1e-3, atol=1e-2,
        )
    np.testing.assert_array_equal(result.provenance,
                                  golden["healthy_provenance"])


class _Spans(Sink):
    """Records the span of every chunk that reaches the sinks."""

    def __init__(self) -> None:
        self.spans = []

    def write(self, chunk) -> None:
        self.spans.append((chunk.start, chunk.stop))

    def end_run(self, node_id, workload, mode) -> None:
        pass


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_monitor_stream_pieces_tile_and_match(chaos_reference, chunk_size):
    """The fleet's streamed pieces tile [0, n) in order, and the chunked
    run equals the core model's whole-run restoration of a same-seed
    twin's readings bit for bit."""
    reference, bundle = chaos_reference
    model: HighRPM = reference.model
    readings = IPMISensor(reference.spec, seed=17).sample(bundle)
    pmcs = bundle.pmcs.matrix
    for online in (True, False):
        pieces = _Spans()
        svc = PowerMonitorService(model, reference.spec,
                                  registry=MetricsRegistry(), sinks=[pieces])
        svc.register_node("eq-node",
                          sensor=IPMISensor(reference.spec, seed=17))
        got = svc.observe_run("eq-node", bundle, online=online,
                              chunk_size=chunk_size)
        # The gate kept every reading, so the run saw the twin's feed.
        health = svc.health("eq-node")
        assert health.gated_readings == 0 and health.retries == 0
        starts = [0] + [stop for _, stop in pieces.spans]
        assert [start for start, _ in pieces.spans] == starts[:-1]
        assert starts[-1] == pmcs.shape[0]
        whole = (model.monitor_online if online else model.monitor_offline)(
            pmcs, readings
        )
        assert got.mode == whole.mode
        np.testing.assert_array_equal(got.p_node, whole.p_node)
        np.testing.assert_array_equal(got.p_cpu, whole.p_cpu)
        np.testing.assert_array_equal(got.provenance, whole.provenance)


@pytest.mark.parametrize("shards,processes", [(1, False), (3, False), (2, True)],
                         ids=["one-shard", "three-shards", "two-procs"])
def test_sharded_daemon_equals_single_process_fleet(
    serve_model, shards, processes
):
    """The daemon's sharded outputs are bitwise-equal to one FleetMonitor.

    Sharding is a layout, not a semantic: node seeds derive from global
    indices and observation never mutates the shared model, so any shard
    count — threads or worker processes — yields the same bits as a
    single-process fleet over the same nodes.
    """
    from repro.hardware import NodeSimulator, get_platform
    from repro.obs import MetricsRegistry
    from repro.serve import FleetDaemon, ServeConfig
    from repro.workloads import default_catalog

    config = ServeConfig(nodes=5, shards=shards, processes=processes,
                         runs=1, run_seconds=40, chunk_size=16,
                         keep_results=True, port=0)
    daemon = FleetDaemon(config, model=serve_model)
    daemon.start()
    assert daemon.wait(timeout=180)
    daemon.stop()

    spec = get_platform(config.platform)
    workload = default_catalog(config.seed).get(config.workload)
    reference = PowerMonitorService(serve_model, spec,
                                    registry=MetricsRegistry())
    bundles = {}
    for i in range(config.nodes):
        node_id = f"node{i}"
        reference.register_node(node_id, sensor=IPMISensor(
            spec, interval_s=config.interval_s, seed=config.seed + i
        ))
        bundles[node_id] = NodeSimulator(spec, seed=config.seed + i).run(
            workload, duration_s=config.run_seconds
        )
    expected = FleetMonitor(
        reference, chunk_size=config.chunk_size
    ).observe_all(bundles)

    assert sorted(daemon.results) == sorted(expected)
    for node_id, want in expected.items():
        (got,) = daemon.results[node_id]
        _assert_identical(want, got)


@pytest.mark.parametrize("shards,processes", [(3, False), (2, True)],
                         ids=["three-shards", "two-procs"])
def test_mixed_fleet_sharded_equals_single_process(
    serve_model, serve_gpu_models, shards, processes
):
    """Heterogeneous bit-identity: a governed mixed CPU+GPU fleet yields
    the same bits sharded as in one process, across two governed rounds.

    Round 0 runs dense and feeds the governor; round 1 runs under the
    resulting per-node strides — so the comparison covers the full loop:
    device-class dispatch (two-way and three-way heads), per-head fleet
    batching, governor thinning, and the shard/merge transport.
    """
    from repro.gpu import AcceleratedNodeSimulator, gpu_workload
    from repro.hardware import NodeSimulator, get_platform
    from repro.monitor import GPUSRRHead, NodeProfile, SamplingGovernor
    from repro.obs import MetricsRegistry
    from repro.serve import FleetDaemon, ServeConfig
    from repro.workloads import default_catalog

    config = ServeConfig(nodes=8, gpu_nodes=2, shards=shards,
                         processes=processes, governor=True,
                         runs=2, run_seconds=40, chunk_size=16,
                         keep_results=True, port=0)
    daemon = FleetDaemon(config, model=serve_model, gpu=serve_gpu_models)
    daemon.start()
    assert daemon.wait(timeout=300)
    daemon.stop()

    spec = get_platform(config.platform)
    catalog = default_catalog(config.seed)
    workload = catalog.get(config.workload)
    accel_workload = gpu_workload(config.gpu_workload, seed=config.seed)
    gpu_model, gpu_srr = serve_gpu_models
    reference = PowerMonitorService(serve_model, spec,
                                    registry=MetricsRegistry())
    reference.register_device_class("gpu", gpu_model,
                                    head=GPUSRRHead(gpu_srr))
    reference.set_governor(SamplingGovernor(config.governor_policy()))
    bundles = {}
    for node_id, index in config.node_plan():
        device_class = config.device_class_of_index(index)
        reference.register_node(node_id, sensor=IPMISensor(
            spec, interval_s=config.interval_s, seed=config.seed + index
        ), profile=NodeProfile(device_class=device_class,
                               seed=config.seed + index,
                               interval_s=config.interval_s))
        if device_class == "gpu":
            bundles[node_id] = AcceleratedNodeSimulator(
                host_spec=spec, seed=config.seed + index
            ).run(accel_workload, duration_s=config.run_seconds)
        else:
            bundles[node_id] = NodeSimulator(
                spec, seed=config.seed + index
            ).run(workload, duration_s=config.run_seconds)
    fleet = FleetMonitor(reference, chunk_size=config.chunk_size)
    expected = [fleet.observe_all(bundles, online=config.online)
                for _ in range(config.runs)]

    # The governor actually thinned someone in round 1, and the GPU nodes
    # carry a real accelerator channel — otherwise this test proves less
    # than it claims.
    assert any(reference.sampling_stride(n) > 1 for n in bundles)
    assert sorted(daemon.results) == sorted(bundles)
    for node_id in bundles:
        got_rounds = daemon.results[node_id]
        assert len(got_rounds) == config.runs
        for round_i, got in enumerate(got_rounds):
            want = expected[round_i][node_id]
            _assert_identical(want, got)
        if config.device_class_of_index(int(node_id.removeprefix("node"))) \
                == "gpu":
            assert got_rounds[0].p_gpu is not None
            assert float(got_rounds[0].p_gpu.sum()) > 0.0


def test_jsonl_sink_mirrors_the_memory_log(chaos_reference, tmp_path):
    reference, bundle = chaos_reference
    path = tmp_path / "chunks.jsonl"
    memlog = MemoryLogSink()
    svc = PowerMonitorService(reference.model, reference.spec,
                              sinks=[JsonlSink(path), memlog])
    svc.register_node("eq-node", seed=33)
    svc.observe_run("eq-node", bundle, chunk_size=50)
    records = list(iter_jsonl(path))
    chunks = [r for r in records if r["event"] == "chunk"]
    assert records[-1]["event"] == "end_run"
    assert [r["start"] for r in chunks] == sorted(r["start"] for r in chunks)
    streamed = np.concatenate([r["p_node"] for r in chunks])
    np.testing.assert_array_equal(streamed, memlog.log("eq-node").p_node)
