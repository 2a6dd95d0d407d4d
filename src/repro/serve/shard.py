"""Shard workers: one FleetMonitor tick loop per shard, events out a queue.

A shard hosts a contiguous block of the fleet (see
:meth:`~repro.serve.config.ServeConfig.shard_layout`) behind its own
:class:`~repro.monitor.PowerMonitorService` with an **explicit, private**
:class:`~repro.obs.MetricsRegistry` — ambient registries do not cross
process boundaries, and the daemon merges the per-shard snapshots for
``/metrics`` (:mod:`repro.obs.merge`).

:func:`run_worker` is the process/thread entry point. Everything it emits
travels one way over the event queue as plain tuples::

    ("chunk",   shard, t_emit, record)   # JsonlSink-shaped chunk record
    ("end_run", shard, t_emit, record)   # run-boundary record
    ("result",  shard, node_id, round, MonitorResult)   # keep_results only
    ("state",   shard, t_emit, {"metrics": ..., "health": ..., ...})
    ("error",   shard, "ExcType: message")
    ("done",    shard, t_emit)           # always the shard's last event

``t_emit`` is ``time.monotonic()`` — on Linux that is ``CLOCK_MONOTONIC``,
comparable across processes, so the collector can price the merge-sink
latency. The loop drains at *round* boundaries: a stop request lets every
in-flight run finish, so downstream ndjson never ends mid-run.
"""

from __future__ import annotations

import gc
import time

from ..errors import ValidationError
from ..faults.inject import FaultySensor
from ..faults.models import OutageWindow, RandomDropout
from ..gpu import AcceleratedNodeSimulator, gpu_workload
from ..hardware.node import NodeSimulator
from ..hardware.platform import get_platform
from ..monitor import (
    FleetMonitor,
    GPUSRRHead,
    NodeProfile,
    PowerMonitorService,
    SamplingGovernor,
)
from ..obs import MetricsRegistry
from ..sensors.ipmi import IPMISensor
from ..stream import Sink, chunk_record, end_run_record
from ..workloads.catalog import default_catalog
from .config import ServeConfig


class QueueSink(Sink):
    """Stream every finished chunk / run boundary onto the event queue.

    Records are the :func:`~repro.stream.chunk_record` wire shape — the
    exact lines a :class:`~repro.stream.JsonlSink` would write — so the
    daemon's ``/stream`` endpoint and ndjson file need no re-encoding.
    """

    def __init__(self, shard_id: int, events) -> None:
        self.shard_id = shard_id
        self.events = events
        #: records put so far.
        self.records = 0

    def write(self, chunk) -> None:
        self.events.put(
            ("chunk", self.shard_id, time.monotonic(), chunk_record(chunk))
        )
        self.records += 1

    def end_run(self, node_id: str, workload: str, mode: str) -> None:
        self.events.put(
            ("end_run", self.shard_id, time.monotonic(),
             end_run_record(node_id, workload, mode))
        )
        self.records += 1


def _faulted_sensor(sensor, preset: str, index: int, config: ServeConfig):
    """Wrap a node's sensor per its configured fault preset.

    Seeded by global node index — same rule as every other per-node seed.
    """
    if preset == "dead-feed":
        return FaultySensor(
            sensor, faults=(OutageWindow(0, 10 * config.run_seconds),),
            seed=config.seed + index,
        )
    if preset == "flaky-reads":
        return FaultySensor(sensor, seed=config.seed + index, fail_first=2)
    # "dropout" — ServeConfig validated membership already
    return FaultySensor(
        sensor, faults=(RandomDropout(0.3),), seed=config.seed + index
    )


#: Longest a shard waits after a round for the daemon's collector to catch
#: up (:meth:`ShardRunner.await_collector`), and how often it looks.
BACKLOG_WAIT_S = 2.0
BACKLOG_POLL_S = 0.002


class ShardRunner:
    """One shard's service, fleet front-end, and tick loop.

    ``gpu`` ships the GPU device class's trained pair
    ``(HighRPM, GPUSRR)`` when the fleet has accelerated nodes — every
    shard registers the class (harmless for shards hosting none) so the
    fleet front-end's per-head batching works wherever GPU nodes land.
    """

    def __init__(self, shard_id: int, config: ServeConfig, model,
                 events, gpu=None) -> None:
        self.shard_id = shard_id
        self.config = config
        self.events = events
        self.rounds = 0
        spec = get_platform(config.platform)
        self.registry = MetricsRegistry()
        self.sink = QueueSink(shard_id, events)
        self.service = PowerMonitorService(
            model, spec, registry=self.registry, sinks=[self.sink],
        )
        if config.gpu_nodes and gpu is None:
            raise ValidationError(
                f"shard {shard_id}: config names {config.gpu_nodes} GPU "
                f"node(s) but no GPU models were shipped"
            )
        if gpu is not None:
            gpu_model, gpu_srr = gpu
            self.service.register_device_class(
                "gpu", gpu_model, head=GPUSRRHead(gpu_srr)
            )
        policy = config.governor_policy()
        if policy is not None:
            self.service.set_governor(SamplingGovernor(policy))
        catalog = default_catalog(config.seed)
        workload = catalog.get(config.workload)
        accel_workload = gpu_workload(config.gpu_workload, seed=config.seed) \
            if config.gpu_nodes else None
        self.bundles = {}
        for index in config.shard_layout()[shard_id]:
            node_id = f"node{index}"
            device_class = config.device_class_of_index(index)
            sensor = IPMISensor(
                spec, interval_s=config.interval_s, seed=config.seed + index
            )
            preset = config.fault_nodes.get(node_id)
            if preset is not None:
                sensor = _faulted_sensor(sensor, preset, index, config)
            self.service.register_node(
                node_id, sensor=sensor,
                profile=NodeProfile(device_class=device_class,
                                    seed=config.seed + index,
                                    interval_s=config.interval_s),
            )
            if device_class == "gpu":
                self.bundles[node_id] = AcceleratedNodeSimulator(
                    host_spec=spec, seed=config.seed + index
                ).run(accel_workload, duration_s=config.run_seconds)
            else:
                self.bundles[node_id] = NodeSimulator(
                    spec, seed=config.seed + index
                ).run(workload, duration_s=config.run_seconds)
        self.fleet = FleetMonitor(self.service, chunk_size=config.chunk_size)

    def push_state(self) -> None:
        """Publish this shard's registry snapshot + per-node health."""
        health = {
            node_id: {
                "status": h.status,
                "runs": h.runs,
                "degraded_runs": h.degraded_runs,
                "outages": h.outages,
                "last_error": h.last_error,
            }
            for node_id, h in (
                (n, self.service.health(n)) for n in self.bundles
            )
        }
        self.events.put(("state", self.shard_id, time.monotonic(), {
            "metrics": self.registry.snapshot(),
            "health": health,
            "rounds": self.rounds,
            "nodes": list(self.bundles),
        }))

    def run_round(self) -> None:
        """Open one run per node in one pass and tick the shard until
        drained."""
        config = self.config
        self.fleet.submit_all(self.bundles, online=config.online)
        while self.fleet.active_nodes:
            finished = self.fleet.tick()
            if config.keep_results:
                for node_id, result in finished.items():
                    self.events.put(
                        ("result", self.shard_id, node_id, self.rounds, result)
                    )
        self.rounds += 1

    def loop(self, stop) -> None:
        """Rounds until ``config.runs`` is reached or ``stop`` is set.

        The stop check sits at the round boundary: an in-flight round
        always drains completely (the SIGTERM contract).
        """
        self.push_state()  # /healthz answers before the first round lands
        config = self.config
        while not stop.is_set() and (
            config.runs == 0 or self.rounds < config.runs
        ):
            records = self.sink.records
            self.run_round()
            if self.rounds == 1:
                _freeze_long_lived()
            self.push_state()
            self.await_collector(self.sink.records - records)

    def await_collector(self, per_round: int) -> None:
        """Backpressure: wait until the event queue holds at most one
        round's records (``per_round``) per shard, or ``BACKLOG_WAIT_S``.

        A shard that outruns the daemon's collector would otherwise pile
        its records up in the queue without bound (a process queue keeps
        them in the shard's own memory until the collector reads them), so
        the shard stays at most about a round ahead. The queue's size
        counts every shard's records, and those a killed shard put but
        never sent stay counted, so the wait is capped. A queue that cannot
        report its size (a process queue on macOS) is not waited on.
        """
        try:
            backlog = self.events.qsize()
        except (AttributeError, NotImplementedError):
            return
        limit = per_round * self.config.shards
        deadline = time.monotonic() + BACKLOG_WAIT_S
        while backlog > limit and time.monotonic() < deadline:
            time.sleep(BACKLOG_POLL_S)
            backlog = self.events.qsize()


def _freeze_long_lived() -> None:
    """Take what outlives a round out of the cyclic collector's scans.

    After its first round a shard holds mostly long-lived objects: the
    models, the bundles, the registry's families and children, compiled
    trees. Each full collection would walk all of them again (tens of
    thousands of objects) to find the few cycles a round leaves, so they
    move to the permanent generation once, after a collection that frees
    the first round's garbage. They are still freed by reference counting
    when dropped. ``gc.freeze`` is process-wide: a thread-hosted shard
    also freezes its host's objects (the daemon's and the other shards').
    """
    gc.collect()
    gc.freeze()


def run_worker(shard_id: int, config: ServeConfig, model, events,
               stop, gpu=None) -> None:
    """Process/thread entry: build the shard, loop, always emit ``done``."""
    try:
        ShardRunner(shard_id, config, model, events, gpu=gpu).loop(stop)
    except Exception as exc:  # surfaced via /healthz, not a silent death
        events.put(("error", shard_id, f"{type(exc).__name__}: {exc}"))
    finally:
        events.put(("done", shard_id, time.monotonic()))
