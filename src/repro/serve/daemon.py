"""The fleet daemon: shard hosts, merge collector, HTTP surface, drain.

:class:`FleetDaemon` turns a :class:`~repro.serve.config.ServeConfig` into
a running service: it trains (or receives) one HighRPM model, hosts each
shard's :class:`~repro.serve.shard.ShardRunner` on a worker process
(``processes=True``, the deployment shape) or an in-process thread
(tests/benchmarks), drains their event queue through a
:class:`~repro.serve.merge.EventCollector`, and serves
``/metrics`` / ``/healthz`` / ``/stream`` from the merged state
(:mod:`repro.serve.http`).

Shutdown is a *drain*, not a kill: ``request_stop()`` (the SIGTERM
handler's job) sets a shared stop event; every shard finishes its
in-flight round, pushes a final state, and reports ``done``; the collector
then closes the ndjson file and end-of-streams every ``/stream`` client.
``repro_serve_drain_seconds`` records how long that took.

A process-hosted shard that dies without reporting ``done`` (SIGKILL, the
OOM killer) cannot drain itself: the daemon notices its exit code, posts
its ``error`` and ``done`` on its behalf so the drain still completes, and
reports it ``failed``. It is not restarted.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time

import numpy as np

from ..core import HighRPM, HighRPMConfig
from ..errors import ValidationError
from ..gpu import GPUSRR, AcceleratedNodeSimulator, gpu_workload
from ..hardware.node import NodeSimulator
from ..hardware.platform import get_platform
from ..monitor.resilience import HEALTHY, OUTAGE
from ..obs import MetricsRegistry, merge_snapshots, render_prometheus
from ..workloads.catalog import default_catalog
from .config import ServeConfig
from .http import ServeHTTPServer
from .merge import EventCollector, StreamHub
from .shard import run_worker

#: Fixed training mix for daemon-trained models (compute-bound, memory-
#: bound, and mixed workloads — the same spread ``repro monitor`` uses).
TRAIN_BENCHMARKS = ("spec_gcc", "hpcc_hpl", "hpcc_stream")

#: Training mix for the GPU device class (compute-bound, balanced, and
#: steady-loop accelerated workloads).
GPU_TRAIN_WORKLOADS = ("gemm", "stencil", "training_loop")


def train_model(config: ServeConfig) -> HighRPM:
    """Train a daemon-sized HighRPM from the config's seeds and sizing."""
    spec = get_platform(config.platform)
    catalog = default_catalog(config.seed)
    sim = NodeSimulator(spec, seed=config.seed)
    train = [
        sim.run(catalog.get(name), duration_s=config.train_seconds)
        for name in TRAIN_BENCHMARKS
    ]
    model = HighRPM(
        HighRPMConfig(
            miss_interval=config.interval_s,
            lstm_iters=config.lstm_iters,
            srr_iters=config.srr_iters,
            seed=config.seed,
        ),
        p_bottom=spec.min_node_power_w,
        p_upper=spec.max_node_power_w,
    )
    model.fit_initial(train)
    return model


def train_gpu_models(config: ServeConfig) -> "tuple[HighRPM, GPUSRR]":
    """Train the GPU device class: a 16-column HighRPM plus its 3-way head.

    The restoration model trains directly on accelerated bundles (TRR is
    component-agnostic — node power is node power — and
    ``fit_initial`` duck-types the bundle shape); the separately-fitted
    :class:`~repro.gpu.GPUSRR` becomes the class's attribution head.
    """
    spec = get_platform(config.platform)
    sim = AcceleratedNodeSimulator(host_spec=spec, seed=config.seed)
    train = [
        sim.run(gpu_workload(name, seed=config.seed),
                duration_s=config.train_seconds)
        for name in GPU_TRAIN_WORKLOADS
    ]
    gpu_config = HighRPMConfig(
        miss_interval=config.interval_s,
        lstm_iters=config.lstm_iters,
        srr_iters=config.srr_iters,
        seed=config.seed,
    )
    model = HighRPM(
        gpu_config,
        p_bottom=sim.min_node_power_w,
        p_upper=sim.max_node_power_w,
    )
    model.fit_initial(train)
    head = GPUSRR(gpu_config)
    head.fit(
        np.vstack([b.pmcs.matrix for b in train]),
        np.concatenate([b.node.values for b in train]),
        np.concatenate([b.cpu.values for b in train]),
        np.concatenate([b.mem.values for b in train]),
        np.concatenate([b.gpu.values for b in train]),
    )
    return model, head


def _fork_context():
    """Fork keeps worker startup cheap; fall back where it is missing."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class FleetDaemon:
    """Sharded always-on monitoring service with an HTTP scrape surface.

    Lifecycle::

        daemon = FleetDaemon(config, model=trained)   # model optional
        daemon.start()          # workers + collector + HTTP all running
        ...                     # scrape daemon.address, tail /stream
        daemon.request_stop()   # begin the drain (SIGTERM calls this)
        daemon.stop()           # drain, join, shut the HTTP server down

    With bounded ``config.runs``, :meth:`wait` returns once every shard
    drained on its own — no stop request needed.
    """

    def __init__(self, config: ServeConfig, model: "HighRPM | None" = None,
                 gpu: "tuple[HighRPM, GPUSRR] | None" = None) -> None:
        self.config = config
        self.model = model
        #: the GPU device class's (restoration model, attribution head)
        #: pair; trained at start() when the fleet has GPU nodes and none
        #: was injected.
        self.gpu = gpu
        self.registry = MetricsRegistry()
        self.hub = StreamHub(self.registry)
        self.collector = EventCollector(
            self.registry, self.hub, config.shards,
            ndjson=config.ndjson, keep_results=config.keep_results,
        )
        self._workers: list = []
        self._events = None
        #: shard id -> error posted on behalf of a worker that died
        #: without ``done``; guarded by ``_reap_lock`` (HTTP threads reap).
        self._dead: "dict[int, str]" = {}
        self._reap_lock = threading.Lock()
        self._collector_thread: "threading.Thread | None" = None
        self._http: "ServeHTTPServer | None" = None
        self._http_thread: "threading.Thread | None" = None
        self._stop = None
        self._stop_early = False
        self._stop_requested_at: "float | None" = None
        self._started = False

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Train if needed, launch shards, collector, and HTTP server."""
        if self._started:
            raise ValidationError("daemon already started")
        self._started = True
        config = self.config
        if self.model is None:
            self.model = train_model(config)
        if config.gpu_nodes and self.gpu is None:
            self.gpu = train_gpu_models(config)
        if config.processes:
            ctx = _fork_context()
            events = ctx.Queue()
            self._stop = ctx.Event()
            self._workers = [
                ctx.Process(
                    target=run_worker,
                    args=(s, config, self.model, events, self._stop,
                          self.gpu),
                    daemon=True, name=f"repro-serve-shard{s}",
                )
                for s in range(config.shards)
            ]
        else:
            events = queue.Queue()
            self._stop = threading.Event()
            self._workers = [
                threading.Thread(
                    target=run_worker,
                    args=(s, config, self.model, events, self._stop,
                          self.gpu),
                    daemon=True, name=f"repro-serve-shard{s}",
                )
                for s in range(config.shards)
            ]
        self._events = events
        if self._stop_early:
            self._stop.set()
        # Workers first (fork before daemon-side threads exist), then the
        # collector that consumes them, then the scrape surface.
        for worker in self._workers:
            worker.start()
        self._collector_thread = threading.Thread(
            target=self.collector.run, args=(events,),
            daemon=True, name="repro-serve-collector",
        )
        self._collector_thread.start()
        self._http = ServeHTTPServer((config.host, config.port), self)
        self._http_thread = threading.Thread(
            target=self._http.serve_forever,
            daemon=True, name="repro-serve-http",
        )
        self._http_thread.start()
        self.registry.gauge(
            "repro_serve_shards", "Shard workers launched."
        ).set(float(config.shards))
        self.registry.gauge(
            "repro_serve_nodes", "Fleet nodes monitored."
        ).set(float(config.nodes))

    @property
    def address(self) -> "tuple[str, int]":
        """Bound (host, port) — resolves ``port=0`` to the real port."""
        if self._http is None:
            raise ValidationError("daemon not started")
        return self._http.server_address[:2]

    def request_stop(self) -> None:
        """Begin the drain: shards finish their round, then exit.

        Safe before :meth:`start` (e.g. SIGTERM while the model is still
        training): the request is remembered and the shards drain after
        zero rounds instead of the signal killing the process.
        """
        if self._stop is None:
            self._stop_requested_at = time.monotonic()
            self._stop_early = True
            return
        if not self._stop.is_set():
            self._stop_requested_at = time.monotonic()
            self._stop.set()

    def _reap(self) -> "dict[int, str]":
        """Fail, once, every worker process that exited without ``done``.

        Its ``error`` and ``done`` go through the event queue like a
        shard's own, so the collector's drain completes. Returns every
        shard failed this way so far.
        """
        with self._reap_lock:
            for s, worker in enumerate(self._workers):
                code = getattr(worker, "exitcode", None)  # threads: none
                if not code or s in self._dead or s in self.collector.done:
                    continue
                message = (f"WorkerDied: shard worker exited with code "
                           f"{code} before reporting done")
                self._dead[s] = message
                self._events.put(("error", s, message))
                self._events.put(("done", s, time.monotonic()))
            return dict(self._dead)

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until every shard drained; True when fully drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for worker in self._workers:
            worker.join(
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
        self._reap()
        if self._collector_thread is not None:
            self._collector_thread.join(
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            if not self._collector_thread.is_alive() \
                    and self._stop_requested_at is not None:
                self.registry.gauge(
                    "repro_serve_drain_seconds",
                    "Stop-request to fully-drained latency.",
                ).set(time.monotonic() - self._stop_requested_at)
        return not any(w.is_alive() for w in self._workers) and (
            self._collector_thread is None
            or not self._collector_thread.is_alive()
        )

    def stop(self, timeout: "float | None" = None) -> bool:
        """Drain, join, and shut down the HTTP server."""
        self.request_stop()
        drained = self.wait(timeout)
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout=5.0)
        return drained

    # ------------------------------------------------------------- surface
    @property
    def results(self) -> "dict[str, list]":
        """Collected per-node MonitorResults (``keep_results`` only)."""
        return self.collector.results

    def metrics_text(self) -> str:
        """Merged Prometheus exposition across shards + the daemon."""
        states = self.collector.shard_states
        shard_ids = sorted(states)
        snapshots = [states[s]["metrics"] for s in shard_ids]
        labels = None
        if self.config.label_shards:
            labels = [{"shard": f"s{s}"} for s in shard_ids]
        snapshots.append(self.registry.snapshot())
        if labels is not None:
            labels.append(None)  # daemon metrics carry no shard label
        merged = merge_snapshots(
            snapshots, gauges=self.config.gauges, labels=labels
        )
        return render_prometheus(merged)

    def healthz(self) -> dict:
        """Daemon + per-shard + per-node health as a JSON-safe dict.

        ``status`` is ``failed`` when a shard raised or its worker process
        died, ``degraded`` when any node left the healthy state, else
        ``ok``.
        """
        collector = self.collector
        errors = {**collector.errors, **self._reap()}
        shards = {}
        for s in range(self.config.shards):
            state = collector.shard_states.get(s)
            if s in errors:
                shard_state = "failed"
            elif s in collector.done:
                shard_state = "drained"
            else:
                shard_state = "running" if state is not None else "starting"
            shards[f"s{s}"] = {
                "state": shard_state,
                "error": errors.get(s),
                "rounds": 0 if state is None else state["rounds"],
                "nodes": {} if state is None else state["health"],
            }
        node_states = [
            node["status"]
            for shard in shards.values()
            for node in shard["nodes"].values()
        ]
        if errors:
            status = "failed"
        elif any(state != HEALTHY for state in node_states):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "nodes": self.config.nodes,
            "shards": shards,
            "outage_nodes": sum(1 for s in node_states if s == OUTAGE),
            "drained": len(collector.done) == self.config.shards,
        }
