"""The three workloads and the measurement loop around each.

Each workload does a fixed amount of work for a given ``--seconds``: the
number of timed rounds is ``--seconds`` divided by the round's nominal
duration on the reference host (2 vCPU, see README.md), so the outputs
the benchmark scores — MAPE, degraded runs, tick counts — are a pure
function of the seed and ``--seconds``, and the timed phase lasts about
``--seconds``. A small host probe is timed between the steps of the
work, off the clock, and every timing is reported at the reference host's
speed (:mod:`perfbench.host`).

* ``static-long`` and ``online-interval`` drive one shard's public
  :class:`~repro.serve.ShardRunner` in a closed loop on one thread:
  ``FleetMonitor.submit`` every node, then ``FleetMonitor.tick`` until the
  round drains, draining the shard's event queue after each tick.
* ``serve-wide`` boots the real :class:`~repro.serve.FleetDaemon` with one
  process-hosted shard and scrapes ``/metrics`` from a separate client
  process. The shard keeps running rounds past the timed ones until the
  client has sent every scheduled scrape, so every scrape meets the load.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import queue
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.obs
from repro.monitor.fleet import FleetMonitor
from repro.monitor.resilience import HEALTHY
from repro.serve import FleetDaemon, ServeConfig, ShardRunner
from repro.serve import daemon as daemon_module
from repro.serve.daemon import train_gpu_models, train_model

from . import tracing
from .checks import RecordChecker, check_identical, source_digest
from .host import SCRAPE_PARTS, HostSpeed
from .metrics import layer_metrics, render_table
from .scrape import OpenLoop
from .stats import tail_percentile

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Seed of the canonical fleet: its model, its workload's traits, and each
#: node's simulator and sensor (node ``i`` uses ``FLEET_SEED + i``). The
#: daemon derives a workload's traits from this one seed, and accuracy
#: varies 10-50 % between trait draws (README.md), so the fleet keeps it.
FLEET_SEED = 2023

#: In-process workloads host one block of a canonical fleet this many
#: blocks wide; ``--seed`` picks the block, so each seed monitors other
#: nodes (other activity traces and sensor noise) of the same workloads.
BLOCKS = 64

#: The Prometheus scrape interval docs/deployment.md configures.
PROMETHEUS_INTERVAL_S = 10.0

#: serve-wide's scrape load, as this many scrapers at the documented
#: interval: 4 scrapes/s, a deliberate 40x stress of one Prometheus
#: server, so that a run of ``--seconds`` collects ``4 x --seconds``
#: scrapes, enough for a steady tail (at 2.5/s its spread over five
#: seeds was 0.26, at 4/s 0.09).
SCRAPERS = 40

#: /metrics bodies built per ``--seconds`` on the in-process workloads,
#: which have no HTTP server (see :meth:`_Shard.scrape_times`).
RENDERS_PER_S = 4

#: Host probes taken at each point of a set-up phase.
SETUP_PROBES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    #: round duration on the reference host; sets the rounds per --seconds.
    nominal_round_s: float
    #: set-ups per run; setup_s is their median.
    setups: int


WORKLOADS = {
    w.name: w for w in (
        Workload("static-long", dict(
            nodes=64, chunk_size=32, run_seconds=1800, online=False,
        ), nominal_round_s=0.85, setups=3),
        Workload("online-interval", dict(
            nodes=8, chunk_size=10, interval_s=10, run_seconds=120,
            online=True,
        ), nominal_round_s=2.8, setups=5),
        Workload("serve-wide", dict(
            nodes=512, gpu_nodes=64, governor=True, run_seconds=60,
            online=False, processes=True,
        ), nominal_round_s=0.65, setups=3),
    )
}


class Outcome:
    """What one benchmark run measured and checked."""

    def __init__(self) -> None:
        self.e2e: "dict[str, float]" = {}
        self.layers: "dict[str, float]" = {}
        self.attempted = 0
        self.failures: "list[str]" = []
        self.notes: "list[str]" = []


def scrape_schedule(seed: int, seconds: float) -> OpenLoop:
    """serve-wide's scrapes: a fixed count set by the run's length, so
    the tail's rank does not move with host speed; the seed sets the
    schedule's phase."""
    rate = SCRAPERS / PROMETHEUS_INTERVAL_S
    return OpenLoop(rate, np.random.default_rng(seed).random() / rate,
                    max(1, round(rate * seconds)))


def render_count(seconds: float) -> int:
    return max(1, round(RENDERS_PER_S * seconds))


def timed_rounds(workload: Workload, seconds: float) -> int:
    return max(2, round(seconds / workload.nominal_round_s))


def peak_rss_mb() -> float:
    """This process's peak resident memory (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sps(phase: dict) -> float:
    """Samples per second over the timed rounds, each round's wall time
    (``(start, end, wall)``, off-clock work left out of ``wall``) scaled
    by the probes taken around and within it."""
    speed = phase["speeds"]["rounds"]
    return phase["samples"] / sum(wall * speed.scale(start, end)
                                  for start, end, wall in phase["rounds"])


def _timing_metrics(out: Outcome, phase: dict) -> None:
    """The end-to-end timings at the reference host's speed: set-ups by
    the mean of the set-up probes, each round, tick (``(start, duration)``)
    and scrape by the probes around it — scrapes by the parts of them that
    follow a scrape."""
    setup, speed = phase["speeds"]["setup"], phase["speeds"]["rounds"]
    out.e2e["setup_s"] = (setup.scale(-math.inf, math.inf)
                          * statistics.median(phase["setups"]))
    out.e2e["samples_per_s"] = _sps(phase)
    ticks = speed.scaled(phase["ticks"])
    p, tail, n = tail_percentile(ticks)
    out.e2e["chunk_latency_ms_p50"] = 1e3 * statistics.median(ticks)
    out.e2e["chunk_latency_ms_tail"] = 1e3 * tail
    out.notes.append(f"chunk latency tail = p{p:.1f} of {n} ticks")
    scrapes = speed.scaled(phase["scrapes"], SCRAPE_PARTS)
    p, tail, n = tail_percentile(scrapes)
    out.e2e["scrape_ms_p50"] = 1e3 * statistics.median(scrapes)
    out.e2e["scrape_ms_tail"] = 1e3 * tail
    out.notes.append(f"scrape tail = p{p:.1f} of {n} scrapes")
    out.notes.append(f"host probe median, ms: setup {setup.ms():.3f}, "
                     f"rounds {speed.ms():.3f} ({len(speed.samples)} probes)")


def _probe_ms(speeds: dict) -> float:
    """The median of every host probe a run took: ``host.ref_loop_ms``."""
    return statistics.median([sum(parts.values())
                              for key in ("setup", "rounds")
                              for _, parts in speeds[key].samples])


def _count_scrapes(out: Outcome, scrape: dict) -> None:
    """Every scheduled scrape is an operation; one that failed or was
    never sent is a failed one."""
    out.attempted += scrape["limit"]
    out.failures += ["scrape failed"] * scrape["failed"]
    out.failures += ["scrape not sent"] * (scrape["limit"] - scrape["sent"])


def _gate(out: Outcome, checker: RecordChecker, nodes: int, runs: int,
          run_seconds: int) -> None:
    """Every node ran ``runs`` runs, and the sample count adds up."""
    checker.finish(runs)
    out.attempted += checker.attempted + 1
    out.failures += checker.failures
    expected = nodes * run_seconds * runs
    if checker.samples != expected:
        out.failures.append(f"{checker.samples} samples emitted, expected "
                            f"{nodes} nodes x {run_seconds} s x {runs} runs")


def _accuracy(out: Outcome, checker: RecordChecker) -> None:
    out.e2e["node_mape_pct"] = checker.node_mape_pct
    out.e2e["attribution_mape_pct"] = checker.attribution_mape_pct


def _degraded(runner: ShardRunner) -> dict:
    """Nodes that left the healthy state, with their degraded-run counts."""
    service = runner.service
    return {
        node_id: [h.status, h.degraded_runs, h.outages]
        for node_id, h in sorted((n, service.health(n))
                                 for n in runner.bundles)
        if h.status != HEALTHY or h.degraded_runs or h.outages
    }


def _identity(out: Outcome, path: Path, degraded: dict, samples: int) -> None:
    """Outputs at a fixed seed must not change from run to run."""
    out.attempted += 1
    out.failures += check_identical(path, {
        "degraded": degraded,
        "samples": samples,
        "node_mape_pct": out.e2e.get("node_mape_pct"),
        "attribution_mape_pct": out.e2e.get("attribution_mape_pct"),
    })
    runs = sum(v[1] for v in degraded.values())
    out.notes.append(f"degraded nodes: {len(degraded)} "
                     f"({runs} degraded run(s))")


def _series(text: str) -> int:
    return sum(1 for line in text.splitlines()
               if line and not line.startswith("#"))


# ------------------------------------------------------------ in-process
class _Shard:
    """One in-process shard driven round by round through its public API."""

    def __init__(self, config: ServeConfig, block: int,
                 recorder: "tracing.SpanRecorder | None" = None) -> None:
        self.config = config
        self.events = queue.SimpleQueue()
        self.runner = ShardRunner(block, config, train_model(config),
                                  self.events)
        self.checker = RecordChecker(self.runner.bundles)
        self.metrics: "dict | None" = None
        #: size and series count of the /metrics body
        self.scraped: "tuple[int, int]" = (0, 0)
        #: checks the queued records; traced in its own span, which the
        #: unattributed share leaves out as the wall time does
        self.check = (self._drain if recorder is None else
                      functools.partial(recorder.call, "bench.check",
                                        self._drain))
        self.runner.push_state()  # as ShardRunner.loop: state before rounds
        self.check()

    def _drain(self) -> float:
        """Check every queued record; returns the time that took, which
        the caller keeps off the clock. Checking as records arrive keeps
        the benchmark from holding a round of them for the collector."""
        start = clock()
        events = self.events
        while True:
            try:
                event = events.get_nowait()
            except queue.Empty:
                return clock() - start
            if event[0] in ("chunk", "end_run"):
                self.checker.feed(event[3])
            elif event[0] == "state":
                self.metrics = event[3]["metrics"]
            elif event[0] == "error":
                raise RuntimeError(event[2])

    def scrape_times(self, count: int) -> "list[tuple[float, float]]":
        """Build the daemon's /metrics body — ``merge_snapshots`` and
        ``render_prometheus`` — from this shard's last published state
        ``count`` times; returns each ``(start, duration)``.

        With no HTTP server in the process this is what a scrape of the
        fleet costs. It is built between rounds, off their clock, so that
        it neither adds to ``samples_per_s`` nor waits behind a tick.
        """
        times = []
        for _ in range(count):
            start = clock()
            text = repro.obs.render_prometheus(
                repro.obs.merge_snapshots([self.metrics])
            )
            times.append((start, clock() - start))
        if times:
            self.scraped = (len(text.encode()), _series(text))
        return times

    def round(self, ticks: list, probe_due) -> tuple:
        """One round: submit every node, tick until drained, probing the
        host between ticks (``probe_due()``, which returns the time it
        took) when a probe is due; appends each tick's
        ``(start, duration)`` to ``ticks`` and returns ``(start, end,
        wall)``, the wall time without checking records or probing."""
        fleet: FleetMonitor = self.runner.fleet
        online = self.config.online
        start, off = clock(), 0.0
        for node_id, bundle in self.runner.bundles.items():
            fleet.submit(node_id, bundle, online=online)
        while fleet.active_nodes:
            t0 = clock()
            fleet.tick()
            ticks.append((t0, clock() - t0))
            off += self.check() + probe_due()
        self.runner.rounds += 1
        self.runner.push_state()
        off += self.check()
        end = clock()
        return start, end, end - start - off


def _in_process_phase(config, block, setups, rounds, renders: int,
                      recorder=None) -> dict:
    """Set up ``setups`` times, warm up one round, then time ``rounds``
    rounds and, after each, its share of ``renders`` /metrics bodies; the
    host is probed before and after each set-up, between ticks, and
    around the bodies."""
    speeds = {k: HostSpeed() for k in ("setup", "rounds")}
    speed = speeds["rounds"]
    times, shard = [], None
    speeds["setup"].probe(SETUP_PROBES)
    for _ in range(setups):
        shard = None  # release the previous set-up before the next one
        start = clock()
        if recorder is None:
            shard = _Shard(config, block)
        else:
            shard = recorder.call("bench.setup", _Shard, config, block,
                                  recorder)
        times.append(clock() - start)
        speeds["setup"].probe(SETUP_PROBES)

    if recorder is None:
        def timed_round(ticks) -> tuple:
            return shard.round(ticks, speed.probe_due)
    else:  # probes in the rounds get their own span, as checking does
        probe_due = functools.partial(recorder.call, "bench.probe",
                                      speed.probe_due)

        def timed_round(ticks) -> tuple:
            return recorder.call("bench.rounds", shard.round, ticks,
                                 probe_due)

    timed_round([])  # warm-up
    ticks: "list[tuple[float, float]]" = []
    scrapes: "list[tuple[float, float]]" = []
    walls = []
    for i in range(rounds):
        walls.append(timed_round(ticks))
        speed.probe()
        scrapes += shard.scrape_times(renders * (i + 1) // rounds
                                      - len(scrapes))
        speed.probe()
    return dict(shard=shard, speeds=speeds, setups=times, ticks=ticks,
                scrapes=scrapes, rounds=walls,
                samples=rounds * len(shard.runner.bundles)
                * config.run_seconds)


def run_in_process(workload: Workload, seed: int, seconds: float,
                   trace: bool, out_dir: Path) -> Outcome:
    out = Outcome()
    fleet = dict(workload.config, nodes=workload.config["nodes"] * BLOCKS)
    config = ServeConfig(shards=BLOCKS, seed=FLEET_SEED, **fleet)
    block, rounds = seed % BLOCKS, timed_rounds(workload, seconds)

    if not trace:
        phase = _in_process_phase(config, block, workload.setups, rounds,
                                  render_count(seconds))
        shard = phase["shard"]
        _timing_metrics(out, phase)
        out.e2e["peak_rss_mb"] = peak_rss_mb()
        _gate(out, shard.checker, workload.config["nodes"], rounds + 1,
              config.run_seconds)
        _accuracy(out, shard.checker)
        _identity(out, _expect_path(out_dir, workload, seed, seconds),
                  _degraded(shard.runner),
                  shard.checker.scored_samples)
        out.layers["host.ref_loop_ms"] = _probe_ms(phase["speeds"])
        return out
    # Traced run: half the rounds untraced, then half traced, so the
    # tracing overhead is measured on the same work.
    half = max(1, rounds // 2)
    plain = _in_process_phase(config, block, 1, half,
                              render_count(seconds / 2))
    _gate(out, plain["shard"].checker, workload.config["nodes"], half + 1,
          config.run_seconds)
    plain["shard"] = None
    recorder = tracing.SpanRecorder()
    installed = tracing.install(recorder)
    try:
        phase = _in_process_phase(config, block, 1, half,
                                  render_count(seconds / 2), recorder)
    finally:
        installed.undo()
    shard = phase["shard"]
    recorder.count("obs.tracer.spans", tracing.service_spans(
        shard.runner.service))
    _gate(out, shard.checker, workload.config["nodes"], half + 1,
          config.run_seconds)
    threads = recorder.threads()
    agg = tracing.self_times(threads)
    out.layers = layer_metrics(agg, tracing.count_totals(recorder.counts()), {
        "serve.collector.events": 0,
        "serve.merge_latency_ms_mean": 0.0,
        "serve.metrics_bytes": shard.scraped[0],
        "serve.metrics_series": shard.scraped[1],
        "serve.scrape_late_ms": 0.0,  # built in a closed loop: never late
        "monitor.degraded_runs": sum(
            v[1] for v in _degraded(shard.runner).values()),
        "host.ref_loop_ms": statistics.median(
            [_probe_ms(plain["speeds"]), _probe_ms(phase["speeds"])]),
        "trace.unattributed_fraction": _unattributed(agg),
        "trace.overhead_fraction": _overhead(plain, phase),
    })
    recorder.dump(out_dir / f"spans-{workload.name}-seed{seed}.json")
    out.notes.append(render_table(workload.name, out.layers, agg))
    return out


def _overhead(plain: dict, traced: dict) -> float:
    """How much slower the traced rounds ran than the untraced ones, each
    rate at the reference host's speed."""
    return _sps(plain) / _sps(traced) - 1.0


def _unattributed(agg: dict) -> float:
    """Share of the root spans' wall time that no layer accounts for,
    from :func:`tracing.self_times` aggregates.

    The benchmark's record checking (``bench.check``) and host probes
    (``bench.probe``) run inside the roots but are neither layer nor
    program time: they leave the wall, as they leave the end-to-end wall
    time.
    """
    roots = [agg[name] for name in tracing.UNATTRIBUTED if name in agg]
    wall = (sum(entry["total_s"] for entry in roots)
            - sum(agg.get(name, {}).get("total_s", 0.0)
                  for name in ("bench.check", "bench.probe")))
    unattributed = sum(entry["self_s"] for entry in roots)
    return unattributed / wall if wall > 0 else 0.0


def _expect_path(out_dir: Path, workload: Workload, seed: int,
                 seconds: float) -> Path:
    """The identity record of one (code, workload, seed, seconds)."""
    return (out_dir / "expected" / source_digest(ROOT)
            / f"{workload.name}-seed{seed}-s{seconds:g}.json")


# ------------------------------------------------------------ serve-wide
class ShardProbe:
    """Inside the forked shard: times every ``FleetMonitor.tick``, notes
    after each round when it ended, how many ticks had run, which nodes
    were degraded, the shard's peak memory and the service tracer's span
    count, probes the host before each tick and after each round (off the
    clock: ``probed_s`` sums the probes before a note), and writes it all
    out when the worker returns. With a ``recorder`` (the traced run) each
    probe is a ``bench.probe`` span."""

    def __init__(self) -> None:
        self.ticks: "list[tuple[float, float]]" = []
        self.rounds: "list[dict]" = []
        self.speed = HostSpeed()
        self.probed_s = 0.0
        self.recorder: "tracing.SpanRecorder | None" = None
        self.installed = tracing.Installation()
        tick = FleetMonitor.tick
        run_round = ShardRunner.run_round
        run_worker = daemon_module.run_worker
        probe = self

        def timed_tick(fleet):
            probe.probe(probe.speed.probe_due)
            start = clock()
            try:
                return tick(fleet)
            finally:
                probe.ticks.append((start, clock() - start))

        def noted_round(runner):
            run_round(runner)
            probe.rounds.append({
                "t": clock(), "probed_s": probe.probed_s,
                "ticks": len(probe.ticks),
                "degraded": _degraded(runner), "rss_mb": peak_rss_mb(),
                "tracer_spans": tracing.service_spans(runner.service),
            })
            probe.probe(probe.speed.probe)

        def flushing_worker(shard_id, config, *args, **kwargs):
            probe.ticks.clear()
            probe.rounds.clear()
            probe.speed = HostSpeed()
            probe.probed_s = 0.0
            try:
                return run_worker(shard_id, config, *args, **kwargs)
            finally:
                probe.path(config, shard_id).write_text(json.dumps(
                    {"ticks": probe.ticks, "rounds": probe.rounds,
                     "probes": probe.speed.samples}))

        self.installed.patch(FleetMonitor, "tick", timed_tick)
        self.installed.patch(ShardRunner, "run_round", noted_round)
        self.installed.patch(daemon_module, "run_worker", flushing_worker)

    def probe(self, how) -> None:
        if self.recorder is None:
            self.probed_s += how()
        else:
            self.probed_s += self.recorder.call("bench.probe", how)

    @staticmethod
    def path(config: ServeConfig, shard_id: int) -> Path:
        return Path(f"{config.ndjson}.shard{shard_id}.probe.json")

    @staticmethod
    def load(config: ServeConfig, rounds: int) -> dict:
        """The timed rounds' ticks and their one ``(start, end, wall)``
        entry (from the end of the warm-up round, without the probes), the
        note taken when the last one ended, and every host probe."""
        probe = json.loads(ShardProbe.path(config, 0).read_text())
        warm, end = probe["rounds"][0], probe["rounds"][rounds]
        wall = (end["t"] - end["probed_s"]) - (warm["t"] - warm["probed_s"])
        return dict(ticks=probe["ticks"][warm["ticks"]:end["ticks"]],
                    rounds=[(warm["t"], end["t"], wall)], end=end,
                    speed=HostSpeed(probe["probes"]))


def _boot(config: ServeConfig, zero_round: bool):
    """Train, start the daemon, and wait until no shard is ``starting``."""
    start = clock()
    model = train_model(config)
    gpu = train_gpu_models(config) if config.gpu_nodes else None
    daemon = FleetDaemon(config, model=model, gpu=gpu)
    if zero_round:
        daemon.request_stop()  # shards build, report, and drain at once
    daemon.start()
    while any(s["state"] == "starting"
              for s in daemon.healthz()["shards"].values()):
        time.sleep(0.002)
    setup_s = clock() - start
    if zero_round:
        if not daemon.stop(timeout=120):
            raise RuntimeError("set-up-only daemon did not drain")
    return setup_s, daemon, model, gpu


#: Longest the timed rounds and the scrapes may take before a run fails.
SERVE_DEADLINE_S = 150.0

#: How often the benchmark looks at the shard's progress. Each look takes
#: the interpreter lock from the collector and HTTP threads, so it is
#: coarse; the timing itself comes from the shard.
POLL_S = 0.02


def _serve_phase(config: ServeConfig, rounds: int, setups: int,
                 scrapes: OpenLoop):
    """Boot (``setups`` times), warm up one round, time ``rounds`` rounds
    while a client process sends ``scrapes``; the shard runs on until
    the client is done, then drains. The host is probed before each boot
    here, and after each round in the shard (:class:`ShardProbe`)."""
    config = dataclasses.replace(config, runs=0)  # until asked to stop
    setup_speed = HostSpeed()
    setup_times = []
    for _ in range(setups - 1):
        setup_speed.probe(SETUP_PROBES)
        setup_times.append(_boot(config, zero_round=True)[0])
    ndjson = Path(config.ndjson)
    ndjson.unlink(missing_ok=True)
    setup_speed.probe(SETUP_PROBES)
    setup_s, daemon, model, gpu = _boot(config, zero_round=False)
    setup_times.append(setup_s)
    collector = daemon.collector

    def rounds_done() -> int:
        if collector.errors or collector.done:
            raise RuntimeError(f"shard ended early: {collector.errors}")
        return collector.shard_states.get(0, {}).get("rounds", 0)

    try:
        while rounds_done() < 1:
            time.sleep(POLL_S)  # the warm-up round
        start = clock()
        host, port = daemon.address
        client = subprocess.Popen(
            [sys.executable, "-m", "perfbench.scrape", host, str(port),
             str(1.0 / scrapes.period), str(scrapes.start),
             str(scrapes.limit)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            while rounds_done() < rounds + 1:
                if clock() - start > SERVE_DEADLINE_S:
                    raise RuntimeError("timed rounds did not finish")
                time.sleep(POLL_S)
            # The shard's memory grows with every round it runs, so both
            # peaks are taken when the timed rounds end, not after the
            # untimed ones, whose number depends on speed.
            rss_mb = peak_rss_mb()
            snapshot = daemon.registry.snapshot()
            while client.poll() is None:  # load on until every scrape
                rounds_done()
                if clock() - start > SERVE_DEADLINE_S:
                    break  # the scrapes not sent count as failed
                time.sleep(POLL_S)
        finally:
            scraped, _ = client.communicate(b"stop\n", timeout=60)
    finally:
        drained = daemon.stop(timeout=60)
    if not drained:
        raise RuntimeError("daemon did not drain")
    shard = ShardProbe.load(config, rounds)
    scrape = dict(json.loads(scraped), limit=scrapes.limit)
    return dict(config=config, daemon=daemon, model=model, gpu=gpu,
                setups=setup_times, rounds=shard["rounds"],
                samples=rounds * config.nodes * config.run_seconds,
                ticks=shard["ticks"], end=shard["end"],
                scrapes=list(zip(scrape["due_s"], scrape["latencies_s"])),
                speeds=dict(setup=setup_speed, rounds=shard["speed"]),
                rss_mb=rss_mb, snapshot=snapshot,
                runs=collector.shard_states[0]["rounds"], scrape=scrape)


def _check_serve(out: Outcome, phase: dict, scored: int) -> RecordChecker:
    """Check the ndjson the daemon persisted against the shard's inputs:
    every run the shard completed, timed or not. Accuracy is scored on
    the first ``scored`` runs, which every run of the benchmark makes."""
    config, daemon = phase["config"], phase["daemon"]
    health = daemon.healthz()
    out.attempted += 1
    if health["status"] == "failed":
        out.failures.append(f"shard failed: {daemon.collector.errors}")
    truth = ShardRunner(0, config, phase["model"], queue.SimpleQueue(),
                        gpu=phase["gpu"]).bundles
    checker = RecordChecker(truth, scored_runs=scored)
    with open(config.ndjson, encoding="utf-8") as fh:
        for line in fh:
            checker.feed(json.loads(line))
    _gate(out, checker, config.nodes, phase["runs"], config.run_seconds)
    return checker


def run_serve(workload: Workload, seed: int, seconds: float, trace: bool,
              out_dir: Path) -> Outcome:
    out = Outcome()
    out_dir.mkdir(parents=True, exist_ok=True)
    config = ServeConfig(shards=1, seed=FLEET_SEED, port=0,
                         ndjson=str(out_dir / f"{workload.name}.ndjson"),
                         **workload.config)
    rounds = timed_rounds(workload, seconds)
    probe = ShardProbe()
    try:
        if not trace:
            phase = _serve_phase(config, rounds, workload.setups,
                                 scrape_schedule(seed, seconds))
            end = phase["end"]
            _timing_metrics(out, phase)
            _count_scrapes(out, phase["scrape"])
            out.e2e["peak_rss_mb"] = phase["rss_mb"] + end["rss_mb"]
            checker = _check_serve(out, phase, rounds + 1)
            _accuracy(out, checker)
            _identity(out, _expect_path(out_dir, workload, seed, seconds),
                      end["degraded"], checker.scored_samples)
            out.layers["host.ref_loop_ms"] = _probe_ms(phase["speeds"])
            return out
        half = max(1, rounds // 2)
        plain = _serve_phase(config, half, 1,
                             scrape_schedule(seed, seconds / 2))
        _check_serve(out, plain, half + 1)
        recorder = tracing.SpanRecorder()
        installed = tracing.install(recorder)
        probe.recorder = recorder
        try:
            phase = _serve_phase(config, half, 1,
                                 scrape_schedule(seed, seconds / 2))
        finally:
            installed.undo()
    finally:
        probe.installed.undo()
    _check_serve(out, phase, half + 1)
    # Layers are read up to the end of the timed rounds: the untimed ones
    # that follow, while the client finishes, vary in number with speed.
    end = phase["end"]
    for scrape in (plain["scrape"], phase["scrape"]):
        _count_scrapes(out, scrape)
    scrape = phase["scrape"]
    shard_threads, shard_counts = tracing.load_dump(
        tracing.shard_span_path(config.ndjson, 0))
    until = end["t"]
    agg = tracing.self_times(recorder.threads() + shard_threads, until)
    counts = tracing.count_totals(recorder.counts() + shard_counts, until)
    counts["obs.tracer.spans"] = end["tracer_spans"]
    snapshot = phase["snapshot"]  # the daemon's, when the timed rounds ended
    events = sum(s["value"] for s in
                 snapshot["repro_serve_events_total"]["samples"])
    (merge,) = snapshot["repro_serve_merge_latency_seconds"]["samples"]
    out.layers = layer_metrics(agg, counts, {
        "serve.collector.events": events,
        "serve.merge_latency_ms_mean": 1e3 * merge["sum"] / merge["count"],
        "serve.metrics_bytes": statistics.median(scrape["bytes"]),
        "serve.metrics_series": statistics.median(scrape["series"]),
        "serve.scrape_late_ms": 1e3 * statistics.fmean(scrape["late_s"]),
        "monitor.degraded_runs": sum(v[1] for v in end["degraded"].values()),
        "host.ref_loop_ms": statistics.median(
            [_probe_ms(plain["speeds"]), _probe_ms(phase["speeds"])]),
        "trace.unattributed_fraction": _unattributed(
            tracing.self_times(shard_threads, until)),
        "trace.overhead_fraction": _overhead(plain, phase),
    })
    recorder.dump(out_dir / f"spans-{workload.name}-seed{seed}.json")
    out.notes.append(render_table(workload.name, out.layers, agg))
    return out


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> Outcome:
    workload = WORKLOADS[name]
    if workload.config.get("processes"):
        return run_serve(workload, seed, seconds, trace, out_dir)
    return run_in_process(workload, seed, seconds, trace, out_dir)
