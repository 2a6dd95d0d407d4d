"""Chaos harness: sweep fault scenarios through the monitor service.

One trained :class:`~repro.monitor.PowerMonitorService` faces a battery of
fault scenarios — one node per scenario, each wrapped in a
:class:`FaultySensor` with a different fault chain — and the harness
reports restoration accuracy (node-power MAPE against the simulator's
ground truth) per scenario, split into the fault window and the healthy
remainder of the run. This is the §6.4.6 robustness experiment generalised
to the full fault vocabulary, and the regression gate for the graceful
degradation paths in :mod:`repro.monitor.resilience`.

Run it directly::

    python -m repro.faults.chaos [--smoke] [--output report.json]
    python -m repro.faults.chaos --scenario outage --scenario spikes

or through the eval layer (``python -m repro experiment chaos``). Every
piece is seeded; two runs with the same settings produce the same report.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..core import PROV_MEASURED, HighRPM, HighRPMConfig
from ..hardware.node import NodeSimulator
from ..hardware.platform import get_platform
from ..ml.metrics import mape
from ..monitor import PowerMonitorService, ResiliencePolicy
from ..obs import MetricsRegistry, render_overhead, use_registry
from ..sensors.ipmi import IPMISensor
from ..workloads.catalog import default_catalog
from .inject import FaultySensor
from .models import (
    ClockJitter,
    DelayedArrival,
    FaultModel,
    OutageWindow,
    RandomDropout,
    SpikeOutlier,
    StuckAt,
)


@dataclass(frozen=True)
class ChaosSettings:
    """Training/evaluation sizes for one chaos sweep."""

    platform: str = "arm"
    train_benchmarks: tuple[str, ...] = (
        "spec_gcc", "spec_mcf", "hpcc_hpl", "hpcc_stream",
    )
    test_benchmark: str = "hpcc_fft"
    train_seconds: int = 120
    test_seconds: int = 160
    lstm_iters: int = 200
    srr_iters: int = 1500
    seed: int = 7
    online: bool = True

    @staticmethod
    def smoke() -> "ChaosSettings":
        """CI-sized sweep: minutes, not tens of minutes."""
        return ChaosSettings(
            train_benchmarks=("spec_gcc", "hpcc_hpl", "hpcc_stream"),
            train_seconds=100,
            test_seconds=150,
            lstm_iters=150,
            srr_iters=1000,
        )

    @staticmethod
    def tiny() -> "ChaosSettings":
        """Seconds-sized settings for demos that only need a *live* service
        (``python -m repro.obs.dump``) — the model is under-trained and its
        accuracy is meaningless."""
        return ChaosSettings(
            train_benchmarks=("spec_gcc", "hpcc_stream"),
            train_seconds=60,
            test_seconds=60,
            lstm_iters=20,
            srr_iters=100,
        )


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault configuration applied to a fresh node."""

    name: str
    faults: tuple[FaultModel, ...] = ()
    fail_prob: float = 0.0
    fail_first: int = 0
    #: Dense-sample window ``[start, stop)`` the faults act on, for the
    #: windowed MAPE split; None means the whole run.
    window: "tuple[int, int] | None" = None


def default_scenarios(test_seconds: int) -> tuple[ChaosScenario, ...]:
    """One scenario per fault model, plus healthy and dead-feed extremes."""
    dur = max(test_seconds // 4, 20)
    start = (test_seconds - dur) // 2
    window = (start, start + dur)
    return (
        ChaosScenario("healthy"),
        ChaosScenario("outage", (OutageWindow(start, dur),), window=window),
        ChaosScenario("dropout", (RandomDropout(0.3),)),
        ChaosScenario("stuck", (StuckAt(start, dur),), window=window),
        ChaosScenario("spikes", (SpikeOutlier(0.25, magnitude_w=250.0),)),
        ChaosScenario("jitter", (ClockJitter(3),)),
        ChaosScenario("delay", (DelayedArrival(4, prob=0.5),)),
        ChaosScenario("flaky-reads", fail_first=2),
        ChaosScenario("dead-feed", (OutageWindow(0, 10 * test_seconds),)),
    )


@dataclass
class ScenarioOutcome:
    """Accuracy and health bookkeeping for one scenario run."""

    scenario: str
    mode: str
    health: str
    n_readings_used: int
    gated_readings: int
    retries: int
    model_only_fraction: float
    mape_total: float
    mape_window: float
    mape_outside: float

    def row(self) -> list:
        return [
            self.scenario, self.mode, self.health, self.n_readings_used,
            self.gated_readings, self.retries,
            f"{self.model_only_fraction:.2f}", f"{self.mape_total:.2f}",
            f"{self.mape_window:.2f}", f"{self.mape_outside:.2f}",
        ]


COLUMNS = [
    "scenario", "mode", "health", "readings", "gated", "retries",
    "model-only", "MAPE%", "MAPE%(fault win)", "MAPE%(healthy win)",
]


@dataclass
class ChaosReport:
    """Everything one sweep produced, renderable as text or JSON."""

    platform: str
    settings: ChaosSettings
    outcomes: list[ScenarioOutcome] = field(default_factory=list)
    #: :meth:`~repro.obs.OverheadProfiler.report` of the swept service.
    self_overhead: dict = field(default_factory=dict)
    #: :meth:`~repro.obs.MetricsRegistry.snapshot` of everything the sweep
    #: emitted (service counters, pipeline spans, perf dispatch mix).
    metrics: dict = field(default_factory=dict)

    def outcome(self, scenario: str) -> ScenarioOutcome:
        for o in self.outcomes:
            if o.scenario == scenario:
                return o
        raise KeyError(f"no scenario {scenario!r} in this report")

    def degradation_summary(self) -> str:
        """One line of sweep-wide resilience totals (no JSON spelunking)."""
        retries = sum(o.retries for o in self.outcomes)
        gated = sum(o.gated_readings for o in self.outcomes)
        outages = sum(1 for o in self.outcomes if o.health == "outage")
        degraded = sum(1 for o in self.outcomes if o.health == "degraded")
        return (
            f"degradation: {retries} retr{'y' if retries == 1 else 'ies'}, "
            f"{gated} gated reading(s), {degraded} degraded and "
            f"{outages} outage run(s) across {len(self.outcomes)} scenario(s)"
        )

    def render(self) -> str:
        rows = [o.row() for o in self.outcomes]
        widths = [
            max(len(str(c)), *(len(str(r[i])) for r in rows)) if rows else len(str(c))
            for i, c in enumerate(COLUMNS)
        ]
        def fmt(cells):
            return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
        lines = [
            f"chaos sweep on {self.platform} "
            f"(test={self.settings.test_benchmark}, "
            f"{self.settings.test_seconds}s, seed={self.settings.seed})",
            fmt(COLUMNS),
            fmt(["-" * w for w in widths]),
        ]
        lines += [fmt(r) for r in rows]
        lines.append(self.degradation_summary())
        if self.self_overhead:
            lines.append(render_overhead(self.self_overhead))
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "platform": self.platform,
            "settings": asdict(self.settings),
            "scenarios": [asdict(o) for o in self.outcomes],
            "self_overhead": self.self_overhead,
            "metrics": self.metrics,
        }
        return json.dumps(payload, indent=2, default=str)


def _train_service(settings: ChaosSettings) -> tuple[PowerMonitorService, NodeSimulator]:
    spec = get_platform(settings.platform)
    catalog = default_catalog(seed=settings.seed)
    sim = NodeSimulator(spec, seed=settings.seed + 1)
    train = [
        sim.run(catalog.get(name), duration_s=settings.train_seconds)
        for name in settings.train_benchmarks
    ]
    cfg = HighRPMConfig(
        lstm_iters=settings.lstm_iters,
        srr_iters=settings.srr_iters,
        seed=settings.seed,
    )
    model = HighRPM(
        cfg, p_bottom=spec.min_node_power_w, p_upper=spec.max_node_power_w
    )
    model.fit_initial(train)
    return PowerMonitorService(model, spec, policy=ResiliencePolicy()), sim


def reference_run(settings: "ChaosSettings | None" = None):
    """The sweep's shared starting point: a trained service + test bundle.

    Also the anchor of the golden regression fixture
    (``scripts/make_golden_monitor.py`` / ``tests/test_golden_monitor.py``)
    — everything downstream of it is deterministic in ``settings.seed``.
    """
    settings = settings or ChaosSettings()
    service, sim = _train_service(settings)
    catalog = default_catalog(seed=settings.seed)
    bundle = sim.run(
        catalog.get(settings.test_benchmark), duration_s=settings.test_seconds
    )
    return service, bundle


def run_chaos(
    settings: "ChaosSettings | None" = None,
    scenarios: "tuple[ChaosScenario, ...] | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> ChaosReport:
    """Train one service, run every scenario through it, report MAPE.

    The sweep collects its instrumentation (service counters, pipeline
    spans, self-overhead) into ``registry`` — its own private one by
    default, so back-to-back sweeps do not pollute each other — and embeds
    the snapshot in the report.
    """
    settings = settings or ChaosSettings()
    scenarios = scenarios if scenarios is not None else default_scenarios(
        settings.test_seconds
    )
    registry = registry if registry is not None else MetricsRegistry()
    with use_registry(registry):
        service, bundle = reference_run(settings)
        report = _sweep(service, bundle, settings, scenarios)
    report.self_overhead = service.profiler.report()
    report.metrics = registry.snapshot()
    return report


def _sweep(
    service: PowerMonitorService,
    bundle,
    settings: ChaosSettings,
    scenarios: "tuple[ChaosScenario, ...]",
) -> ChaosReport:
    spec = get_platform(settings.platform)
    truth = bundle.node.values
    report = ChaosReport(platform=settings.platform, settings=settings)
    for k, scenario in enumerate(scenarios):
        node = f"chaos-{scenario.name}"
        sensor = FaultySensor(
            IPMISensor(spec, seed=settings.seed + 100 + k),
            faults=scenario.faults,
            seed=settings.seed + 200 + k,
            fail_prob=scenario.fail_prob,
            fail_first=scenario.fail_first,
        )
        service.register_node(node, sensor=sensor)
        result = service.observe_run(node, bundle, online=settings.online)
        health = service.health(node)
        window = np.zeros(len(bundle), dtype=bool)
        if scenario.window is not None:
            window[scenario.window[0]:scenario.window[1]] = True
        outside = ~window
        report.outcomes.append(
            ScenarioOutcome(
                scenario=scenario.name,
                mode=result.mode,
                health=health.status,
                n_readings_used=(
                    0 if result.mode == "model_only"
                    else int((result.provenance == PROV_MEASURED).sum())
                ),
                gated_readings=health.gated_readings,
                retries=health.retries,
                model_only_fraction=float(result.model_only_mask.mean()),
                mape_total=mape(truth, result.p_node),
                mape_window=(
                    mape(truth[window], result.p_node[window])
                    if window.any() else float("nan")
                ),
                mape_outside=mape(truth[outside], result.p_node[outside]),
            )
        )
    return report


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.chaos",
        description="Sweep IM-feed fault scenarios through the monitor service.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized settings (smaller training budget)")
    parser.add_argument("--platform", default=None, help="arm (default) or x86")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME", help="run only the named scenario(s)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="also write the report as JSON")
    args = parser.parse_args(argv)

    settings = ChaosSettings.smoke() if args.smoke else ChaosSettings()
    if args.platform:
        settings = replace(settings, platform=args.platform)
    if args.seed is not None:
        settings = replace(settings, seed=args.seed)
    scenarios = default_scenarios(settings.test_seconds)
    if args.scenario:
        chosen = {s.lower() for s in args.scenario}
        unknown = chosen - {s.name for s in scenarios}
        if unknown:
            parser.error(f"unknown scenario(s): {sorted(unknown)}")
        scenarios = tuple(s for s in scenarios if s.name in chosen)

    report = run_chaos(settings, scenarios)
    print(report.render())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
