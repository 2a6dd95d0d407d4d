"""Self-overhead profiling: what does the monitor cost per sample?

Monitoring overhead is a first-class result in the energy-measurement
literature (Diamond et al. measure what RAPL tooling itself costs; the
SmartWatts power meter exposes its own runtime telemetry), and HighRPM's
operating point only makes sense if restoring a sample costs far less than
the sampling period it fills. :class:`OverheadProfiler` is that
meta-measurement for this reproduction: the run driver
(:class:`~repro.monitor.FleetMonitor`, which ``observe_run`` also uses)
wraps every step — opening a run and every tick — in :meth:`measure`, and
the profiler accumulates the monitor's own CPU seconds against the number
of runs it finished and the dense samples they restored.

The headline figure is the **budget fraction** — self seconds per restored
sample divided by the sampling period (1 s at the paper's 1 Sa/s) — i.e.
the share of each monitored second the monitor spends monitoring. It is
reported in the chaos report and the ``python -m repro.obs.dump`` demo.

Like everything in :mod:`repro.obs`, timing is injected: with no clock the
profiler still counts runs and samples but reports zero seconds
(``clocked: false``), keeping instrumented code deterministic under test.
"""

from __future__ import annotations

from contextlib import contextmanager

from .clock import Clock

#: The paper's restored stream is 1 sample per second.
DEFAULT_SAMPLE_PERIOD_S = 1.0


class _Measurement:
    """Mutable handle yielded by :meth:`OverheadProfiler.measure`; the
    caller fills in ``samples`` once it knows how many were restored, and
    ``runs`` when the block finished other than one run."""

    __slots__ = ("samples", "runs")

    def __init__(self) -> None:
        self.samples = 0
        self.runs = 1


class OverheadProfiler:
    """Accumulates the monitor's self-cost per restored sample."""

    def __init__(
        self,
        clock: "Clock | None" = None,
        sample_period_s: float = DEFAULT_SAMPLE_PERIOD_S,
        registry=None,
    ) -> None:
        self.clock = clock
        self.sample_period_s = float(sample_period_s)
        self.registry = registry
        self.runs = 0
        self.samples = 0
        self.seconds = 0.0

    @contextmanager
    def measure(self):
        """Time one block of monitor work; set ``.samples`` (and ``.runs``)
        on the yielded handle."""
        handle = _Measurement()
        start = self.clock() if self.clock is not None else None
        try:
            yield handle
        finally:
            seconds = self.clock() - start if start is not None else 0.0
            self._add(handle.runs, handle.samples, seconds)

    def record(self, samples: int, seconds: float) -> None:
        """Fold one run's (restored samples, self seconds) into the totals."""
        self._add(1, samples, seconds)

    def _add(self, runs: int, samples: int, seconds: float) -> None:
        self.runs += int(runs)
        self.samples += int(samples)
        self.seconds += float(seconds)
        if self.registry is not None:
            self.registry.counter(
                "repro_monitor_overhead_seconds_total",
                "Monitor self-time spent restoring, all runs.",
            ).inc(float(seconds))
            self.registry.counter(
                "repro_monitor_overhead_samples_total",
                "Dense samples restored, all runs.",
            ).inc(int(samples))
            self.registry.gauge(
                "repro_monitor_overhead_seconds_per_sample",
                "Monitor self-time per restored sample.",
            ).set(self.seconds_per_sample)
            self.registry.gauge(
                "repro_monitor_overhead_budget_fraction",
                "Self-time per sample over the sampling period.",
            ).set(self.budget_fraction)

    # ------------------------------------------------------------- figures
    @property
    def clocked(self) -> bool:
        return self.clock is not None

    @property
    def seconds_per_sample(self) -> float:
        return self.seconds / self.samples if self.samples else 0.0

    @property
    def budget_fraction(self) -> float:
        """Share of each sampling period spent inside the monitor itself."""
        return self.seconds_per_sample / self.sample_period_s

    def report(self) -> "dict[str, float | int | bool]":
        """JSON-able summary (the chaos report and ``obs.dump`` embed it)."""
        return {
            "clocked": self.clocked,
            "runs": self.runs,
            "samples": self.samples,
            "seconds_total": self.seconds,
            "seconds_per_sample": self.seconds_per_sample,
            "sample_period_s": self.sample_period_s,
            "budget_fraction": self.budget_fraction,
        }

    def render(self) -> str:
        """One human line: the number an operator actually wants."""
        return render_overhead(self.report())

    def reset(self) -> None:
        self.runs = 0
        self.samples = 0
        self.seconds = 0.0


def render_overhead(report: "dict[str, float | int | bool]") -> str:
    """Format a :meth:`OverheadProfiler.report` dict as the one-line figure
    (shared by the profiler itself and the chaos report)."""
    if not report.get("clocked"):
        return (f"self-overhead: unclocked ({report['samples']} samples "
                f"across {report['runs']} runs)")
    return (
        f"self-overhead: {report['seconds_per_sample'] * 1e3:.3f} ms/sample "
        f"= {report['budget_fraction'] * 100:.3f}% of the "
        f"{report['sample_period_s']:g} s sampling budget "
        f"({report['samples']} samples across {report['runs']} runs)"
    )
