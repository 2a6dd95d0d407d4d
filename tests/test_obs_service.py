"""Service-level observability: observe_run emits the metrics it promises.

Uses the shared ``chaos_reference`` fixture (one trained service); each
test registers its own uniquely-named nodes and asserts on counter
*deltas*, so ordering against the other suites sharing the fixture does
not matter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PROV_MEASURED, PROV_MODEL_ONLY, PROV_RESTORED
from repro.faults.inject import FaultySensor
from repro.monitor import FleetMonitor, MemoryLogSink, PowerMonitorService
from repro.obs import parse_prometheus, render_prometheus
from repro.sensors.ipmi import IPMISensor


def _counter_value(registry, name, **labels) -> float:
    fam = registry.get(name)
    if fam is None:
        return 0.0
    for sample_labels, child in fam.samples():
        if sample_labels == labels:
            return child.value
    return 0.0


def _step_seconds(service) -> float:
    """Traced seconds inside the run driver's open and tick steps."""
    stats = service.tracer.stats()
    return sum(stats[name].total_s for name in ("fleet.submit", "fleet.tick")
               if name in stats)


@pytest.fixture()
def service_and_bundle(chaos_reference):
    return chaos_reference


class TestObserveRunMetrics:
    def test_provenance_mix_matches_result(self, service_and_bundle):
        service, bundle = service_and_bundle
        reg = service.registry
        before = {
            label: _counter_value(reg, "repro_monitor_samples_total",
                                  provenance=label)
            for label in ("measured", "restored", "model_only")
        }
        service.register_node("obs-healthy")
        result = service.observe_run("obs-healthy", bundle)
        prov = result.provenance
        assert prov is not None
        expected = {
            "measured": int((prov == PROV_MEASURED).sum()),
            "restored": int((prov == PROV_RESTORED).sum()),
            "model_only": int((prov == PROV_MODEL_ONLY).sum()),
        }
        for label, count in expected.items():
            delta = _counter_value(
                reg, "repro_monitor_samples_total", provenance=label
            ) - before[label]
            assert delta == count, label
        assert _counter_value(reg, "repro_monitor_runs_total",
                              node="obs-healthy", mode=result.mode) == 1.0

    def test_retry_counter_counts_transient_failures(self, service_and_bundle):
        service, bundle = service_and_bundle
        reg = service.registry
        sensor = FaultySensor(
            IPMISensor(service.spec, seed=41), seed=42, fail_first=2
        )
        service.register_node("obs-flaky", sensor=sensor)
        result = service.observe_run("obs-flaky", bundle)
        assert result.mode != "model_only"  # retries rescued the run
        assert _counter_value(reg, "repro_monitor_retries_total",
                              node="obs-flaky") == 2.0
        assert _counter_value(reg, "repro_monitor_degraded_runs_total",
                              node="obs-flaky") == 1.0
        assert service.health("obs-flaky").retries == 2

    def test_log_summary_matches_provenance(self, service_and_bundle):
        reference, bundle = service_and_bundle
        memlog = MemoryLogSink()
        service = PowerMonitorService(reference.model, reference.spec,
                                      sinks=[memlog])
        service.register_node("obs-summary")
        result = service.observe_run("obs-summary", bundle)
        summary = memlog.log("obs-summary").summary()
        assert summary["runs"] == 1
        assert summary["samples"] == len(result)
        assert summary["measured"] + summary["restored"] \
            + summary["model_only"] == len(result)
        assert summary["measured"] == int(
            (result.provenance == PROV_MEASURED).sum()
        )

    @pytest.mark.parametrize("driver", ["observe_run", "fleet"])
    def test_profiler_prices_the_run(self, service_and_bundle, driver):
        service, bundle = service_and_bundle
        runs_before = service.profiler.runs
        samples_before = service.profiler.samples
        seconds_before = service.profiler.seconds
        steps_before = _step_seconds(service)
        nodes = [f"obs-profiled-{driver}-{i}" for i in range(2)]
        for node_id in nodes:
            service.register_node(node_id)
        if driver == "observe_run":
            results = [service.observe_run(node_id, bundle, online=False,
                                           chunk_size=16)
                       for node_id in nodes]
        else:
            results = list(FleetMonitor(service, chunk_size=16).observe_all(
                {node_id: bundle for node_id in nodes}, online=False
            ).values())
        assert service.profiler.runs == runs_before + len(nodes)
        assert service.profiler.samples == \
            samples_before + sum(len(r) for r in results)
        # the service injects a real clock, so the runs cost CPU time, and
        # the priced time covers every driver step on the same clock —
        # opening the runs (sensor sampling, ResModel and spline fits) too.
        assert service.profiler.clocked
        spent = service.profiler.seconds - seconds_before
        assert spent > 0.0
        assert spent >= _step_seconds(service) - steps_before > 0.0
        report = service.profiler.report()
        assert report["budget_fraction"] == pytest.approx(
            report["seconds_per_sample"] / report["sample_period_s"]
        )

    def test_pipeline_spans_recorded(self, service_and_bundle):
        service, bundle = service_and_bundle
        service.register_node("obs-spans")
        service.observe_run("obs-spans", bundle)
        stats = service.tracer.stats()
        for span in ("monitor.observe_run", "monitor.im_sample",
                     "monitor.gate", "monitor.restore",
                     "monitor.log_append", "trr.dynamic", "srr.split"):
            assert span in stats, span
            assert stats[span].timed

    def test_registry_exposition_round_trips(self, service_and_bundle):
        service, bundle = service_and_bundle
        service.register_node("obs-roundtrip")
        service.observe_run("obs-roundtrip", bundle)
        snap = service.registry.snapshot()
        assert parse_prometheus(render_prometheus(service.registry)) == snap

    def test_instrumentation_does_not_change_numerics(self, service_and_bundle):
        service, bundle = service_and_bundle
        service.register_node("obs-numerics-a")
        service.register_node("obs-numerics-b")
        a = service.observe_run("obs-numerics-a", bundle)
        b = service.observe_run("obs-numerics-b", bundle)
        # same trained model, same bundle, fresh sensors with distinct seeds
        # produce *deterministic* per-node streams; the instrumented paths
        # must not perturb them between calls.
        assert a.p_node.shape == b.p_node.shape
        assert np.isfinite(a.p_node).all()
