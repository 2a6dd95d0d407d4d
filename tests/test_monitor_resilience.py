"""Service-side resilience: retry, gating, degradation, health, log paths.

The expensive trained service comes from the session-scoped
``chaos_reference`` fixture; every test registers its own uniquely-named
node so runs never interfere.
"""

import numpy as np
import pytest

from repro.core import PROV_MODEL_ONLY, PROV_RESTORED
from repro.errors import SensorOutageError, TransientSensorError, ValidationError
from repro.faults import FaultySensor, OutageWindow
from repro.hardware import ARM_PLATFORM, NodeSimulator
from repro.ml.metrics import mape
from repro.monitor import (
    DEGRADED,
    HEALTHY,
    OUTAGE,
    MemoryLogSink,
    MonitorLog,
    NodeHealth,
    PowerMonitorService,
    ResiliencePolicy,
)
from repro.monitor.resilience import gate_readings, sample_with_retry
from repro.sensors import IPMISensor, SparseReadings
from repro.stream import PowerChunk
from repro.workloads import default_catalog


def _logged_service(chaos_reference):
    """A fresh service over the shared model, logging into a MemoryLogSink."""
    reference, _ = chaos_reference
    memlog = MemoryLogSink()
    service = PowerMonitorService(reference.model, reference.spec,
                                  sinks=[memlog])
    return service, memlog


def readings_stream(values):
    values = np.asarray(values, dtype=np.float64)
    idx = np.arange(values.shape[0], dtype=np.int64) * 10 + 5
    return SparseReadings(idx, values, 10, int(idx[-1]) + 10)


class TestResiliencePolicy:
    def test_defaults_valid(self):
        p = ResiliencePolicy()
        assert p.min_readings(online=True) == 1
        assert p.min_readings(online=False) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"gate_margin_fraction": -0.5},
            {"min_readings_static": 3},
            {"min_readings_dynamic": 0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ResiliencePolicy(**kwargs)


class TestNodeHealth:
    def test_status_follows_latest_run(self):
        h = NodeHealth("n0")
        h.record_degraded_run("gated")
        assert h.status == DEGRADED
        h.record_outage_run("dead feed")
        assert h.status == OUTAGE and h.consecutive_failures == 1
        h.record_healthy_run()
        assert h.status == HEALTHY and h.consecutive_failures == 0
        assert h.runs == 3 and h.outages == 1 and h.degraded_runs == 1


class _FlakySensor:
    """Fails the first ``n_fail`` sample() calls with a transient error."""

    def __init__(self, n_fail, payload="ok"):
        self.n_fail = n_fail
        self.calls = 0
        self.payload = payload

    def sample(self, bundle):
        self.calls += 1
        if self.calls <= self.n_fail:
            raise TransientSensorError(f"flake {self.calls}")
        return self.payload


class TestSampleWithRetry:
    def test_recovers_within_budget(self):
        policy = ResiliencePolicy(max_retries=2)
        health = NodeHealth("n0")
        sensor = _FlakySensor(2)
        assert sample_with_retry(sensor, None, policy, health) == "ok"
        assert sensor.calls == 3
        assert health.retries == 2
        # Exponential backoff: 0.05 + 0.10.
        assert health.backoff_total_s == pytest.approx(0.15)

    def test_exhausted_budget_propagates(self):
        policy = ResiliencePolicy(max_retries=1)
        health = NodeHealth("n0")
        with pytest.raises(TransientSensorError):
            sample_with_retry(_FlakySensor(5), None, policy, health)
        assert health.retries == 1

    def test_sleep_callable_receives_backoff(self):
        slept = []
        policy = ResiliencePolicy(max_retries=2, sleep=slept.append)
        sample_with_retry(_FlakySensor(2), None, policy, NodeHealth("n0"))
        assert slept == pytest.approx([0.05, 0.10])

    def test_outage_not_retried(self):
        class Dead:
            calls = 0

            def sample(self, bundle):
                self.calls += 1
                raise SensorOutageError("feed is gone")

        sensor = Dead()
        with pytest.raises(SensorOutageError):
            sample_with_retry(sensor, None, ResiliencePolicy(), NodeHealth("n0"))
        assert sensor.calls == 1


class TestGateReadings:
    def test_in_band_untouched(self):
        r = readings_stream([80.0, 90.0, 100.0])
        out, dropped = gate_readings(r, 60.0, 110.0, 0.25)
        assert out is r and dropped == 0

    def test_glitches_dropped(self):
        r = readings_stream([80.0, 400.0, 90.0, -250.0])
        out, dropped = gate_readings(r, 60.0, 110.0, 0.25)
        assert dropped == 2
        np.testing.assert_array_equal(out.values, [80.0, 90.0])
        assert out.n_dense == r.n_dense

    def test_all_gated_is_none(self):
        r = readings_stream([500.0, 600.0])
        out, dropped = gate_readings(r, 60.0, 110.0, 0.1)
        assert out is None and dropped == 2

    def test_margin_widens_band(self):
        r = readings_stream([120.0, 80.0, 80.0])  # 120 > p_upper but inside margin
        out, dropped = gate_readings(r, 60.0, 110.0, 0.25)
        assert dropped == 0 and len(out) == 3

    def test_invalid_clamps_rejected(self):
        with pytest.raises(ValidationError):
            gate_readings(readings_stream([80.0]), 110.0, 60.0, 0.1)


def _chunk(p_node, p_cpu, p_mem, provenance=None):
    return PowerChunk(
        node_id="n0", workload="w", start=0, stop=len(p_node),
        mode="static", p_node=p_node, p_cpu=p_cpu, p_mem=p_mem,
        provenance=provenance,
    )


class TestMonitorLogValidation:
    def test_append_rejects_length_mismatch(self):
        log = MonitorLog("n0")
        bad = _chunk(np.ones(10), np.ones(9), np.ones(10))
        with pytest.raises(ValidationError, match="p_cpu"):
            log.append_chunk(bad)
        bad_prov = _chunk(np.ones(10), np.ones(10), np.ones(10),
                          provenance=np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValidationError, match="provenance"):
            log.append_chunk(bad_prov)
        assert len(log) == 0 and log.runs == []

    def test_append_fills_missing_provenance(self):
        log = MonitorLog("n0")
        log.append_chunk(_chunk(np.ones(5), np.ones(5), np.ones(5)))
        log.end_run("w", "static")
        assert (log.provenance == PROV_RESTORED).all()
        assert log.modes == ["static"]
        assert log.model_only_fraction() == 0.0

    def test_empty_log_fraction(self):
        assert MonitorLog("n0").model_only_fraction() == 0.0


class TestServiceErrorPaths:
    def test_duplicate_registration_rejected(self, chaos_reference):
        service, _ = chaos_reference
        service.register_node("res-dup")
        with pytest.raises(ValidationError, match="already registered"):
            service.register_node("res-dup")

    def test_unknown_node_everywhere(self, chaos_reference):
        service, bundle = chaos_reference
        for call in (
            lambda: service.health("res-nope"),
            lambda: service.observe_run("res-nope", bundle),
            lambda: service.adapt("res-nope", bundle),
        ):
            with pytest.raises(ValidationError, match="res-nope"):
                call()


@pytest.fixture(scope="module")
def tiny_bundle():
    """A run shorter than the IM interval (5 s vs 10 s readings)."""
    sim = NodeSimulator(ARM_PLATFORM, seed=404)
    return sim.run(default_catalog(seed=404).get("hpcc_fft"), duration_s=5)


class TestShortBundle:
    """Satellite: observe_run on bundles shorter than the IM interval."""

    def test_sensor_alone_raises(self, tiny_bundle):
        with pytest.raises(ValidationError):
            IPMISensor(ARM_PLATFORM, seed=1).sample(tiny_bundle)

    def test_default_policy_degrades_with_flag(self, chaos_reference, tiny_bundle):
        service, memlog = _logged_service(chaos_reference)
        service.register_node("res-short")
        result = service.observe_run("res-short", tiny_bundle)
        assert result.mode == "model_only"
        assert len(result) == len(tiny_bundle)
        assert result.model_only_mask.all()
        log = memlog.log("res-short")
        assert log.model_only_fraction() == 1.0
        health = service.health("res-short")
        assert health.status == OUTAGE
        assert "too short" in health.last_error

    def test_strict_policy_raises_clear_error(self, chaos_reference, tiny_bundle):
        service, _ = chaos_reference
        strict = PowerMonitorService(
            service.model, service.spec,
            policy=ResiliencePolicy(degrade_to_model_only=False),
        )
        strict.register_node("res-short-strict")
        with pytest.raises(ValidationError) as excinfo:
            strict.observe_run("res-short-strict", tiny_bundle)
        msg = str(excinfo.value)
        assert "too short" in msg and "res-short-strict" in msg
        assert "interval" in msg


class TestMidRunOutage:
    """ISSUE acceptance: full mid-run IM outage, graceful degradation."""

    @pytest.fixture(scope="class")
    def outage_run(self, chaos_reference):
        _, bundle = chaos_reference
        service, memlog = _logged_service(chaos_reference)
        n = len(bundle)
        start, dur = n // 3, n // 3
        sensor = FaultySensor(
            IPMISensor(ARM_PLATFORM, seed=31),
            faults=[OutageWindow(start, dur)],
            seed=32,
        )
        service.register_node("res-outage", sensor=sensor)
        result = service.observe_run("res-outage", bundle, online=True)
        return service, memlog, bundle, result, (start, start + dur)

    def test_completes_and_flags_outage_samples(self, outage_run):
        service, memlog, bundle, result, (t0, t1) = outage_run
        assert len(result) == len(bundle)
        assert np.isfinite(result.p_node).all()
        # Deep inside the outage window the provenance must say model-only...
        mid = (t0 + t1) // 2
        assert result.provenance[mid] == PROV_MODEL_ONLY
        # ...and the log carries the same flags.
        log = memlog.log("res-outage")
        tail = log.model_only_mask[-len(bundle):]
        assert tail.any()
        assert set(np.flatnonzero(tail)) <= set(range(t0 - 25, t1 + 25))
        assert service.health("res-outage").status == DEGRADED

    def test_outage_mape_within_2x_healthy(self, outage_run):
        _, _, bundle, result, (t0, t1) = outage_run
        truth = bundle.node.values
        window = np.zeros(len(bundle), dtype=bool)
        window[t0:t1] = True
        mape_outage = mape(truth[window], result.p_node[window])
        mape_healthy = mape(truth[~window], result.p_node[~window])
        assert mape_outage <= 2.0 * mape_healthy, (
            f"outage-window MAPE {mape_outage:.2f}% exceeds twice the "
            f"healthy-window MAPE {mape_healthy:.2f}%"
        )

    def test_session_records_resync_on_recovery(self, chaos_reference):
        # Drive a streaming session directly: readings every 10 s, then a
        # 60 s silence, then the feed returns. The gap exceeds
        # resync_gap_factor x miss_interval, so the recovery second must be
        # recorded as a re-sync (boosted fine-tune).
        service, bundle = chaos_reference
        session = service.model.dynamic_trr.session()
        pmcs = bundle.pmcs.matrix
        truth = bundle.node.values
        gap = range(40, 100)
        for t in range(120):
            reading = (
                float(truth[t]) if t % 10 == 5 and t not in gap else None
            )
            session.step(pmcs[t], reading)
        assert session.resyncs, "feed recovery after a long gap not recorded"
        assert all(t >= 100 for t in session.resyncs)


class TestDeadFeed:
    def test_whole_run_outage_goes_model_only(self, chaos_reference):
        _, bundle = chaos_reference
        service, memlog = _logged_service(chaos_reference)
        sensor = FaultySensor(
            IPMISensor(ARM_PLATFORM, seed=41),
            faults=[OutageWindow(0, 100 * len(bundle))],
            seed=42,
        )
        service.register_node("res-dead", sensor=sensor)
        result = service.observe_run("res-dead", bundle)
        assert result.mode == "model_only"
        assert result.model_only_mask.all()
        health = service.health("res-dead")
        assert health.status == OUTAGE and health.outages == 1
        assert memlog.log("res-dead").model_only_fraction() == 1.0

    def test_strict_policy_raises_on_outage(self, chaos_reference):
        service, bundle = chaos_reference
        strict = PowerMonitorService(
            service.model, service.spec,
            policy=ResiliencePolicy(degrade_to_model_only=False),
        )
        sensor = FaultySensor(
            IPMISensor(ARM_PLATFORM, seed=43),
            faults=[OutageWindow(0, 100 * len(bundle))],
            seed=44,
        )
        strict.register_node("res-dead-strict", sensor=sensor)
        with pytest.raises(SensorOutageError):
            strict.observe_run("res-dead-strict", bundle)
        assert strict.health("res-dead-strict").status == OUTAGE


class TestRetriesInService:
    def test_transients_retried_and_marked_degraded(self, chaos_reference):
        service, bundle = chaos_reference
        sensor = FaultySensor(IPMISensor(ARM_PLATFORM, seed=51), fail_first=2)
        service.register_node("res-flaky", sensor=sensor)
        result = service.observe_run("res-flaky", bundle)
        assert result.mode in ("dynamic", "static")
        health = service.health("res-flaky")
        assert health.retries == 2
        assert health.status == DEGRADED
