"""Tests for energy accounting, power capping, and the monitor service."""

import numpy as np
import pytest

from repro.core import HighRPM, HighRPMConfig
from repro.errors import CappingError, ValidationError
from repro.hardware import ARM_PLATFORM, NodeSimulator
from repro.monitor import (
    CappingPolicy,
    EnergyAccount,
    MemoryLogSink,
    PowerCapController,
    PowerMonitorService,
    energy_of,
    peak_of,
    run_capped,
)
from repro.types import PowerTrace


class TestEnergyAccount:
    def test_energy_of_constant_trace(self):
        t = PowerTrace(np.full(100, 90.0))
        assert energy_of(t) == pytest.approx(9000.0)
        assert peak_of(t) == 90.0

    def test_account_fields(self):
        t = PowerTrace(np.array([10.0, 20.0, 30.0, 20.0]))
        acc = EnergyAccount.from_trace(t, cap_w=25.0)
        assert acc.peak_w == 30.0
        assert acc.mean_w == pytest.approx(20.0)
        assert acc.time_above_cap_s == 1.0
        assert acc.energy_kj == pytest.approx(0.08)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            EnergyAccount.from_trace(PowerTrace(np.empty(0)))


class TestCappingPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CappingPolicy(cap_w=0.0)
        with pytest.raises(ValidationError):
            CappingPolicy(cap_w=50.0, reading_interval_s=0)

    def test_unreachable_cap_rejected(self):
        policy = CappingPolicy(cap_w=ARM_PLATFORM.min_node_power_w - 5)
        with pytest.raises(CappingError):
            PowerCapController(ARM_PLATFORM, policy)


class TestPowerCapController:
    def test_downshifts_when_over_cap(self):
        ctl = PowerCapController(ARM_PLATFORM, CappingPolicy(cap_w=70.0))
        assert ctl.current_freq_ghz == 2.2
        ctl(1, np.array([90.0]))  # reading over cap -> step down
        assert ctl.current_freq_ghz == 1.8

    def test_upshifts_when_under_cap(self):
        ctl = PowerCapController(
            ARM_PLATFORM, CappingPolicy(cap_w=70.0, headroom_w=5.0)
        )
        ctl(1, np.array([90.0]))
        assert ctl.current_freq_ghz == 1.8
        ctl(2, np.array([90.0, 50.0]))
        assert ctl.current_freq_ghz == 2.2

    def test_reading_interval_gates_sensing(self):
        policy = CappingPolicy(cap_w=70.0, reading_interval_s=10)
        ctl = PowerCapController(ARM_PLATFORM, policy)
        # overload visible at t=5, but sensing only happens at multiples of 10
        ctl(5, np.array([95.0] * 5))
        assert ctl.current_freq_ghz == 2.2  # not yet seen

    def test_action_interval_gates_actuation(self):
        policy = CappingPolicy(cap_w=70.0, reading_interval_s=1, action_interval_s=30)
        ctl = PowerCapController(ARM_PLATFORM, policy)
        for t in range(1, 29):
            ctl(t, np.full(t, 95.0))
        assert ctl.current_freq_ghz == 2.2  # action gate still closed
        ctl(30, np.full(30, 95.0))
        assert ctl.current_freq_ghz == 1.8

    def test_actions_logged(self):
        ctl = PowerCapController(ARM_PLATFORM, CappingPolicy(cap_w=70.0))
        ctl(1, np.array([95.0]))
        assert ctl.actions == [(1, 1.8)]


class TestRunCapped:
    def test_capping_reduces_energy_and_peak(self, catalog):
        sim = NodeSimulator(ARM_PLATFORM, seed=4)
        w = catalog.get("graph500_bfs")
        # Baseline: same closed-loop path (same activity/condition streams)
        # with the governor pinned at max frequency.
        free = sim.run_controlled(w, lambda t, h: 2.2, duration_s=200)
        policy = CappingPolicy(cap_w=75.0, reading_interval_s=1, action_interval_s=1)
        capped, ctl = run_capped(sim, w, policy, duration_s=200)
        assert capped.node.energy_joules() < free.node.energy_joules()
        assert capped.node.peak_power() <= free.node.peak_power()
        assert len(ctl.actions) > 0

    def test_slow_actions_raise_energy(self, catalog):
        """Fig. 1's direction: AI 1 s -> 30 s costs energy and peak power."""
        sim = NodeSimulator(ARM_PLATFORM, seed=4)
        w = catalog.get("graph500_bfs")
        fast, _ = run_capped(
            sim, w, CappingPolicy(cap_w=75.0, action_interval_s=1), duration_s=240
        )
        slow, _ = run_capped(
            sim, w, CappingPolicy(cap_w=75.0, action_interval_s=30), duration_s=240
        )
        assert slow.node.energy_joules() >= fast.node.energy_joules()


class TestMonitorService:
    @pytest.fixture(scope="class")
    def memlog(self):
        return MemoryLogSink()

    @pytest.fixture(scope="class")
    def service(self, arm_sim, catalog, memlog):
        names = ["spec_gcc", "spec_mcf", "hpcc_hpl", "hpcc_stream"]
        train = [arm_sim.run(catalog.get(n), duration_s=120) for n in names]
        cfg = HighRPMConfig(lstm_iters=200, srr_iters=1500, seed=5)
        hr = HighRPM(cfg, p_bottom=ARM_PLATFORM.min_node_power_w,
                     p_upper=ARM_PLATFORM.max_node_power_w)
        hr.fit_initial(train)
        return PowerMonitorService(hr, ARM_PLATFORM, sinks=[memlog])

    def test_register_and_observe(self, service, memlog, small_bundle):
        service.register_node("n0", seed=1)
        result = service.observe_run("n0", small_bundle, online=False)
        assert len(result) == len(small_bundle)
        assert len(memlog.log("n0")) == len(small_bundle)
        assert memlog.log("n0").runs == [small_bundle.workload]

    def test_multi_node_logs_separate(self, service, memlog, small_bundle):
        service.register_node("n1", seed=2)
        service.observe_run("n1", small_bundle, online=False)
        assert len(memlog.log("n1")) == len(small_bundle)

    def test_duplicate_registration_rejected(self, service):
        with pytest.raises(ValidationError):
            service.register_node("n0")

    def test_unknown_node_rejected(self, service, memlog, small_bundle):
        with pytest.raises(ValidationError):
            service.observe_run("ghost", small_bundle)
        with pytest.raises(ValidationError, match="ghost"):
            memlog.log("ghost")

    def test_requires_fitted_model(self):
        with pytest.raises(Exception):
            PowerMonitorService(HighRPM(), ARM_PLATFORM)
