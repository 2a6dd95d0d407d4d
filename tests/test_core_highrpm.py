"""Tests for the HighRPM facade, config, and active learning."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import HighRPM, HighRPMConfig
from repro.core.active_learning import ReinforcementSampler, SamplePool
from repro.core.highrpm import (
    PROV_MEASURED,
    PROV_MODEL_ONLY,
    PROV_RESTORED,
    PROVENANCE_CONFIDENCE,
    MonitorResult,
    provenance_from_readings,
    provenance_stack,
)
from repro.errors import NotFittedError, ValidationError
from repro.hardware import ARM_PLATFORM
from repro.ml import mape
from repro.monitor.scheduler import thin_readings
from repro.sensors import IPMISensor
from repro.sensors.base import SparseReadings


@pytest.fixture(scope="module")
def train_bundles(arm_sim, catalog):
    names = ["spec_gcc", "spec_mcf", "parsec_ferret", "hpcc_hpl",
             "hpcc_stream", "parsec_radix"]
    return [arm_sim.run(catalog.get(n), duration_s=120) for n in names]


@pytest.fixture(scope="module")
def fitted(train_bundles):
    cfg = HighRPMConfig(miss_interval=10, lstm_iters=300, srr_iters=2500, seed=2)
    hr = HighRPM(cfg, p_bottom=ARM_PLATFORM.min_node_power_w,
                 p_upper=ARM_PLATFORM.max_node_power_w)
    return hr.fit_initial(train_bundles)


class TestConfig:
    def test_defaults_valid(self):
        HighRPMConfig()

    def test_miss_interval_bound(self):
        with pytest.raises(ValidationError):
            HighRPMConfig(miss_interval=1)

    def test_alpha_beta_order(self):
        with pytest.raises(ValidationError):
            HighRPMConfig(alpha=0.3, beta=0.2)

    def test_limit_order(self):
        with pytest.raises(ValidationError):
            HighRPMConfig(p_upper=10.0, p_bottom=20.0)

    def test_fraction_bound(self):
        with pytest.raises(ValidationError):
            HighRPMConfig(reinforcement_fraction=0.0)


class TestHighRPM:
    def test_monitor_offline(self, fitted, small_bundle, ipmi_readings):
        result = fitted.monitor_offline(small_bundle.pmcs.matrix, ipmi_readings)
        assert result.mode == "static"
        assert len(result) == len(small_bundle)
        assert mape(small_bundle.node.values, result.p_node) < 12.0

    def test_monitor_online(self, fitted, small_bundle, ipmi_readings):
        result = fitted.monitor_online(small_bundle.pmcs.matrix, ipmi_readings)
        assert result.mode == "dynamic"
        assert mape(small_bundle.node.values, result.p_node) < 15.0
        assert mape(small_bundle.cpu.values, result.p_cpu) < 25.0

    def test_p_other_residual(self, fitted, small_bundle, ipmi_readings):
        result = fitted.monitor_offline(small_bundle.pmcs.matrix, ipmi_readings)
        # implied peripheral power should hover near the 25 W budget
        assert np.median(result.p_other) == pytest.approx(25.0, abs=3.0)

    def test_requires_fit(self, small_bundle, ipmi_readings):
        hr = HighRPM()
        with pytest.raises(NotFittedError):
            hr.monitor_offline(small_bundle.pmcs.matrix, ipmi_readings)

    def test_fit_needs_bundles(self):
        with pytest.raises(ValidationError):
            HighRPM().fit_initial([])

    def test_active_learning_runs_and_keeps_accuracy(
        self, fitted, arm_sim, catalog, small_bundle, ipmi_readings
    ):
        import copy

        hr = copy.deepcopy(fitted)
        extra = arm_sim.run(catalog.get("parsec_canneal"), duration_s=120)
        sensor = IPMISensor(ARM_PLATFORM, seed=77)
        readings = sensor.sample(extra)
        before = mape(
            small_bundle.cpu.values,
            hr.monitor_offline(small_bundle.pmcs.matrix, ipmi_readings).p_cpu,
        )
        hr.active_learning([(extra.pmcs.matrix, readings)])
        after = mape(
            small_bundle.cpu.values,
            hr.monitor_offline(small_bundle.pmcs.matrix, ipmi_readings).p_cpu,
        )
        assert after < before * 1.5  # adaptation must not wreck the model

    def test_active_learning_noop_without_data(self, fitted):
        assert fitted.active_learning([]) is fitted


def _result(provenance, n=None) -> MonitorResult:
    n = len(provenance) if n is None else n
    return MonitorResult(p_node=np.zeros(n), p_cpu=np.zeros(n),
                         p_mem=np.zeros(n), mode="static",
                         provenance=provenance)


class TestConfidence:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.none(),
        hnp.arrays(np.uint8, st.integers(0, 300),
                   elements=st.integers(0, len(PROVENANCE_CONFIDENCE) - 1)),
    ), st.integers(0, 40))
    def test_table_lookup_equals_the_masked_writes(self, provenance, n):
        result = _result(provenance, n if provenance is None else None)
        if provenance is None:  # legacy results: every sample restored
            want = np.full(n, PROVENANCE_CONFIDENCE[1])
        else:
            want = np.empty(len(provenance), dtype=np.float64)
            for code, conf in PROVENANCE_CONFIDENCE.items():
                want[provenance == code] = conf
        got = result.confidence()
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        if len(got):
            assert got.mean() == want.mean()  # bitwise

    @pytest.mark.parametrize("provenance", [
        np.array([0, 1, 3], dtype=np.uint8),
        np.array([255], dtype=np.uint8),
        np.array([0, -1], dtype=np.int8),
        np.array([0.0, 1.0]),
    ], ids=["code-3", "code-255", "negative", "float"])
    def test_unknown_code_raises(self, provenance):
        with pytest.raises(ValidationError, match="provenance code"):
            _result(provenance).confidence()


def reference_provenance(n, readings, interval_s=None, outage_factor=2.0):
    """One run's provenance, sample by sample: measured at a reading,
    restored within ``outage_factor * interval`` of the nearest reading,
    model-only beyond."""
    interval = readings.interval_s if interval_s is None else interval_s
    idx = readings.indices.tolist()
    out = np.empty(n, dtype=np.uint8)
    for t in range(n):
        nearest = min(abs(t - i) for i in idx)
        out[t] = PROV_MEASURED if nearest == 0 else (
            PROV_RESTORED if nearest <= outage_factor * int(interval)
            else PROV_MODEL_ONLY)
    return out


@st.composite
def provenance_runs(draw):
    """Runs of different lengths: a single reading, readings at the trace
    edges, sparse feeds with outage gaps, and governor-thinned feeds whose
    interval scales with the stride."""
    runs = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 150))
        idx = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                  max_size=min(n, 20))))
        if n > 1 and draw(st.booleans()):
            idx = sorted({0, n - 1, *idx})
        readings = SparseReadings(np.array(idx), np.ones(len(idx)),
                                  draw(st.integers(1, 12)), n)
        stride = draw(st.integers(1, 4))
        if stride > 1:
            readings, _ = thin_readings(readings, stride,
                                        offset=draw(st.integers(0, 3)))
        runs.append((n, readings, draw(st.sampled_from([1.0, 2.0, 2.5, 3]))))
    return runs


class TestProvenanceStack:
    @settings(max_examples=150, deadline=None)
    @given(provenance_runs())
    def test_one_pass_equals_each_runs_own(self, runs):
        stacked = provenance_stack([n for n, _, _ in runs],
                                   [r for _, r, _ in runs],
                                   [f for _, _, f in runs])
        assert len(stacked) == len(runs)
        for (n, readings, factor), got in zip(runs, stacked):
            want = reference_provenance(n, readings, outage_factor=factor)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)
            alone = provenance_from_readings(n, readings, outage_factor=factor)
            np.testing.assert_array_equal(alone, want)

    def test_thinned_feed_reaches_further(self):
        """The governor's thinning scales the nominal interval, so each
        surviving reading anchors proportionally further."""
        readings = SparseReadings(np.arange(0, 100, 10), np.ones(10), 10, 100)
        thinned, dropped = thin_readings(readings, 3)
        assert dropped and thinned.interval_s == 30
        scaled, unscaled = provenance_stack([100, 100], [thinned, thinned],
                                            [0.5, 0.5], intervals=[30, 10])
        np.testing.assert_array_equal(
            scaled, reference_provenance(100, thinned, outage_factor=0.5))
        np.testing.assert_array_equal(
            unscaled, reference_provenance(100, thinned, interval_s=10,
                                           outage_factor=0.5))
        assert (scaled == PROV_MODEL_ONLY).sum() < \
            (unscaled == PROV_MODEL_ONLY).sum()

    def test_span_and_interval_override(self):
        readings = SparseReadings(np.array([0, 3, 40, 99]), np.ones(4), 5, 100)
        whole = reference_provenance(100, readings, interval_s=2,
                                     outage_factor=2.0)
        for start, stop in [(0, 100), (0, 1), (37, 45), (99, 100), (50, 50)]:
            np.testing.assert_array_equal(
                provenance_from_readings(100, readings, interval_s=2,
                                         start=start, stop=stop),
                whole[start:stop])

    def test_empty_pass(self):
        assert provenance_stack([], [], []) == []


class TestReinforcementSampler:
    def make_pool(self, n=100, restored_frac=0.5):
        k = int(n * restored_frac)
        return SamplePool(
            pmcs=np.random.default_rng(0).random((n, 3)),
            p_node=np.full(n, 80.0),
            p_cpu=np.full(n, 40.0),
            p_mem=np.full(n, 15.0),
            restored=np.array([False] * (n - k) + [True] * k),
        )

    def test_draw_size(self):
        pool = self.make_pool()
        batch = ReinforcementSampler(fraction=0.3, rng=1).draw(pool)
        assert len(batch) == 30

    def test_draw_without_replacement(self):
        pool = self.make_pool(10)
        batch = ReinforcementSampler(fraction=1.0, rng=1).draw(pool)
        assert len(batch) == 10

    def test_restored_weighting_biases_draw(self):
        pool = self.make_pool(1000, restored_frac=0.5)
        heavy = ReinforcementSampler(fraction=0.2, restored_weight=10.0, rng=1)
        batch = heavy.draw(pool)
        assert batch.restored.mean() > 0.7

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValidationError):
            ReinforcementSampler(fraction=0.0)

    def test_merge(self):
        a, b = self.make_pool(10), self.make_pool(20)
        merged = SamplePool.merge(a, b)
        assert len(merged) == 30

    def test_pool_validates_lengths(self):
        with pytest.raises(ValidationError):
            SamplePool(
                pmcs=np.ones((5, 2)), p_node=np.ones(4), p_cpu=np.ones(5),
                p_mem=np.ones(5), restored=np.zeros(5, dtype=bool),
            )
