"""Tests for StaticTRR (spline + ResModel + Algorithm 1)."""

import numpy as np
import pytest

from repro.core import HighRPMConfig, StaticTRR
from repro.errors import ValidationError
from repro.hardware import ARM_PLATFORM
from repro.ml import mape
from repro.sensors import SparseReadings


@pytest.fixture()
def static_trr():
    cfg = HighRPMConfig(miss_interval=10)
    return StaticTRR(
        cfg,
        p_upper=ARM_PLATFORM.max_node_power_w,
        p_bottom=ARM_PLATFORM.min_node_power_w,
    )


class TestStaticTRR:
    def test_restores_dense_trace(self, static_trr, small_bundle, ipmi_readings):
        result = static_trr.fit_restore(small_bundle.pmcs.matrix, ipmi_readings)
        assert len(result) == len(small_bundle)
        assert np.isfinite(result.p_trr).all()

    def test_accuracy_in_paper_band(self, static_trr, small_bundle, ipmi_readings):
        result = static_trr.fit_restore(small_bundle.pmcs.matrix, ipmi_readings)
        err = mape(small_bundle.node.values, result.p_trr)
        assert err < 12.0  # paper: ~4 % on average; generous per-trace bound

    def test_beats_hold_baseline(self, static_trr, small_bundle, ipmi_readings):
        result = static_trr.fit_restore(small_bundle.pmcs.matrix, ipmi_readings)
        truth = small_bundle.node.values
        hold = np.empty_like(truth)
        last = ipmi_readings.values[0]
        lookup = dict(zip(ipmi_readings.indices.tolist(), ipmi_readings.values.tolist()))
        for t in range(len(truth)):
            last = lookup.get(t, last)
            hold[t] = last
        assert mape(truth, result.p_trr) < mape(truth, hold) * 1.2

    def test_observed_points_pinned(self, static_trr, small_bundle, ipmi_readings):
        result = static_trr.fit_restore(small_bundle.pmcs.matrix, ipmi_readings)
        np.testing.assert_allclose(
            result.p_trr[ipmi_readings.indices], ipmi_readings.values
        )

    def test_output_within_physical_limits(self, static_trr, small_bundle, ipmi_readings):
        result = static_trr.fit_restore(small_bundle.pmcs.matrix, ipmi_readings)
        interior = np.ones(len(result), dtype=bool)
        interior[ipmi_readings.indices] = False  # pinned readings are raw
        assert (result.p_trr[interior] <= ARM_PLATFORM.max_node_power_w + 1e-9).all()
        assert (result.p_trr[interior] >= ARM_PLATFORM.min_node_power_w - 1e-9).all()

    def test_needs_four_readings(self, static_trr, small_bundle):
        readings = SparseReadings(
            np.array([0, 50, 100]), np.array([80.0, 85.0, 82.0]), 50, len(small_bundle)
        )
        with pytest.raises(ValidationError):
            static_trr.fit_restore(small_bundle.pmcs.matrix, readings)

    def test_non_finite_reading_rejected(self, small_bundle):
        """One NaN reading used to restore most of the trace as NaN."""
        trr = StaticTRR(p_upper=400, p_bottom=50)
        values = np.full(10, 200.0)
        values[4] = np.nan
        readings = SparseReadings(
            indices=np.arange(5, 100, 10), values=values, interval_s=10,
            n_dense=100,
        )
        with pytest.raises(ValidationError, match="finite"):
            trr.restore(small_bundle.pmcs.matrix[:100], readings)

    def test_length_mismatch_rejected(self, static_trr, small_bundle, ipmi_readings):
        with pytest.raises(ValidationError):
            static_trr.fit_restore(small_bundle.pmcs.matrix[:-5], ipmi_readings)

    def test_restore_convenience(self, static_trr, small_bundle, ipmi_readings):
        p = static_trr.restore(small_bundle.pmcs.matrix, ipmi_readings)
        assert p.shape == (len(small_bundle),)

    def test_unsigned_residual_mode(self, small_bundle, ipmi_readings):
        cfg = HighRPMConfig(miss_interval=10, residual_signed=False)
        trr = StaticTRR(cfg, p_upper=ARM_PLATFORM.max_node_power_w,
                        p_bottom=ARM_PLATFORM.min_node_power_w)
        result = trr.fit_restore(small_bundle.pmcs.matrix, ipmi_readings)
        assert np.isfinite(result.p_trr).all()

    def test_data_driven_limits(self, small_bundle, ipmi_readings):
        trr = StaticTRR(HighRPMConfig(miss_interval=10))  # no explicit limits
        result = trr.fit_restore(small_bundle.pmcs.matrix, ipmi_readings)
        assert np.isfinite(result.p_trr).all()

    def test_result_contains_intermediates(self, static_trr, small_bundle, ipmi_readings):
        result = static_trr.fit_restore(small_bundle.pmcs.matrix, ipmi_readings)
        assert result.p_splined.shape == result.p_trr.shape
        assert result.p_residual.shape == result.p_trr.shape
        # ResModel must actually differ from the spline somewhere.
        assert not np.allclose(result.p_splined, result.p_residual)


class TestAlgorithmOne:
    """Direct tests of the fusion rules."""

    def make(self, alpha=0.05, beta=0.25):
        cfg = HighRPMConfig(miss_interval=10, alpha=alpha, beta=beta)
        trr = StaticTRR(cfg, p_upper=120.0, p_bottom=40.0)
        trr._lo, trr._hi = 40.0, 120.0
        return trr

    def test_agreement_keeps_spline(self):
        trr = self.make()
        splined = np.full(5, 100.0)
        residual = np.full(5, 101.0)  # within alpha band
        fused = trr._post_process(splined.copy(), residual.copy())
        np.testing.assert_allclose(fused, 100.0)

    def test_mid_band_averages(self):
        trr = self.make(alpha=0.01, beta=0.5)
        splined = np.full(5, 100.0)
        residual = np.full(5, 110.0)  # 10 % apart: inside (alpha, beta]
        fused = trr._post_process(splined.copy(), residual.copy())
        np.testing.assert_allclose(fused, 105.0)

    def test_large_disagreement_keeps_spline(self):
        trr = self.make(alpha=0.01, beta=0.05)
        splined = np.full(5, 100.0)
        residual = np.full(5, 119.0)  # way beyond beta
        fused = trr._post_process(splined.copy(), residual.copy())
        np.testing.assert_allclose(fused, 100.0)

    def test_out_of_range_residual_distrusted(self):
        trr = self.make(alpha=0.01, beta=0.5)
        splined = np.full(5, 100.0)
        residual = np.full(5, 200.0)  # above p_upper -> replaced by spline
        fused = trr._post_process(splined.copy(), residual.copy())
        np.testing.assert_allclose(fused, 100.0)

    def test_output_clipped_to_limits(self):
        trr = self.make()
        splined = np.full(5, 130.0)  # spline overshoot
        residual = np.full(5, 130.0)
        fused = trr._post_process(splined.copy(), residual.copy())
        assert (fused <= 120.0).all()
