"""Tests for DynamicTRR and the online session."""

import numpy as np
import pytest

from repro.core import DynamicTRR, HighRPMConfig
from repro.errors import NotFittedError, ValidationError
from repro.hardware import ARM_PLATFORM
from repro.ml import mape


@pytest.fixture(scope="module")
def fitted_dyn(train_bundles):
    cfg = HighRPMConfig(miss_interval=10, lstm_iters=300, seed=3)
    dyn = DynamicTRR(cfg)
    dyn.fit(
        train_bundles,
        p_bottom=ARM_PLATFORM.min_node_power_w,
        p_upper=ARM_PLATFORM.max_node_power_w,
    )
    return dyn


# module-scoped copy of the session fixture chain
@pytest.fixture(scope="module")
def train_bundles(arm_sim, catalog):
    names = ["spec_gcc", "spec_mcf", "parsec_ferret", "hpcc_hpl",
             "hpcc_stream", "parsec_radix"]
    return [arm_sim.run(catalog.get(n), duration_s=120) for n in names]


class TestDynamicTRR:
    def test_restores_full_trace(self, fitted_dyn, small_bundle, ipmi_readings):
        p = fitted_dyn.restore(small_bundle.pmcs.matrix, ipmi_readings)
        assert p.shape == (len(small_bundle),)
        assert np.isfinite(p).all()

    def test_accuracy_on_unseen_benchmark(self, fitted_dyn, small_bundle, ipmi_readings):
        # small_bundle is hpcc_fft, absent from the training set.
        err = mape(small_bundle.node.values, fitted_dyn.restore(
            small_bundle.pmcs.matrix, ipmi_readings))
        assert err < 15.0

    def test_estimates_clamped_to_platform(self, fitted_dyn, small_bundle, ipmi_readings):
        p = fitted_dyn.session().run(small_bundle.pmcs.matrix, ipmi_readings)
        unmeasured = np.ones(p.shape[0], dtype=bool)
        unmeasured[ipmi_readings.indices] = False
        assert (p[unmeasured] <= fitted_dyn.p_upper_ + 1e-9).all()
        assert (p[unmeasured] >= fitted_dyn.p_bottom_ - 1e-9).all()

    def test_measured_instants_return_reading(self, fitted_dyn, small_bundle, ipmi_readings):
        p = fitted_dyn.restore(small_bundle.pmcs.matrix, ipmi_readings)
        np.testing.assert_allclose(p[ipmi_readings.indices], ipmi_readings.values)

    def test_sessions_do_not_mutate_shared_model(self, fitted_dyn, small_bundle, ipmi_readings):
        before = [w.copy() for w in fitted_dyn.model_._flat_params()]
        fitted_dyn.restore(small_bundle.pmcs.matrix, ipmi_readings)
        after = fitted_dyn.model_._flat_params()
        for b, a in zip(before, after):
            np.testing.assert_allclose(b, a)

    def test_session_before_fit(self):
        with pytest.raises(NotFittedError):
            DynamicTRR().session()

    def test_step_rejects_wrong_width(self, fitted_dyn):
        session = fitted_dyn.session()
        with pytest.raises(ValidationError):
            session.step(np.ones(3))

    def test_cold_start_without_reading(self, fitted_dyn, small_bundle):
        session = fitted_dyn.session()
        est = session.step(small_bundle.pmcs.matrix[0])
        assert np.isfinite(est)

    def test_fit_requires_long_bundles(self, small_bundle):
        dyn = DynamicTRR(HighRPMConfig(miss_interval=10))
        with pytest.raises(ValidationError):
            dyn.fit([small_bundle.slice(0, 12)])

    def test_restoration_10x_resolution(self, fitted_dyn, small_bundle, ipmi_readings):
        """The headline claim: 0.1 Sa/s readings -> 1 Sa/s estimates."""
        p = fitted_dyn.restore(small_bundle.pmcs.matrix, ipmi_readings)
        assert p.shape[0] == len(small_bundle)
        assert p.shape[0] >= 10 * len(ipmi_readings)
