"""Fine-grained tests for the DynamicTRR online session mechanics."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DynamicTRR, HighRPMConfig
from repro.core.dynamic_trr import OnlineTRRSession
from repro.errors import ValidationError
from repro.hardware import ARM_PLATFORM
from repro.sensors import IPMISensor


@pytest.fixture(scope="module")
def train_bundles(arm_sim, catalog):
    names = ["spec_gcc", "spec_mcf", "hpcc_hpl", "hpcc_stream"]
    return [arm_sim.run(catalog.get(n), duration_s=100) for n in names]


@pytest.fixture(scope="module")
def dyn(train_bundles):
    model = DynamicTRR(HighRPMConfig(miss_interval=10, lstm_iters=150, seed=4))
    model.fit(train_bundles, p_bottom=ARM_PLATFORM.min_node_power_w,
              p_upper=ARM_PLATFORM.max_node_power_w)
    return model


class TestSessionMechanics:
    def test_hold_channel_updates_on_reading(self, dyn, small_bundle):
        session = dyn.session()
        session.step(small_bundle.pmcs.matrix[0], im_reading=90.0)
        assert session._hold[0] == 90.0
        session.step(small_bundle.pmcs.matrix[1])
        # Next step's window holds the last reading in the feature channel.
        assert session._window(1)[0, -1, -1] == 90.0

    def test_replay_buffer_capped(self, dyn, small_bundle):
        session = dyn.session()
        cap = OnlineTRRSession.BUFFER_CAP
        pmcs = small_bundle.pmcs.matrix
        for t in range(cap + 10):
            session.step(pmcs[t % len(small_bundle)], im_reading=85.0)
        assert len(session._buffer_X) == cap

    def test_two_sessions_independent(self, dyn, small_bundle, ipmi_readings):
        a = dyn.session()
        b = dyn.session()
        pa = a.run(small_bundle.pmcs.matrix, ipmi_readings)
        pb = b.run(small_bundle.pmcs.matrix, ipmi_readings)
        np.testing.assert_allclose(pa, pb)  # same model copy, same inputs

    def test_first_step_without_reading_uses_train_mean(self, dyn, small_bundle):
        session = dyn.session()
        est = session.step(small_bundle.pmcs.matrix[0])
        # Cold start anchors at the training-campaign mean power; the first
        # estimate cannot stray far from it.
        assert abs(est - dyn.train_power_mean_) < 0.5 * dyn.train_power_mean_

    def test_window_width_is_miss_interval(self, dyn, small_bundle):
        session = dyn.session()
        for t in range(15):
            session.step(small_bundle.pmcs.matrix[t])
        X = session._window(14)
        assert X.shape == (1, dyn.config.miss_interval, dyn.n_pmcs_ + 1)

    def test_interval_mismatch_still_runs(self, dyn, small_bundle):
        """Readings at 20 s spacing into a model trained for 10 s windows:
        degraded but functional (the §6.4.6 scenario)."""
        sensor = IPMISensor(ARM_PLATFORM, interval_s=20, seed=3)
        readings = sensor.sample(small_bundle)
        p = dyn.restore(small_bundle.pmcs.matrix, readings)
        assert np.isfinite(p).all()


class TestNonFiniteReadings:
    """A NaN or infinite IM reading is rejected at the session boundary
    instead of becoming an estimate and the hold channel's anchor."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_step_rejects_non_finite_reading(self, dyn, small_bundle, bad):
        session = dyn.session()
        session.step(small_bundle.pmcs.matrix[0], im_reading=90.0)
        with pytest.raises(ValidationError, match="finite"):
            session.step(small_bundle.pmcs.matrix[1], im_reading=bad)
        # Nothing was consumed: the session still holds the last reading.
        assert session.t == 1
        assert session._hold[-1] == 90.0

    def test_run_chunk_rejects_non_finite_reading_in_its_span(
        self, dyn, small_bundle, ipmi_readings
    ):
        values = ipmi_readings.values.copy()
        values[3] = np.nan
        bad = replace(ipmi_readings, values=values)
        pmcs = small_bundle.pmcs.matrix
        cut = int(ipmi_readings.indices[3])
        session = dyn.session()
        session.run_chunk(pmcs[:cut], bad)  # the NaN lies past this chunk
        with pytest.raises(ValidationError, match="finite"):
            session.run_chunk(pmcs[cut:cut + 20], bad)
        assert session.t == cut
