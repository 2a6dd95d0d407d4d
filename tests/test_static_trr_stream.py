"""Chunked core restoration: StaticTRRStream and OnlineTRRSession.run_chunk.

Bit-identity is the contract: any chunking of a trace must concatenate to
exactly the whole-run result, because the monitor's streaming pipeline and
the fleet front-end both lean on it.
"""

import numpy as np
import pytest

from repro.core import DynamicTRR, HighRPMConfig, StaticTRR
from repro.core.static_trr import fit_streams
from repro.errors import ValidationError
from repro.hardware import ARM_PLATFORM
from repro.sensors import IPMISensor


@pytest.fixture()
def static_trr():
    return StaticTRR(
        HighRPMConfig(miss_interval=10),
        p_upper=ARM_PLATFORM.max_node_power_w,
        p_bottom=ARM_PLATFORM.min_node_power_w,
    )


@pytest.fixture(scope="module")
def dyn(arm_sim, catalog):
    names = ["spec_gcc", "spec_mcf", "hpcc_hpl", "hpcc_stream"]
    bundles = [arm_sim.run(catalog.get(n), duration_s=100) for n in names]
    model = DynamicTRR(HighRPMConfig(miss_interval=10, lstm_iters=150, seed=4))
    model.fit(bundles, p_bottom=ARM_PLATFORM.min_node_power_w,
              p_upper=ARM_PLATFORM.max_node_power_w)
    return model


def _stream_restore(stream, pmcs, chunk_size):
    parts = []
    for start in range(0, pmcs.shape[0], chunk_size):
        out_start, part = stream.restore_chunk(pmcs[start:start + chunk_size])
        if part.shape[0]:
            assert out_start == sum(p.shape[0] for p in parts)
            parts.append(part)
    _, tail = stream.finish()
    if tail.shape[0]:
        parts.append(tail)
    return np.concatenate(parts)


class TestStaticStream:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_chunked_equals_whole_run(
        self, static_trr, small_bundle, ipmi_readings, chunk_size
    ):
        pmcs = small_bundle.pmcs.matrix
        whole = static_trr.restore(pmcs, ipmi_readings)
        stream = static_trr.fit_stream(pmcs[ipmi_readings.indices], ipmi_readings)
        chunked = _stream_restore(stream, pmcs, chunk_size)
        np.testing.assert_array_equal(chunked, whole)

    def test_outputs_lag_by_half_a_miss_interval(
        self, static_trr, small_bundle, ipmi_readings
    ):
        pmcs = small_bundle.pmcs.matrix
        stream = static_trr.fit_stream(pmcs[ipmi_readings.indices], ipmi_readings)
        start, part = stream.restore_chunk(pmcs[:20])
        assert start == 0
        assert stream.samples_fed == 20
        # With miss_interval=10, at most 20 - 10//2 samples can be final.
        assert stream.samples_emitted <= 20 - 5
        assert part.shape[0] == stream.samples_emitted

    def test_precomputed_residual_hat_matches_internal_path(
        self, static_trr, small_bundle, ipmi_readings
    ):
        pmcs = small_bundle.pmcs.matrix
        a = static_trr.fit_stream(pmcs[ipmi_readings.indices], ipmi_readings)
        b = static_trr.fit_stream(pmcs[ipmi_readings.indices], ipmi_readings)
        chunk = pmcs[:40]
        residual_hat = static_trr.res_model_.predict(chunk)
        _, pa = a.restore_chunk(chunk)
        _, pb = b.restore_chunk(chunk, residual_hat=residual_hat)
        np.testing.assert_array_equal(pa, pb)

    def test_residual_hat_shape_is_validated(
        self, static_trr, small_bundle, ipmi_readings
    ):
        pmcs = small_bundle.pmcs.matrix
        stream = static_trr.fit_stream(pmcs[ipmi_readings.indices], ipmi_readings)
        with pytest.raises(ValidationError, match="residual_hat has shape"):
            stream.restore_chunk(pmcs[:10], residual_hat=np.zeros(3))

    def test_overfeeding_the_trace_is_rejected(
        self, static_trr, small_bundle, ipmi_readings
    ):
        pmcs = small_bundle.pmcs.matrix
        stream = static_trr.fit_stream(pmcs[ipmi_readings.indices], ipmi_readings)
        stream.restore_chunk(pmcs)
        with pytest.raises(ValidationError, match="overruns"):
            stream.restore_chunk(pmcs[:1])

    def test_fit_stream_row_count_mismatch(
        self, static_trr, small_bundle, ipmi_readings
    ):
        with pytest.raises(ValidationError, match="one PMC row per reading"):
            static_trr.fit_stream(
                small_bundle.pmcs.matrix[:3], ipmi_readings
            )


class TestFitStreams:
    def test_stacked_fit_equals_per_run_fit_stream(self, small_bundle):
        """Runs fitted in one pass (mixed knot counts, both residual modes,
        data-driven and fixed limits) restore exactly as fitted alone."""
        pmcs = small_bundle.pmcs.matrix
        runs = []
        for k, (interval, seed, signed, limits) in enumerate([
            (10, 5, True, True), (10, 6, True, True), (20, 7, False, True),
            (7, 8, True, False), (30, 9, True, True),
        ]):
            readings = IPMISensor(ARM_PLATFORM, interval_s=interval,
                                  seed=seed).sample(small_bundle)
            config = HighRPMConfig(miss_interval=interval,
                                   residual_signed=signed)
            bounds = dict(p_upper=ARM_PLATFORM.max_node_power_w,
                          p_bottom=ARM_PLATFORM.min_node_power_w) \
                if limits else {}
            runs.append((lambda c=config, b=bounds: StaticTRR(c, **b),
                         readings))
        assert len({len(r) for _, r in runs}) >= 3
        streams = fit_streams([make() for make, _ in runs],
                              [pmcs[r.indices] for _, r in runs],
                              [r for _, r in runs])
        for stream, (make, readings) in zip(streams, runs):
            alone = make().fit_stream(pmcs[readings.indices], readings)
            np.testing.assert_array_equal(
                _stream_restore(stream, pmcs, 64),
                _stream_restore(alone, pmcs, 64),
            )

    def test_a_malformed_run_fails_the_pass(self, static_trr, small_bundle,
                                             ipmi_readings):
        pmcs = small_bundle.pmcs.matrix
        with pytest.raises(ValidationError, match="one PMC row per reading"):
            fit_streams([static_trr, StaticTRR()],
                        [pmcs[ipmi_readings.indices], pmcs[:3]],
                        [ipmi_readings, ipmi_readings])


class TestOnlineChunks:
    @pytest.mark.parametrize("chunk_size", [1, 13, 500])
    def test_chunked_equals_whole_run(
        self, dyn, small_bundle, ipmi_readings, chunk_size
    ):
        pmcs = small_bundle.pmcs.matrix
        whole = dyn.session(retain=False).run(pmcs, ipmi_readings)
        session = dyn.session(retain=False)
        parts = [
            session.run_chunk(pmcs[s:s + chunk_size], ipmi_readings)
            for s in range(0, pmcs.shape[0], chunk_size)
        ]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_model_only_chunked_equals_whole_run(self, dyn, small_bundle):
        pmcs = small_bundle.pmcs.matrix
        whole = dyn.session(retain=False).run(pmcs, None)
        session = dyn.session(retain=False)
        parts = [session.run_chunk(pmcs[s:s + 37], None)
                 for s in range(0, pmcs.shape[0], 37)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_unretained_session_state_is_bounded(self, dyn, small_bundle):
        session = dyn.session(retain=False)
        pmcs = small_bundle.pmcs.matrix
        for s in range(0, pmcs.shape[0], 50):
            session.run_chunk(pmcs[s:s + 50], None)
        # Feature deques are capped at one miss-interval window and the
        # per-step estimates are not accumulated.
        assert len(session._pmcs) <= dyn.config.miss_interval
        assert session.estimates.shape == (0,)
        # The sample clock still reflects the whole trace.
        assert session.t == pmcs.shape[0]

    def test_retained_session_keeps_the_full_trace(self, dyn, small_bundle):
        session = dyn.session(retain=True)
        pmcs = small_bundle.pmcs.matrix[:60]
        session.run_chunk(pmcs, None)
        assert session.estimates.shape == (60,)
