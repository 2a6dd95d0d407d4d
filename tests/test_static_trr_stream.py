"""Chunked core restoration: StaticTRRStream and OnlineTRRSession.run_chunk.

Bit-identity is the contract: any chunking of a trace must concatenate to
exactly the whole-run result, because the monitor's streaming pipeline and
the fleet front-end both lean on it.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import DynamicTRR, HighRPMConfig, StaticTRR
from repro.core.static_trr import (
    RES_MODEL,
    StaticTRRStream,
    fit_streams,
    restore_streams,
)
from repro.errors import ValidationError
from repro.hardware import ARM_PLATFORM
from repro.interp import CubicSplineInterpolator, LinearInterpolator
from repro.ml import DecisionTreeRegressor
from repro.sensors import IPMISensor
from repro.sensors.base import SparseReadings


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


def _preorder(tree) -> list:
    """A fitted tree's ``(feature, threshold, value)`` nodes in preorder."""
    out = []

    def walk(i):
        node = tree._nodes[i]
        out.append((node.feature, node.threshold, node.value))
        if node.feature >= 0:
            walk(node.left)
            walk(node.right)

    walk(0)
    return out


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pmc_rows_fail_the_check(self, static_trr, small_bundle,
                                                 ipmi_readings, bad):
        rows = small_bundle.pmcs.matrix[ipmi_readings.indices].copy()
        rows[2, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            static_trr.check_stream(rows, ipmi_readings)
        with pytest.raises(ValidationError, match="finite"):
            fit_streams([static_trr], [rows], [ipmi_readings])

    def test_serve_wide_shaped_pass_equals_per_run_factory_fits(self):
        """512 runs of 4-5 readings over 60 samples, 10- and 16-wide PMCs
        (the serve-wide round), plus a few long runs whose trees split:
        each stacked stream restores exactly as a stream whose ResModel
        was fitted on its own through an explicit factory (not the stack
        of one). Trees, stacks and restores are compared per run."""
        rng = np.random.default_rng(24)
        config = HighRPMConfig(miss_interval=10)
        bounds = dict(p_upper=ARM_PLATFORM.max_node_power_w,
                      p_bottom=ARM_PLATFORM.min_node_power_w)
        runs = []
        for k in range(520):
            n = 60 if k < 512 else 600
            width = 16 if k % 8 == 7 else 10
            if k < 512:
                idx = np.sort(rng.choice(np.arange(3, n), size=4 + k % 2,
                                         replace=False))
            else:
                idx = np.arange(3, n, 10)
            pmcs = rng.gamma(2.0, 1e3, size=(n, width))
            values = rng.uniform(40.0, 90.0, size=idx.shape[0])
            runs.append((pmcs, SparseReadings(idx, values, 10, n)))
        stacked = fit_streams([StaticTRR(config, **bounds) for _ in runs],
                              [pmcs[r.indices] for pmcs, r in runs],
                              [r for _, r in runs])
        own = []
        for pmcs, r in runs:
            trr = StaticTRR(config, res_model_factory=lambda: (
                DecisionTreeRegressor(**RES_MODEL)), **bounds)
            own.append(trr.fit_stream(pmcs[r.indices], r))
        assert {len(s._trr.res_model_._nodes) for s in stacked[:512]} == {1}
        assert min(len(s._trr.res_model_._nodes) for s in stacked[512:]) > 1
        for stream, alone in zip(stacked, own):
            assert _preorder(stream._trr.res_model_) == \
                _preorder(alone._trr.res_model_)
        # One tick over every run at once, as the fleet restores them.
        parts = restore_streams(stacked, [pmcs for pmcs, _ in runs],
                                [True] * len(runs))
        for (_, values), alone, (pmcs, _) in zip(parts, own, runs):
            np.testing.assert_array_equal(values, _stream_restore(alone, pmcs, 64))
        # one stack per PMC width, reading the width's fitted pool
        for width in (10, 16):
            streams = [s for s, (pmcs, _) in zip(stacked, runs)
                       if pmcs.shape[1] == width]
            assert len({id(s._tree_stack) for s in streams}) == 1
            pool = streams[0]._tree._pool
            assert streams[0]._tree_stack._slot_gf is pool.arrays["_slot_gf"]


class TestRestoreStreams:
    """The stacked restore against each run's own restore_chunk/finish."""

    #: (length, IM interval, sensor seed, chunk, first chunk fed alone,
    #: config overrides, trend factory): a 1-sample chunk, odd chunks, a
    #: chunk longer than its run, runs advanced to different positions,
    #: unsigned residuals, spike-dense runs whose holds spill across chunk
    #: boundaries, and trend models without a spline stack.
    RUNS = [
        (150, 10, 5, 7, 0, {}, None),
        (97, 10, 6, 1, 0, {}, None),
        (150, 20, 7, 13, 5, dict(residual_signed=False), None),
        (120, 10, 8, 200, 0, {}, LinearInterpolator),
        (150, 20, 9, 3, 17, dict(spike_fraction=0.01), None),
        (131, 10, 10, 5, 2, dict(spike_fraction=0.02, residual_signed=False),
         lambda: CubicSplineInterpolator("clamp")),
        (150, 10, 11, 32, 40, dict(spike_fraction=0.01), None),
    ]

    def _streams(self, bundle):
        """Per run: its PMCs, a fitted stream and the whole-run restore."""
        pmcs, streams, wholes = [], [], []
        for n, interval, seed, _, _, overrides, trend in self.RUNS:
            run = bundle.slice(0, n)
            readings = IPMISensor(ARM_PLATFORM, interval_s=interval,
                                  seed=seed).sample(run)

            def make():
                return StaticTRR(
                    HighRPMConfig(miss_interval=interval, **overrides),
                    p_upper=ARM_PLATFORM.max_node_power_w,
                    p_bottom=ARM_PLATFORM.min_node_power_w,
                    trend_factory=trend,
                )

            x = run.pmcs.matrix
            pmcs.append(x)
            streams.append(make().fit_stream(x[readings.indices], readings))
            wholes.append(make().restore(x, readings))
        return pmcs, streams, wholes

    def test_stacked_restore_equals_per_run_restore(self, small_bundle):
        pmcs, alone, wholes = self._streams(small_bundle)
        _, joint, _ = self._streams(small_bundle)
        outputs = [[] for _ in joint]
        queues = []
        for (_, _, _, chunk, first, _, _), x, a, j, out in zip(
                self.RUNS, pmcs, alone, joint, outputs):
            if first:  # both copies start the lockstep at this position
                a.restore_chunk(x[:first])
                out.append(j.restore_chunk(x[:first])[1])
            queues.append([x[s:s + chunk] for s in range(first, len(x), chunk)])
        spilled = False
        while any(queues):
            live = [i for i, q in enumerate(queues) if q]
            chunks = [queues[i].pop(0) for i in live]
            finals = [not queues[i] for i in live]
            # the fleet supplies stacked ResModel outputs for some runs
            hats = [joint[i]._trr.res_model_.predict(c) if i % 2 else None
                    for i, c in zip(live, chunks)]
            got = restore_streams([joint[i] for i in live], chunks, finals,
                                  hats)
            spilled = spilled or any(joint[i]._scan.pending for i in live)
            for i, chunk, final, (start, vals) in zip(live, chunks, finals,
                                                      got):
                want_start, want = alone[i].restore_chunk(chunk)
                if final:
                    want = np.concatenate([want, alone[i].finish()[1]])
                assert start == want_start
                assert vals.tobytes() == want.tobytes()
                outputs[i].append(vals)
        assert spilled  # some hold reached past its chunk's end
        # ... and the stacked spans tile each run as its whole-run restore.
        for out, whole in zip(outputs, wholes):
            assert np.concatenate(out).tobytes() == whole.tobytes()

    def test_a_malformed_entry_advances_no_run(self, static_trr,
                                                small_bundle, ipmi_readings):
        pmcs = small_bundle.pmcs.matrix
        a, b = fit_streams([static_trr, StaticTRR(static_trr.config)],
                           [pmcs[ipmi_readings.indices]] * 2,
                           [ipmi_readings] * 2)
        with pytest.raises(ValidationError, match="flush before"):
            restore_streams([a, b], [pmcs[:10], pmcs[:10]], [False, True])
        with pytest.raises(ValidationError, match="overruns"):
            restore_streams([a, b], [pmcs[:10], np.vstack([pmcs, pmcs])],
                            [False, False])
        with pytest.raises(ValidationError, match="one chunk"):
            restore_streams([a, b], [pmcs[:10]], [False])
        with pytest.raises(ValidationError, match="more than once"):
            restore_streams([a, a], [pmcs[:10], pmcs[10:20]], [False, False])
        assert a.samples_fed == b.samples_fed == 0
        assert restore_streams([], [], []) == []


class TestRestoreStreamsMemory:
    """A stacked pass's transient memory stays near the runs' own."""

    def _fitted(self, small_bundle, n):
        """A StaticTRR fitted on an ``n``-s run, its PMCs and readings."""
        run = small_bundle.slice(0, n)
        readings = IPMISensor(ARM_PLATFORM, interval_s=10, seed=5).sample(run)
        trr = StaticTRR(HighRPMConfig(miss_interval=10),
                        p_upper=ARM_PLATFORM.max_node_power_w,
                        p_bottom=ARM_PLATFORM.min_node_power_w)
        x = run.pmcs.matrix
        trr.fit_stream(x[readings.indices], readings)
        return trr, x, readings

    def test_tails_do_not_keep_the_pass_alive(self, small_bundle):
        trr, x, readings = self._fitted(small_bundle, 150)
        streams = [StaticTRRStream(trr, readings) for _ in range(4)]
        restore_streams(streams, [x[:32]] * 4, [False] * 4)
        for stream in streams:
            scan = stream._scan
            assert scan.w_tail.shape[0] == scan.fed - scan.emitted > 0
            for tail in (scan.w_tail, scan.r_tail):
                assert tail.base is None  # a copy, not a view of the pass

    def test_stacked_peak_is_bounded_by_the_runs_one_by_one(self,
                                                            small_bundle):
        runs, n = 512, 60
        trr, x, readings = self._fitted(small_bundle, n)

        def peak(restore) -> int:
            restore([StaticTRRStream(trr, readings) for _ in range(runs)])
            streams = [StaticTRRStream(trr, readings) for _ in range(runs)]
            tracemalloc.start()
            try:
                restore(streams)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stacked = peak(lambda streams: restore_streams(
            streams, [x] * runs, [True] * runs))
        alone = peak(lambda streams: [
            restore_streams([s], [x], [True])[0] for s in streams])
        # The stacked pass lays every run's span end to end, so it needs a
        # few span-sized working arrays beyond the outputs the runs keep
        # either way: the budget is six (the unfused pass needed over 11).
        assert stacked - alone < 6 * runs * n * 8


class TestOnlineChunks:
    @pytest.mark.parametrize("chunk_size", [1, 13, 500])
    def test_chunked_equals_whole_run(
        self, dyn, small_bundle, ipmi_readings, chunk_size
    ):
        pmcs = small_bundle.pmcs.matrix
        whole = dyn.session().run(pmcs, ipmi_readings)
        session = dyn.session()
        parts = [
            session.run_chunk(pmcs[s:s + chunk_size], ipmi_readings)
            for s in range(0, pmcs.shape[0], chunk_size)
        ]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_model_only_chunked_equals_whole_run(self, dyn, small_bundle):
        pmcs = small_bundle.pmcs.matrix
        whole = dyn.session().run(pmcs, None)
        session = dyn.session()
        parts = [session.run_chunk(pmcs[s:s + 37], None)
                 for s in range(0, pmcs.shape[0], 37)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_unretained_session_state_is_bounded(self, dyn, small_bundle):
        session = dyn.session()
        pmcs = small_bundle.pmcs.matrix
        for s in range(0, pmcs.shape[0], 50):
            session.run_chunk(pmcs[s:s + 50], None)
        # Feature deques are capped at one miss-interval window.
        assert len(session._pmcs) <= dyn.config.miss_interval
        # The sample clock still reflects the whole trace.
        assert session.t == pmcs.shape[0]
