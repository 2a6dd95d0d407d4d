"""StaticTRR: offline temporal-resolution restoration (paper §4.2.1).

Pipeline:

1. **Spline model** — a natural cubic spline through the sparse IM readings
   recovers the long-term power trend ``P_splined``.
2. **ResModel** — a decision tree over PMCs predicts the deviation of true
   power from the trend (the short-term fluctuation the spline cannot see),
   yielding ``P_residual = P_splined + residual``. Residual targets are
   obtained by 2-fold cross-fitting over the labeled readings: the spline
   is fitted on one half of the knots and residuals measured on the other,
   so the tree never learns from residuals the final spline has already
   absorbed. (The paper trains on a 50 % subset; cross-fitting is the
   symmetric version of the same idea.)
3. **Post-processing** — Algorithm 1 fuses the two estimates using the
   physical power limits and the α/β agreement thresholds.

Faithfulness note: Operation 1 in the paper's Algorithm 1 triggers on
``P_splined[i] ≥ 30 % · (P_upper − P_bottom)``, which for any loaded node is
always true and would flatten the whole trace. We trigger on the *predicted
mutation magnitude* ``|P_residual[i] − P_splined[i]|`` instead — the reading
of the operation that matches its stated purpose (spreading a detected
sustained phase change across the surrounding half-window). This deviation
is recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..interp.spline import CubicSplineInterpolator, fit_stack, predict_stack
from ..ml.tree import DecisionTreeRegressor
from ..obs import current_tracer
from ..perf import precompile
from ..sensors.base import SparseReadings
from ..utils.validation import check_2d
from .config import HighRPMConfig


@dataclass(frozen=True)
class StaticTRRResult:
    """All intermediate and final estimates from one restoration."""

    p_splined: np.ndarray
    p_residual: np.ndarray
    p_trr: np.ndarray
    reading_indices: np.ndarray

    def __len__(self) -> int:
        return int(self.p_trr.shape[0])


class StaticTRR:
    """Spline + ResModel + Algorithm-1 fusion.

    Parameters
    ----------
    config:
        Framework configuration (α, β, spike threshold, miss_interval).
    p_upper / p_bottom:
        Physical node-power limits; override the config's values. These are
        platform constants (e.g. ``spec.max_node_power_w``).
    """

    def __init__(
        self,
        config: "HighRPMConfig | None" = None,
        p_upper: "float | None" = None,
        p_bottom: "float | None" = None,
        res_model_factory=None,
        trend_factory=None,
    ) -> None:
        self.config = config or HighRPMConfig()
        self.p_upper = p_upper if p_upper is not None else self.config.p_upper
        self.p_bottom = p_bottom if p_bottom is not None else self.config.p_bottom
        # The residual set is small (one row per IM reading), so the tree is
        # kept shallow — at depth 12 it memorises reading noise.
        self._res_model_factory = res_model_factory or (
            lambda: DecisionTreeRegressor(min_samples_leaf=4, max_depth=4)
        )
        # The trend model is pluggable for ablations (spline vs. linear
        # interpolation); anything with fit(x, y)/predict(xq) works.
        self._trend_factory = trend_factory or CubicSplineInterpolator
        self.res_model_ = None
        self.spline_ = None

    # ------------------------------------------------------------------ fit
    def _limits(self, readings: SparseReadings) -> tuple[float, float]:
        """Resolve (p_bottom, p_upper), falling back to data-driven bounds."""
        lo = self.p_bottom
        hi = self.p_upper
        if lo is None:
            lo = float(readings.values.min()) * 0.8
        if hi is None:
            hi = float(readings.values.max()) * 1.2
        if hi <= lo:
            raise ValidationError(f"invalid power limits: [{lo}, {hi}]")
        return float(lo), float(hi)

    def _check_trace(self, readings: SparseReadings, n: int) -> None:
        if readings.n_dense != n:
            raise ValidationError(
                f"readings cover {readings.n_dense} samples but pmcs has {n}"
            )
        if len(readings) < 4:
            raise ValidationError("StaticTRR needs at least four IM readings")

    def fit_restore(
        self, pmcs: np.ndarray, readings: SparseReadings
    ) -> StaticTRRResult:
        """Fit on one trace's sparse readings and restore it to 1 Sa/s."""
        pmcs = check_2d(pmcs, "pmcs")
        n = pmcs.shape[0]
        self._check_trace(readings, n)
        idx = readings.indices
        vals = readings.values
        _fit_all([self], [pmcs[idx]], [readings])
        t_all = np.arange(n, dtype=np.float64)
        tracer = current_tracer()

        with tracer.span("trr.spline"):
            p_splined = self.spline_.predict(t_all)

        with tracer.span("trr.resmodel"):
            residual_hat = self.res_model_.predict(pmcs)
            if not self.config.residual_signed:
                # Unsigned mode (the paper's ABS target): apply the magnitude
                # in the direction of the local spline curvature error proxy.
                residual_hat = residual_hat * np.sign(
                    np.gradient(p_splined) + 1e-12
                )
            p_residual = p_splined + residual_hat

        # Step 3: Algorithm-1 fusion.
        with tracer.span("trr.fusion"):
            p_trr = self._post_process(p_splined.copy(), p_residual.copy())
            # Observed instants keep their readings — they are measurements.
            p_trr[idx] = vals
        return StaticTRRResult(
            p_splined=p_splined,
            p_residual=p_residual,
            p_trr=p_trr,
            reading_indices=idx.copy(),
        )

    # ---------------------------------------------------- Algorithm 1 fusion
    def _post_process(
        self, p_splined: np.ndarray, p_residual: np.ndarray
    ) -> np.ndarray:
        cfg = self.config
        lo, hi = self._lo, self._hi
        n = p_splined.shape[0]
        half = cfg.miss_interval // 2

        # Operation 1: large predicted mutations are sustained phase changes;
        # hold the mutated level across the half-window (see module note).
        mutation = p_residual - p_splined
        big = np.flatnonzero(np.abs(mutation) >= cfg.spike_fraction * (hi - lo))
        # repro-lint: disable=per-sample-loop — holds overlap and later holds
        # must read earlier holds' writes (in-place propagation is the
        # reference semantics); iterations are O(spikes), not O(samples).
        for i in big:
            start, stop = max(0, i - half), min(n, i + half)
            p_splined[start:stop] = p_splined[i]

        # Operations 2 & 3: out-of-range ResModel output is distrusted.
        out_of_range = (p_residual >= hi) | (p_residual <= lo)
        p_residual[out_of_range] = p_splined[out_of_range]

        # Fusion by agreement band. Within the α band the estimators agree
        # and the spline is kept; beyond the β band the ResModel is
        # distrusted and the spline is kept too — so the spline is the
        # default on both sides and only the mid band blends the two.
        gap = np.abs(p_splined - p_residual)
        floor = np.minimum(np.abs(p_splined), np.abs(p_residual))
        mid = (gap > cfg.alpha * floor) & (gap <= cfg.beta * floor)
        p_trr = np.where(mid, 0.5 * (p_splined + p_residual), p_splined)
        return np.clip(p_trr, lo, hi)

    # -------------------------------------------------------------- predict
    def restore(self, pmcs: np.ndarray, readings: SparseReadings) -> np.ndarray:
        """Convenience: fit_restore and return only the fused estimate."""
        return self.fit_restore(pmcs, readings).p_trr

    # ------------------------------------------------------------- streaming
    def fit_stream(
        self, pmcs_rows: np.ndarray, readings: SparseReadings
    ) -> "StaticTRRStream":
        """Fit from the readings alone and return a bounded-memory stream.

        ``pmcs_rows`` are the PMC rows *at the reading instants* (shape
        ``(len(readings), d)``) — the only dense data the fit needs. The
        returned stream restores the trace chunk by chunk; concatenating
        its outputs is bit-identical to ``fit_restore(...).p_trr`` on the
        same trace.
        """
        return fit_streams([self], [pmcs_rows], [readings])[0]

    def _check_stream_inputs(self, pmcs_rows: np.ndarray,
                             readings: SparseReadings) -> None:
        self._check_trace(readings, int(readings.n_dense))
        if pmcs_rows.shape[0] != len(readings):
            raise ValidationError(
                f"fit_stream needs one PMC row per reading: got "
                f"{pmcs_rows.shape[0]} rows for {len(readings)} readings"
            )


def fit_streams(trrs, pmcs_rows, readings) -> "list[StaticTRRStream]":
    """:meth:`StaticTRR.fit_stream` for many runs in one pass.

    ``trrs``, ``pmcs_rows`` and ``readings`` are parallel sequences, one
    entry per run. Every run's default spline trend and its two cross-fit
    fold splines fit as one stack per knot count, and the fold splines are
    evaluated at their held-out knots in one pass; each run's ResModel
    still fits on its own. Each returned stream is bitwise equal to the
    run's own ``fit_stream``. A malformed run raises before any run is
    fitted.
    """
    rows = [check_2d(p, "pmcs_rows") for p in pmcs_rows]
    for trr, p, r in zip(trrs, rows, readings):
        trr._check_stream_inputs(p, r)
    _fit_all(trrs, rows, readings)
    return [StaticTRRStream(trr, r) for trr, r in zip(trrs, readings)]


def _fit_all(trrs, pmcs_rows, readings) -> None:
    """Steps 1 and 2 for many runs: trend splines, cross-fitted residual
    targets and ResModels (the dense predictions come later).

    Runs with the default trend model fit and predict as spline stacks
    (:func:`~repro.interp.spline.fit_stack`,
    :func:`~repro.interp.spline.predict_stack`); a pluggable trend model
    fits and predicts on its own.
    """
    tracer = current_tracer()
    knots, held_out = [], []
    for trr, r in zip(trrs, readings):
        trr._lo, trr._hi = trr._limits(r)
        x = r.indices.astype(float)
        vals = r.values
        # Step 1: the trend from all readings. Step 2's 2-fold cross-fit:
        # each fold spline fits one parity of the readings and is measured
        # on the other (at least four readings, so each fold has >= 2).
        knots += [(x, vals), (x[0::2], vals[0::2]), (x[1::2], vals[1::2])]
        held_out += [x[1::2], x[0::2]]
    factories = [trr._trend_factory for trr in trrs for _ in range(3)]
    with tracer.span("trr.spline"):
        models = _fit_trends(factories, knots)
    with tracer.span("trr.resmodel"):
        fold_preds = _predict_trends(
            [m for i, m in enumerate(models) if i % 3], held_out
        )
        for k, (trr, rows, r) in enumerate(zip(trrs, pmcs_rows, readings)):
            trr.spline_ = models[3 * k]
            vals = r.values
            residual_targets = np.empty(len(r))
            residual_targets[1::2] = vals[1::2] - fold_preds[2 * k]
            residual_targets[0::2] = vals[0::2] - fold_preds[2 * k + 1]
            if not trr.config.residual_signed:
                residual_targets = np.abs(residual_targets)
            trr.res_model_ = trr._res_model_factory()
            trr.res_model_.fit(rows, residual_targets)
            # Flatten the freshly fitted ResModel eagerly: the dense
            # prediction (and any later re-restore) runs over whole traces
            # or fleet-stacked chunks, exactly the batch shapes the
            # compiled descent is built for.
            precompile(trr.res_model_)


def _fit_trends(factories, knots) -> list:
    """One fitted trend model per knot set; default splines as one stack."""
    stacked = [i for i, f in enumerate(factories) if f is CubicSplineInterpolator]
    models = [None] * len(knots)
    for i, spline in zip(stacked, fit_stack([knots[i] for i in stacked])):
        models[i] = spline
    for i, factory in enumerate(factories):
        if models[i] is None:
            models[i] = factory().fit(*knots[i])
    return models


def _predict_trends(models, queries) -> list:
    """Each trend model at its own queries; default splines in one pass."""
    stacked = [i for i, m in enumerate(models)
               if type(m) is CubicSplineInterpolator]
    preds = [None] * len(models)
    for i, pred in zip(stacked, predict_stack([models[i] for i in stacked],
                                              [queries[i] for i in stacked])):
        preds[i] = pred
    for i, model in enumerate(models):
        if preds[i] is None:
            preds[i] = model.predict(queries[i])
    return preds


class _FusionScan:
    """Streaming, bit-exact replay of :meth:`StaticTRR._post_process`.

    Operation 1 is the only non-elementwise step of Algorithm 1: a hold at
    sample ``i`` copies the (already mutated) spline level across the
    window ``[i − half, i + half)``, and later holds read earlier holds'
    writes. The scan keeps a working buffer of not-yet-final spline values
    and applies holds in global ascending order — forward writes that spill
    past the fed frontier are queued in ``_pending`` and land before the
    next chunk's own holds. A position is final once every hold that can
    reach it has been applied, i.e. with a lag of ``half`` samples behind
    the feed. Operations 2/3, the agreement-band fusion, the clip and the
    measured-sample override are elementwise and run at finalisation.
    """

    def __init__(self, config: HighRPMConfig, lo: float, hi: float,
                 readings: SparseReadings) -> None:
        self._half = config.miss_interval // 2
        self._alpha = config.alpha
        self._beta = config.beta
        self._thresh = config.spike_fraction * (hi - lo)
        self._lo = lo
        self._hi = hi
        self._idx = readings.indices
        self._vals = readings.values
        self.n = int(readings.n_dense)
        self.fed = 0
        self.emitted = 0
        # Preallocated working buffers for the span [emitted, fed): index 0
        # maps to ``emitted``. Sized to chunk + half on first feed and then
        # sliced, never reallocated, per feed (the span never exceeds the
        # finalisation lag ``half`` plus one chunk); only a larger chunk
        # forces a regrow.
        self._buf_len = 0  # valid prefix of the working buffers
        self._w_buf = np.empty(0)  # working spline values
        self._res_buf = np.empty(0)  # original residual estimates
        #: forward hold writes beyond the fed frontier, in hold order.
        self._pending: "list[tuple[int, int, float]]" = []

    # repro-lint: disable=boundary-validation — hot path (called once per
    # fed chunk): inputs are the stream's own spline/residual predictions,
    # already shaped by StaticTRRStream which validated the caller's chunk.
    def feed(self, p_splined: np.ndarray, p_residual: np.ndarray
             ) -> tuple[int, np.ndarray]:
        """Advance the scan by one chunk; returns the newly final span."""
        start = self.fed
        stop = start + p_splined.shape[0]
        if stop > self.n:
            raise ValidationError(
                f"fed {stop} samples into a {self.n}-sample trace"
            )
        base = self.emitted
        m = p_splined.shape[0]
        need = self._buf_len + m
        if need > self._w_buf.shape[0]:
            grown = max(need, m + self._half)
            w_new = np.empty(grown)
            res_new = np.empty(grown)
            w_new[:self._buf_len] = self._w_buf[:self._buf_len]
            res_new[:self._buf_len] = self._res_buf[:self._buf_len]
            self._w_buf, self._res_buf = w_new, res_new
        w = self._w_buf
        w[self._buf_len:need] = p_splined
        self._res_buf[self._buf_len:need] = p_residual
        self._buf_len = need
        # Earlier chunks' holds whose windows spill into (or past) this span.
        still_pending = []
        for w_start, w_stop, v in self._pending:
            w[w_start - base:min(w_stop, stop) - base] = v
            if w_stop > stop:
                still_pending.append((stop, w_stop, v))
        self._pending = still_pending
        # Operation 1 over the newly fed span, ascending — each hold reads
        # the working buffer, so earlier holds' writes propagate exactly as
        # in the in-place reference loop.
        mutation = p_residual - p_splined
        # repro-lint: disable=per-sample-loop — ascending in-place hold
        # propagation is the bit-identity reference semantics (overlapping
        # holds must see earlier writes); O(spikes) per chunk, not O(samples).
        for i in np.flatnonzero(np.abs(mutation) >= self._thresh) + start:
            v = w[i - base]
            w_start = max(0, i - self._half)
            w_stop = min(self.n, i + self._half)
            w[w_start - base:min(w_stop, stop) - base] = v
            if w_stop > stop:
                self._pending.append((stop, w_stop, v))
        self.fed = stop
        return self._finalize(max(base, stop - self._half))

    def flush(self) -> tuple[int, np.ndarray]:
        """Finalise the trailing ``half`` samples once the trace is fed."""
        if self.fed != self.n:
            raise ValidationError(
                f"flush before the trace is complete: fed {self.fed} of {self.n}"
            )
        return self._finalize(self.n)

    def _finalize(self, to: int) -> tuple[int, np.ndarray]:
        base = self.emitted
        if to <= base:
            return base, np.empty(0)
        k = to - base
        w = self._w_buf[:k]
        r = self._res_buf[:k].copy()
        # Operations 2 & 3: out-of-range ResModel output is distrusted.
        out_of_range = (r >= self._hi) | (r <= self._lo)
        r[out_of_range] = w[out_of_range]
        # Fusion by agreement band (spline wins outside the mid band).
        gap = np.abs(w - r)
        floor = np.minimum(np.abs(w), np.abs(r))
        mid = (gap > self._alpha * floor) & (gap <= self._beta * floor)
        p_trr = np.where(mid, 0.5 * (w + r), w)
        # In-place two-sided clamp (ufuncs directly; same result as np.clip
        # for lo <= hi, without the dispatch wrapper on the per-chunk path).
        np.minimum(p_trr, self._hi, out=p_trr)
        np.maximum(p_trr, self._lo, out=p_trr)
        # Observed instants keep their readings — they are measurements.
        sel_lo = int(self._idx.searchsorted(base, side="left"))
        sel_hi = int(self._idx.searchsorted(to, side="left"))
        p_trr[self._idx[sel_lo:sel_hi] - base] = self._vals[sel_lo:sel_hi]
        # Shift the unfinalised tail to the buffer head (overlap-safe
        # left-moving copy) instead of reallocating.
        tail = self._buf_len - k
        self._w_buf[:tail] = self._w_buf[k:self._buf_len]
        self._res_buf[:tail] = self._res_buf[k:self._buf_len]
        self._buf_len = tail
        self.emitted = to
        return base, p_trr


class StaticTRRStream:
    """Bounded-memory chunked restoration from a fitted :class:`StaticTRR`.

    Obtained via :meth:`StaticTRR.fit_stream`. Feed the trace's PMC rows in
    order with :meth:`restore_chunk`; outputs lag inputs by half a
    miss-interval (an Operation-1 hold at ``i`` rewrites ``[i − half,
    i + half)``, so a sample is final only once the scan has advanced
    ``half`` samples past it). :meth:`finish` flushes the tail. State is
    O(chunk + miss_interval) regardless of trace length.
    """

    def __init__(self, trr: StaticTRR, readings: SparseReadings) -> None:
        self._trr = trr
        self.n = int(readings.n_dense)
        self._scan = _FusionScan(trr.config, trr._lo, trr._hi, readings)
        # Bind the trend model's compiled evaluator once per run: every
        # chunk evaluates the same fitted spline at indices this stream
        # generates itself, so the per-call validation in ``predict`` is
        # pure overhead. Pluggable trend models without a compiled
        # evaluator fall back to their public predict.
        get_eval = getattr(trr.spline_, "evaluator", None)
        self._trend_eval = get_eval() if get_eval is not None else trr.spline_.predict

    @property
    def samples_fed(self) -> int:
        return self._scan.fed

    @property
    def samples_emitted(self) -> int:
        return self._scan.emitted

    def restore_chunk(
        self, pmc_chunk: np.ndarray, residual_hat: "np.ndarray | None" = None
    ) -> tuple[int, np.ndarray]:
        """Feed the next chunk; returns ``(start, p_trr_part)`` finalised.

        ``residual_hat`` optionally supplies the raw ResModel prediction
        for the chunk (the fleet monitor batches it across nodes); it must
        equal ``res_model_.predict(pmc_chunk)``.
        """
        pmc_chunk = check_2d(pmc_chunk, "pmc_chunk")
        trr = self._trr
        start = self._scan.fed
        stop = start + pmc_chunk.shape[0]
        if stop > self.n:
            raise ValidationError(
                f"chunk [{start}, {stop}) overruns the {self.n}-sample trace"
            )
        tracer = current_tracer()
        t = np.arange(start, stop, dtype=np.float64)
        with tracer.span("trr.spline"):
            p_splined = self._trend_eval(t)
        with tracer.span("trr.resmodel"):
            if residual_hat is None:
                residual_hat = trr.res_model_.predict(pmc_chunk)
            else:
                residual_hat = np.asarray(residual_hat, dtype=np.float64)
                if residual_hat.shape != (pmc_chunk.shape[0],):
                    raise ValidationError(
                        f"residual_hat has shape {residual_hat.shape}, "
                        f"expected ({pmc_chunk.shape[0]},)"
                    )
            if not trr.config.residual_signed:
                residual_hat = residual_hat * np.sign(
                    self._trend_gradient(start, stop) + 1e-12
                )
            p_residual = p_splined + residual_hat
        with tracer.span("trr.fusion"):
            return self._scan.feed(p_splined, p_residual)

    def finish(self) -> tuple[int, np.ndarray]:
        """Flush the trailing half-window once the whole trace is fed."""
        with current_tracer().span("trr.fusion"):
            return self._scan.flush()

    def _trend_gradient(self, start: int, stop: int) -> np.ndarray:
        """``np.gradient`` of the dense spline trend, restricted to a span.

        Bit-identical to ``np.gradient(spline.predict(arange(n)))[start:stop]``:
        one extra spline point on each side supplies the centred differences,
        and the trace edges fall back to the same one-sided differences.
        """
        if stop == start:
            return np.empty(0)
        n = self.n
        a = max(0, start - 1)
        b = min(n, stop + 1)
        s = self._trend_eval(np.arange(a, b, dtype=np.float64))
        pos = np.arange(start, stop) - a
        left = np.maximum(pos - 1, 0)
        right = np.minimum(pos + 1, b - 1 - a)
        g = (s[right] - s[left]) / 2.0
        if start == 0:
            g[0] = s[1] - s[0]
        if stop == n:
            g[-1] = s[-1] - s[-2]
        return g
