"""DynamicTRR: online temporal-resolution restoration (paper §4.2.2).

StaticTRR is a *fitting* method — it needs readings on both sides of the
gap. DynamicTRR is a *forecasting* method for live monitoring: between two
IM readings, a compact two-layer LSTM predicts each second's node power
from the window of recent ``(PMCs, P'_node)`` rows.

The window construction follows the paper's invariant that every window of
width ``miss_interval`` contains exactly one measured reading. The power
feature channel is the **hold-last-reading** trace (the only power signal
genuinely available online) and the network predicts the *deviation* of
the current second's power from that held anchor. This anchor-relative
formulation is what gives DynamicTRR its robustness on unseen applications
(§6.1.1): projecting power forward from a measured anchor transfers across
programs, whereas absolute PMC→power mappings do not.

Whenever a real reading arrives, the model is fine-tuned on a replay
buffer of recent measured windows (the paper's < 2 s online adjustment) at
a reduced learning rate — gentle enough not to erase offline training.
A reading hands back that fine-tune as a :class:`FineTuneJob`: a session
running on its own trains each job alone, while a fleet advances many
sessions to their next reading in lockstep and trains their jobs together
— both through :func:`run_fine_tunes`, one BPTT stack per (buffer length,
step budget), bitwise equal per node to training each alone.
"""

from __future__ import annotations

import copy
from collections import deque

import numpy as np

from ..errors import NotFittedError, ValidationError
from ..ml.recurrent import LSTMRegressor, partial_fit_stack
from ..obs import current_tracer, get_registry
from ..perf import compile_lstm
from ..sensors.base import SparseReadings
from ..utils.validation import check_2d
from .config import HighRPMConfig
from .dataset import build_anchor_windows


class FineTuneJob:
    """One replay-buffer fine-tune a reading asked for:
    ``model.partial_fit(X, y, n_steps)``, not yet run (see
    :func:`run_fine_tunes`).

    Jobs with equal :attr:`key` — same network shape, buffer length and
    step budget — can train as one stack."""

    __slots__ = ("model", "X", "y", "n_steps")

    def __init__(self, model: LSTMRegressor, X: np.ndarray, y: np.ndarray,
                 n_steps: int) -> None:
        self.model = model
        self.X = X
        self.y = y
        self.n_steps = int(n_steps)

    @property
    def key(self) -> tuple:
        m = self.model
        return (type(m), m.hidden_size, m.num_layers, m.batch_size,
                self.X.shape, self.n_steps)


def run_fine_tunes(jobs) -> None:
    """Train ``jobs`` as one stack per :attr:`FineTuneJob.key`; every
    model ends bitwise where its own ``partial_fit`` would leave it. Each
    stack is one ``trr.finetune`` span."""
    groups: "dict[tuple, list[FineTuneJob]]" = {}
    for job in jobs:
        groups.setdefault(job.key, []).append(job)
    for group in groups.values():
        with current_tracer().span("trr.finetune"):
            partial_fit_stack(
                [job.model for job in group], [job.X for job in group],
                [job.y for job in group], n_steps=group[0].n_steps,
            )


class OnlineTRRSession:
    """Streaming restoration for one monitored run.

    Feed one second at a time with :meth:`step`. The session owns a private
    copy of the offline model, so per-node fine-tuning never corrupts the
    shared instance (each node adapts independently, §4.1).
    """

    #: replay-buffer capacity for fine-tuning windows.
    BUFFER_CAP = 32
    #: fine-tune budget multiplier when the IM feed recovers from an outage
    #: (the model drifted unanchored and needs a stronger correction).
    RESYNC_BOOST = 3

    def __init__(self, trr: "DynamicTRR") -> None:
        self._trr = trr
        self._model = copy.deepcopy(trr.model_)
        # The copy only ever fine-tunes, always at the reduced rate.
        self._model.lr = trr.finetune_lr
        # Session state is bounded: the window only ever looks back
        # ``miss_interval`` steps, so the feature deques drop older rows.
        w = trr.config.miss_interval
        self._pmcs: "deque[np.ndarray]" = deque(maxlen=w)
        self._hold: "deque[float]" = deque(maxlen=w)  # hold-last-reading channel
        self._t = 0
        self._buffer_X: list[np.ndarray] = []
        self._buffer_y: list[np.ndarray] = []
        self._last_reading_t: "int | None" = None
        #: timestamps at which the feed recovered after an outage gap.
        self.resyncs: list[int] = []
        #: segment forecaster, built lazily from the session's model copy
        #: and invalidated after every fine-tune (partial_fit mutates the
        #: parameters the kernel folded at build time).
        self._kernel: "object | None" = None

    @property
    def t(self) -> int:
        """Number of seconds processed so far."""
        return self._t

    def _window(self, t: int) -> np.ndarray:
        # The deques hold exactly the last ``min(t+1, w)`` steps — the whole
        # window; ``t`` must be the current step (kept for API familiarity).
        w = self._trr.config.miss_interval
        rows = [np.concatenate([p, [h]]) for p, h in zip(self._pmcs, self._hold)]
        while len(rows) < w:  # cold start: left-pad with the first row
            rows.insert(0, rows[0])
        return np.asarray(rows)[None, :, :]

    def _fine_tune_job(self, X: np.ndarray, deviation: float,
                       boost: int = 1) -> FineTuneJob:
        """Add a reading's window to the replay buffer; return the
        fine-tune on the buffer that the reading asks for."""
        w = X.shape[1]
        labels = np.full((1, w), np.nan)
        labels[0, -1] = deviation
        self._buffer_X.append(X[0])
        self._buffer_y.append(labels[0])
        if len(self._buffer_X) > self.BUFFER_CAP:
            self._buffer_X.pop(0)
            self._buffer_y.pop(0)
        get_registry().counter(
            "repro_online_finetune_total",
            "Online fine-tune rounds by trigger.", ("kind",),
        ).labels(kind="resync" if boost > 1 else "regular").inc()
        # The job mutates the parameters the kernel folded — rebuild lazily
        # on the next forecast, which comes after the job has run.
        self._kernel = None
        return FineTuneJob(
            self._model, np.stack(self._buffer_X), np.stack(self._buffer_y),
            int(boost) * self._trr.config.finetune_steps,
        )

    def _reading_step(self, pmc_row: np.ndarray, value: float) -> FineTuneJob:
        """Consume one measured second: anchor and re-sync check. Returns
        the fine-tune job, which must run before the next forecast."""
        trr = self._trr
        t = self._t
        self._pmcs.append(pmc_row)
        prev_hold = self._hold[-1] if self._hold else value
        # Re-sync: a reading after an outage-length silence means the
        # feed recovered; the session drifted unanchored meanwhile, so
        # fine-tune harder to pull the model back onto the feed.
        gap_limit = trr.config.resync_gap_factor * trr.config.miss_interval
        recovered = (
            self._last_reading_t is not None
            and t - self._last_reading_t > gap_limit
        )
        if recovered:
            self.resyncs.append(t)
            get_registry().counter(
                "repro_online_resyncs_total",
                "IM-feed recoveries after an outage-length gap.",
            ).inc()
        # Anchor BEFORE updating the hold channel: the fine-tune label is
        # the deviation of this reading from the previous anchor, which
        # is exactly what the model predicts at gap-end positions.
        self._hold.append(prev_hold)
        job = self._fine_tune_job(self._window(t), value - prev_hold,
                                  boost=self.RESYNC_BOOST if recovered else 1)
        self._hold[-1] = value  # future windows hold the new reading
        self._last_reading_t = t
        self._t = t + 1
        return job

    def _segment_rows(self, pmcs_seg: np.ndarray, prev_hold: float) -> np.ndarray:
        """Distinct feature rows covering a segment's sliding windows.

        Returns ``(w − 1 + m, d + 1)``: up to ``w − 1`` rows of history from
        the deques (left-padded with the oldest available row on cold start,
        matching :meth:`_window`), then the segment's rows with the hold
        channel pinned at the anchor — forecasts never feed back into it.
        """
        w = self._trr.config.miss_interval
        m, d = pmcs_seg.shape
        L = len(self._pmcs)
        hist = min(L, w - 1)
        pad = w - 1 - hist
        rows = np.empty((w - 1 + m, d + 1))
        if hist:
            rows[pad:w - 1, :d] = list(self._pmcs)[L - hist:]
            rows[pad:w - 1, d] = list(self._hold)[L - hist:]
        rows[w - 1:, :d] = pmcs_seg
        rows[w - 1:, d] = prev_hold
        if pad:
            # Cold start: padding only happens while the deques still hold
            # the whole run, so the oldest available row *is* global row 0.
            rows[:pad] = rows[pad]
        return rows

    def _forecast_segment(self, pmcs_seg: np.ndarray) -> np.ndarray:
        """Forecast a run of consecutive unmeasured seconds in one batch.

        The hold anchor is constant across the segment (only readings move
        it), so the ``m`` windows share ``m + w − 1`` rows and one kernel
        call covers them all. The kernel's fixed-order math makes the
        result independent of how the trace was cut into segments.
        """
        trr = self._trr
        m = pmcs_seg.shape[0]
        prev_hold = self._hold[-1] if self._hold else trr.train_power_mean_
        rows = self._segment_rows(pmcs_seg, prev_hold)
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = compile_lstm(
                self._model, trr.config.miss_interval)
        deviations = kernel.forecast(rows, m)
        # Physical clamping: a forecast cannot leave the platform range.
        estimates = np.clip(prev_hold + deviations, trr.p_bottom_, trr.p_upper_)
        self._pmcs.extend(pmcs_seg)
        self._hold.extend([prev_hold] * m)
        self._t += m
        return estimates

    # repro-lint: disable=boundary-validation — hot path (called once per
    # monitored second): shape-checked inline against the fitted n_pmcs_
    # below; whole-trace entry points validate via check_2d in run().
    def step(self, pmc_row: np.ndarray, im_reading: "float | None" = None) -> float:
        """Process one second; returns the node-power estimate for it.

        ``im_reading`` is the IM value when the BMC produced one this second
        (it then *is* the estimate, and triggers fine-tuning), else None.
        """
        trr = self._trr
        pmc_row = np.asarray(pmc_row, dtype=np.float64).ravel()
        if pmc_row.shape[0] != trr.n_pmcs_:
            raise ValidationError(
                f"expected {trr.n_pmcs_} PMCs per row, got {pmc_row.shape[0]}"
            )
        if im_reading is not None:
            value = float(im_reading)
            if not np.isfinite(value):
                raise ValidationError(f"IM reading must be finite, got {value}")
            run_fine_tunes([self._reading_step(pmc_row, value)])
            return value
        # Forecasts route through the same segment kernel as run_chunk
        # (a segment of one), so both entry points produce identical bits.
        return float(self._forecast_segment(pmc_row[None, :])[0])

    def chunk_steps(
        self, pmcs: np.ndarray, readings: "SparseReadings | None",
        out: np.ndarray,
    ):
        """The chunk step behind :meth:`run_chunk`, paused at each reading.

        Validates the chunk, then returns a generator that writes the
        chunk's estimates into ``out`` and yields, at each reading inside
        the chunk's span, the :class:`FineTuneJob` it asks for. The caller
        runs each job — alone, or stacked with other sessions' jobs by
        :func:`run_fine_tunes` — before resuming; ``out`` is complete once
        the generator is exhausted.
        """
        trr = self._trr
        pmcs = check_2d(pmcs, "pmcs")
        if pmcs.shape[1] != trr.n_pmcs_:
            raise ValidationError(
                f"expected {trr.n_pmcs_} PMCs per row, got {pmcs.shape[1]}"
            )
        pmcs = np.ascontiguousarray(pmcs, dtype=np.float64)
        start = self._t
        n = pmcs.shape[0]
        if out.shape != (n,):
            raise ValidationError(f"out must have shape ({n},), got {out.shape}")
        if readings is None:
            r_pos = r_val = ()
        else:
            lo = int(np.searchsorted(readings.indices, start, side="left"))
            hi = int(np.searchsorted(readings.indices, start + n, side="left"))
            values = readings.values[lo:hi]
            if not np.isfinite(values).all():
                raise ValidationError(
                    "IM readings must be finite; the chunk starting at "
                    f"t={start} holds {values[~np.isfinite(values)][0]}"
                )
            r_pos = (readings.indices[lo:hi] - start).tolist()
            r_val = values.tolist()
        return self._steps(pmcs, r_pos, r_val, out)

    def _steps(self, pmcs, r_pos, r_val, out):
        # Segment the chunk at reading instants: each inter-reading run of
        # forecasts is one batched kernel call; each reading keeps the
        # sequential anchor/fine-tune semantics.
        k = 0
        for pos, val in zip(r_pos, r_val):
            if pos > k:
                out[k:pos] = self._forecast_segment(pmcs[k:pos])
            out[pos] = val
            yield self._reading_step(pmcs[pos], val)
            k = pos + 1
        if k < pmcs.shape[0]:
            out[k:] = self._forecast_segment(pmcs[k:])

    def run_chunk(
        self, pmcs: np.ndarray, readings: "SparseReadings | None" = None
    ) -> np.ndarray:
        """Process the next chunk of a trace; returns its estimates.

        ``readings`` is the run's full sparse stream (global indices); only
        readings inside this chunk's span are consumed. Chunks must arrive
        in order — the concatenated outputs are bit-identical to one
        :meth:`run` over the whole trace.
        """
        out = np.empty(check_2d(pmcs, "pmcs").shape[0])
        steps = self.chunk_steps(pmcs, readings, out)
        with current_tracer().span("trr.dynamic"):
            for job in steps:
                run_fine_tunes([job])
        return out

    def run(self, pmcs: np.ndarray, readings: "SparseReadings | None") -> np.ndarray:
        """Process a whole trace given its sparse IM readings.

        ``readings=None`` runs the session anchorless (model-only): every
        second is a clamped forecast from the training-campaign power level
        — the degraded mode used during a full IM outage.
        """
        return self.run_chunk(pmcs, readings)


class DynamicTRR:
    """Offline-trained, online-fine-tuned LSTM restorer."""

    def __init__(
        self,
        config: "HighRPMConfig | None" = None,
        finetune_lr: float = 1e-3,
    ) -> None:
        self.config = config or HighRPMConfig()
        self.finetune_lr = float(finetune_lr)
        self.model_: "LSTMRegressor | None" = None
        self.n_pmcs_: int = 0
        self.train_power_mean_: float = 0.0
        self.p_bottom_: float = -np.inf
        self.p_upper_: float = np.inf

    def fit(
        self,
        bundles,
        p_bottom: "float | None" = None,
        p_upper: "float | None" = None,
    ) -> "DynamicTRR":
        """Offline training on instrumented campaigns (dense node power)."""
        cfg = self.config
        xs, ys = [], []
        for b in bundles:
            if len(b) < 2 * cfg.miss_interval:
                continue
            X_seq, Y_seq = build_anchor_windows(
                b.pmcs.matrix, b.node.values, cfg.miss_interval
            )
            xs.append(X_seq)
            ys.append(Y_seq)
        if not xs:
            raise ValidationError("no training bundle is long enough")
        X_seq = np.concatenate(xs)
        Y_seq = np.concatenate(ys)
        self.n_pmcs_ = X_seq.shape[2] - 1
        # The anchor channel holds power readings; its mean is the campaign
        # power level (used only for the cold-start hold value).
        self.train_power_mean_ = float(X_seq[:, :, -1].mean())
        self.p_bottom_ = (
            float(p_bottom) if p_bottom is not None
            else float(X_seq[:, :, -1].min()) * 0.7
        )
        self.p_upper_ = (
            float(p_upper) if p_upper is not None
            else float(X_seq[:, :, -1].max()) * 1.3
        )
        self.model_ = LSTMRegressor(
            hidden_size=cfg.lstm_hidden,
            num_layers=cfg.lstm_layers,
            max_iter=cfg.lstm_iters,
            random_state=cfg.seed,
        )
        self.model_.fit(X_seq, Y_seq)
        return self

    def session(self) -> OnlineTRRSession:
        """A fresh streaming session with a private copy of the model.

        The session's memory stays bounded on arbitrarily long runs: it
        returns each step's estimates and keeps only the last
        miss-interval window.
        """
        if self.model_ is None:
            raise NotFittedError("DynamicTRR.session before fit")
        return OnlineTRRSession(self)

    def restore(
        self, pmcs: np.ndarray, readings: "SparseReadings | None"
    ) -> np.ndarray:
        """One-shot restoration of a full trace (runs a session over it)."""
        pmcs = check_2d(pmcs, "pmcs")
        return self.session().run(pmcs, readings)
