"""The HighRPM facade: initial learning, active learning, monitoring.

Typical use::

    cfg = HighRPMConfig(miss_interval=10)
    hr = HighRPM(cfg, p_bottom=spec.min_node_power_w, p_upper=spec.max_node_power_w)
    hr.fit_initial(train_bundles)            # instrumented campaign
    hr.active_learning([(pmcs, readings)])   # unlabeled runs on the target node
    result = hr.monitor_online(pmcs, readings)
    result.p_node, result.p_cpu, result.p_mem    # dense 1 Sa/s estimates

``monitor_offline`` uses StaticTRR (historical log analysis);
``monitor_online`` uses DynamicTRR (live prediction). Both then distribute
the restored node power to components with SRR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import NotFittedError, ValidationError
from ..sensors.base import SparseReadings
from ..types import TraceBundle
from ..utils.validation import check_2d
from .active_learning import ReinforcementSampler, SamplePool
from .config import HighRPMConfig
from .dataset import build_flat_dataset
from .dynamic_trr import DynamicTRR, OnlineTRRSession
from .srr import SRR
from .static_trr import StaticTRR, StaticTRRStream


#: Per-sample provenance codes: the estimate is a direct IM measurement, a
#: TRR restoration anchored by nearby readings, or a pure model forecast
#: produced with no usable reading in reach (IM outage).
PROV_MEASURED = np.uint8(0)
PROV_RESTORED = np.uint8(1)
PROV_MODEL_ONLY = np.uint8(2)

#: Confidence attached to each provenance class (measurements are trusted,
#: restorations are the paper's validated operating point, unanchored
#: forecasts drift with outage length).
PROVENANCE_CONFIDENCE = {
    int(PROV_MEASURED): 1.0,
    int(PROV_RESTORED): 0.8,
    int(PROV_MODEL_ONLY): 0.4,
}


def provenance_from_readings(
    n: int,
    readings: SparseReadings,
    interval_s: "int | None" = None,
    outage_factor: float = 2.0,
    start: int = 0,
    stop: "int | None" = None,
) -> np.ndarray:
    """Per-sample provenance codes for a restoration over ``readings``.

    A sample is ``PROV_MEASURED`` at a reading instant, ``PROV_RESTORED``
    when the nearest reading is within ``outage_factor · interval_s``
    seconds (normal restoration reach), and ``PROV_MODEL_ONLY`` beyond that
    — inside an outage the estimator is extrapolating without an anchor.

    ``start``/``stop`` restrict the output to the sample span ``[start,
    stop)`` of the ``n``-sample trace (chunked callers); per-sample values
    are identical to slicing the whole-trace result.
    """
    interval = int(readings.interval_s if interval_s is None else interval_s)
    stop = n if stop is None else int(stop)
    idx = readings.indices
    t = np.arange(start, stop, dtype=np.int64)
    far = np.int64(n + 1)
    # One searchsorted serves both neighbour distances: left/right insertion
    # points only differ at exact reading instants, whose provenance is
    # overwritten with PROV_MEASURED below anyway (prev_dist is 0 there, so
    # the nearest-reading distance is unchanged too).
    pos = idx.searchsorted(t, side="right")
    prev_dist = np.where(pos > 0, t - idx[np.maximum(pos - 1, 0)], far)
    next_dist = np.where(pos < idx.size, idx[np.minimum(pos, idx.size - 1)] - t, far)
    nearest = np.minimum(prev_dist, next_dist)
    prov = np.full(stop - start, PROV_RESTORED)
    prov[nearest > outage_factor * interval] = PROV_MODEL_ONLY
    sel = idx.searchsorted(np.array((start, stop)), side="left")
    measured = idx[sel[0]:sel[1]]
    prov[measured - start] = PROV_MEASURED
    return prov


@dataclass(frozen=True)
class MonitorResult:
    """Dense restored power estimates for one run."""

    p_node: np.ndarray
    p_cpu: np.ndarray
    p_mem: np.ndarray
    mode: str  # "static", "dynamic", or "model_only"
    #: Per-sample provenance codes (``PROV_*``); None for legacy callers.
    provenance: "np.ndarray | None" = None
    #: Accelerator component power; None on CPU-only device classes.
    p_gpu: "np.ndarray | None" = None

    def __len__(self) -> int:
        return int(self.p_node.shape[0])

    @property
    def components(self) -> "dict[str, np.ndarray]":
        """Attributed component channels present on this result."""
        out = {"cpu": self.p_cpu, "mem": self.p_mem}
        if self.p_gpu is not None:
            out["gpu"] = self.p_gpu
        return out

    @property
    def p_other(self) -> np.ndarray:
        """Residual peripheral power implied by the estimates."""
        rest = self.p_node - self.p_cpu - self.p_mem
        if self.p_gpu is not None:
            rest = rest - self.p_gpu
        return rest

    @property
    def model_only_mask(self) -> np.ndarray:
        """True where the estimate ran without a usable IM anchor."""
        if self.provenance is None:
            return np.zeros(len(self), dtype=bool)
        return self.provenance == PROV_MODEL_ONLY

    def confidence(self) -> np.ndarray:
        """Per-sample confidence in [0, 1] derived from provenance."""
        if self.provenance is None:
            return np.full(len(self), PROVENANCE_CONFIDENCE[int(PROV_RESTORED)])
        out = np.empty(len(self), dtype=np.float64)
        for code, conf in PROVENANCE_CONFIDENCE.items():
            out[self.provenance == code] = conf
        return out


class HighRPM:
    """Temporal + spatial resolution restoration framework."""

    def __init__(
        self,
        config: "HighRPMConfig | None" = None,
        p_bottom: "float | None" = None,
        p_upper: "float | None" = None,
    ) -> None:
        self.config = config or HighRPMConfig()
        self.p_bottom = p_bottom
        self.p_upper = p_upper
        self.dynamic_trr = DynamicTRR(self.config)
        self.srr = SRR(self.config)
        self._initial_pool: "SamplePool | None" = None
        self._fitted = False

    def set_fast_math(self, flag: bool) -> "HighRPM":
        """Switch the inference tier (see ``HighRPMConfig.fast_math``).

        ``True`` routes the compiled kernels (SRR MLP forward, DynamicTRR
        segment forecaster) through BLAS ``matmul``; results then match the
        exact tier only within :data:`repro.perf.FAST_MATH_RTOL` /
        ``FAST_MATH_ATOL``. The config is frozen, so the switch installs a
        replaced config on this model and its sub-models; kernels built
        afterwards pick up the tier, and an already-compiled SRR forward is
        re-flagged in place. Online sessions opened *before* the switch
        keep the tier they were opened under.
        """
        flag = bool(flag)
        if flag != self.config.fast_math:
            cfg = replace(self.config, fast_math=flag)
            self.config = cfg
            self.dynamic_trr.config = cfg
            self.srr.config = cfg
        compiled = getattr(self.srr.model_, "_compiled", None)
        if compiled is not None and hasattr(compiled, "fast_math"):
            compiled.fast_math = flag
        return self

    # ---------------------------------------------------------------- stage 1
    def fit_initial(self, bundles: Sequence[TraceBundle]) -> "HighRPM":
        """Initial learning stage: train TRR and SRR on instrumented runs."""
        if not bundles:
            raise ValidationError("fit_initial needs at least one bundle")
        flat = build_flat_dataset(bundles)
        self.dynamic_trr.fit(bundles, p_bottom=self.p_bottom, p_upper=self.p_upper)
        self.srr.fit(flat.X, flat.p_node, flat.p_cpu, flat.p_mem)
        self._initial_pool = SamplePool(
            pmcs=flat.X,
            p_node=flat.p_node,
            p_cpu=flat.p_cpu,
            p_mem=flat.p_mem,
            restored=np.zeros(len(flat), dtype=bool),
        )
        self._fitted = True
        return self

    # ---------------------------------------------------------------- stage 2
    def active_learning(
        self,
        unlabeled: Sequence[tuple[np.ndarray, SparseReadings]],
        rounds: "int | None" = None,
    ) -> "HighRPM":
        """Active learning: restore unlabeled runs, fine-tune on a mix.

        ``unlabeled`` holds (pmc_matrix, sparse IM readings) pairs from the
        deployment node. StaticTRR pseudo-labels the node power; the current
        SRR pseudo-labels the components; a sampler draws reinforcement
        batches; SRR is fine-tuned on each.
        """
        self._require_fitted()
        if not unlabeled:
            return self
        restored_parts: list[SamplePool] = []
        for pmcs, readings in unlabeled:
            pmcs = check_2d(pmcs, "pmcs")
            static = StaticTRR(
                self.config, p_upper=self.p_upper, p_bottom=self.p_bottom
            )
            p_node = static.fit_restore(pmcs, readings).p_trr
            p_cpu, p_mem = self.srr.predict(pmcs, p_node)
            restored_parts.append(
                SamplePool(
                    pmcs=pmcs,
                    p_node=p_node,
                    p_cpu=p_cpu,
                    p_mem=p_mem,
                    restored=np.ones(p_node.shape[0], dtype=bool),
                )
            )
        pool = self._initial_pool
        for part in restored_parts:
            pool = SamplePool.merge(pool, part)
        sampler = ReinforcementSampler(
            fraction=self.config.reinforcement_fraction,
            rng=self.config.seed,
        )
        n_rounds = self.config.active_rounds if rounds is None else int(rounds)
        for _ in range(n_rounds):
            batch = sampler.draw(pool)
            self.srr.partial_fit(
                batch.pmcs, batch.p_node, batch.p_cpu, batch.p_mem, n_steps=200
            )
        return self

    # -------------------------------------------------------------- monitoring
    def monitor_offline(
        self, pmcs: np.ndarray, readings: SparseReadings
    ) -> MonitorResult:
        """Historical-log analysis: StaticTRR + SRR."""
        pmcs = check_2d(pmcs, "pmcs")
        p_node = self.static_trr().fit_restore(pmcs, readings).p_trr
        p_cpu, p_mem = self.srr.predict(pmcs, p_node)
        return MonitorResult(
            p_node=p_node, p_cpu=p_cpu, p_mem=p_mem, mode="static",
            provenance=self._provenance(pmcs.shape[0], readings),
        )

    def monitor_online(
        self, pmcs: np.ndarray, readings: SparseReadings
    ) -> MonitorResult:
        """Live monitoring: DynamicTRR session + SRR."""
        self._require_fitted()
        pmcs = check_2d(pmcs, "pmcs")
        p_node = self.dynamic_trr.restore(pmcs, readings)
        p_cpu, p_mem = self.srr.predict(pmcs, p_node)
        return MonitorResult(
            p_node=p_node, p_cpu=p_cpu, p_mem=p_mem, mode="dynamic",
            provenance=self._provenance(pmcs.shape[0], readings),
        )

    def monitor_model_only(self, pmcs: np.ndarray) -> MonitorResult:
        """Degraded monitoring with no IM feed at all (full outage).

        DynamicTRR runs an anchorless session: the hold channel starts at
        the training-campaign power level and the LSTM projects deviations
        forward, clamped to the physical power range. Accuracy degrades
        with outage length — every sample is flagged ``PROV_MODEL_ONLY``.
        """
        self._require_fitted()
        pmcs = check_2d(pmcs, "pmcs")
        p_node = self.dynamic_trr.restore(pmcs, readings=None)
        p_cpu, p_mem = self.srr.predict(pmcs, p_node)
        return MonitorResult(
            p_node=p_node, p_cpu=p_cpu, p_mem=p_mem, mode="model_only",
            provenance=np.full(pmcs.shape[0], PROV_MODEL_ONLY, dtype=np.uint8),
        )

    # ------------------------------------------------------------- streaming
    def offline_stream(
        self, pmcs_rows: np.ndarray, readings: SparseReadings
    ) -> "StaticTRRStream":
        """Fit a per-run StaticTRR and return its bounded-memory stream.

        ``pmcs_rows`` are the PMC rows at the reading instants only —
        streaming callers never need the dense matrix up front. Chunk
        outputs concatenate bit-identically to :meth:`monitor_offline`'s
        ``p_node``.
        """
        pmcs_rows = check_2d(pmcs_rows, "pmcs_rows")
        return self.static_trr().fit_stream(pmcs_rows, readings)

    def static_trr(self) -> StaticTRR:
        """A fresh, unfitted per-run StaticTRR under this model's config and
        power limits (:func:`~repro.core.static_trr.fit_streams` fits many
        of them at once)."""
        self._require_fitted()
        return StaticTRR(self.config, p_upper=self.p_upper, p_bottom=self.p_bottom)

    def online_session(self, retain: bool = False) -> "OnlineTRRSession":
        """A fresh bounded-memory DynamicTRR session for chunked feeding."""
        self._require_fitted()
        return self.dynamic_trr.session(retain=retain)

    def monitor_stream(
        self,
        pmcs: np.ndarray,
        readings: "SparseReadings | None",
        online: bool = True,
        chunk_size: int = 256,
    ):
        """Restore a run incrementally in fixed-size chunks (bounded state).

        A generator of ``(start, MonitorResult)`` pieces in trace order.
        ``readings=None`` selects model-only mode. The static path's output
        chunks lag its input chunks by half a miss-interval (Algorithm-1
        holds reach that far back), so pieces are not aligned with the
        ``chunk_size`` grid — but they tile ``[0, n)`` exactly, and their
        concatenation is bit-identical to the matching whole-run
        ``monitor_online`` / ``monitor_offline`` / ``monitor_model_only``
        call.
        """
        self._require_fitted()
        pmcs = check_2d(pmcs, "pmcs")
        n = pmcs.shape[0]
        if chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        if readings is not None and readings.n_dense != n:
            raise ValidationError(
                f"readings cover {readings.n_dense} samples but pmcs has {n}"
            )
        if readings is not None and not online:
            stream = self.offline_stream(pmcs[readings.indices], readings)
            for start in range(0, n, chunk_size):
                out_start, part = stream.restore_chunk(pmcs[start:start + chunk_size])
                piece = self._stream_piece(pmcs, readings, out_start, part, "static")
                if piece is not None:
                    yield piece
            out_start, part = stream.finish()
            piece = self._stream_piece(pmcs, readings, out_start, part, "static")
            if piece is not None:
                yield piece
            return
        mode = "dynamic" if readings is not None else "model_only"
        session = self.dynamic_trr.session(retain=False)
        for start in range(0, n, chunk_size):
            p_node = session.run_chunk(pmcs[start:start + chunk_size], readings)
            piece = self._stream_piece(pmcs, readings, start, p_node, mode)
            if piece is not None:
                yield piece

    def _stream_piece(self, pmcs, readings, start, p_node, mode):
        """SRR + provenance for one finalised span; None when it is empty."""
        if p_node.shape[0] == 0:
            return None
        stop = start + p_node.shape[0]
        p_cpu, p_mem = self.srr.predict(pmcs[start:stop], p_node)
        if mode == "model_only":
            prov = np.full(stop - start, PROV_MODEL_ONLY, dtype=np.uint8)
        else:
            prov = provenance_from_readings(
                pmcs.shape[0], readings,
                outage_factor=self.config.resync_gap_factor,
                start=start, stop=stop,
            )
        return start, MonitorResult(
            p_node=p_node, p_cpu=p_cpu, p_mem=p_mem, mode=mode, provenance=prov
        )

    def _provenance(self, n: int, readings: SparseReadings) -> np.ndarray:
        # The readings carry their own nominal spacing (a sensor configured
        # at 30 s is not "in outage" between its regular ticks).
        return provenance_from_readings(
            n, readings, outage_factor=self.config.resync_gap_factor
        )

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("HighRPM: call fit_initial first")
