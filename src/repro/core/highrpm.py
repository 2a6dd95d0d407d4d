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

from dataclasses import dataclass
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
from .static_trr import StaticTRR


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

#: ``PROVENANCE_CONFIDENCE`` as a table indexed by provenance code.
_CONFIDENCE_TABLE = np.array(
    [PROVENANCE_CONFIDENCE[code] for code in range(len(PROVENANCE_CONFIDENCE))]
)


# repro-lint: disable=boundary-validation — any-shape codes (a fleet stacks
# its runs' provenance as rows), checked inline against the table below.
def provenance_confidence(provenance: np.ndarray) -> np.ndarray:
    """Per-sample confidence for provenance codes of any shape: one take
    from the ``PROVENANCE_CONFIDENCE`` table. A code outside the table
    raises :class:`~repro.errors.ValidationError`."""
    codes = np.asarray(provenance)
    if codes.size == 0:
        return np.empty(codes.shape)
    if codes.dtype.kind not in "ui" or codes.min() < 0 \
            or codes.max() >= _CONFIDENCE_TABLE.size:
        raise ValidationError(
            f"unknown provenance code(s) in {np.unique(codes)}; expected "
            f"integer PROV_* codes 0..{_CONFIDENCE_TABLE.size - 1}"
        )
    return _CONFIDENCE_TABLE.take(codes)


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
    ``interval_s`` defaults to the readings' own nominal spacing.

    ``start``/``stop`` restrict the output to the sample span ``[start,
    stop)`` of the ``n``-sample trace. The :func:`provenance_stack` of one.
    """
    intervals = None if interval_s is None else [interval_s]
    return provenance_stack([n], [readings], [outage_factor],
                            intervals)[0][start:stop]


def provenance_stack(ns, readings, outage_factors, intervals=None
                     ) -> "list[np.ndarray]":
    """:func:`provenance_from_readings` of many whole traces in one pass.

    ``ns``, ``readings`` and ``outage_factors`` (and ``intervals``, which
    default to each run's ``readings.interval_s``) are parallel, one entry
    per run. The traces are laid end to end, each run's reading positions
    shifted by its offset, so one search finds every sample's neighbouring
    readings; a neighbour outside the sample's own run does not count. The
    distances are integers, so each run's codes equal its own pass's.
    Returns one array per run (views of one buffer).
    """
    if intervals is None:
        intervals = [r.interval_s for r in readings]
    ns = np.asarray(ns, dtype=np.int64)
    if ns.shape[0] == 0:
        return []
    counts = np.array([len(r) for r in readings], dtype=np.int64)
    base = np.zeros_like(ns)
    np.cumsum(ns[:-1], out=base[1:])
    idx = np.concatenate([r.indices for r in readings]) + base.repeat(counts)
    first = np.zeros_like(counts)  # each run's first reading in ``idx``
    np.cumsum(counts[:-1], out=first[1:])
    t = np.arange(int(ns.sum()), dtype=np.int64)
    far = t.shape[0] + 1  # beyond any in-run distance
    # One searchsorted serves both neighbour distances: left/right insertion
    # points only differ at exact reading instants, whose provenance is
    # overwritten with PROV_MEASURED below anyway (prev_dist is 0 there, so
    # the nearest-reading distance is unchanged too).
    pos = idx.searchsorted(t, side="right")
    prev_dist = np.where(pos > first.repeat(ns),
                         t - idx[np.maximum(pos - 1, 0)], far)
    next_dist = np.where(pos < (first + counts).repeat(ns),
                         idx[np.minimum(pos, idx.shape[0] - 1)] - t, far)
    nearest = np.minimum(prev_dist, next_dist)
    reach = np.array([f * int(iv) for f, iv in zip(outage_factors, intervals)],
                     dtype=np.float64)
    prov = np.full(t.shape[0], PROV_RESTORED)
    prov[nearest > reach.repeat(ns)] = PROV_MODEL_ONLY
    prov[idx] = PROV_MEASURED
    bounds = base.tolist() + [t.shape[0]]
    return [prov[a:b] for a, b in zip(bounds, bounds[1:])]


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
        return provenance_confidence(self.provenance)


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
    def static_trr(self) -> StaticTRR:
        """A fresh, unfitted per-run StaticTRR under this model's config and
        power limits (:func:`~repro.core.static_trr.fit_streams` fits many
        of them at once)."""
        self._require_fitted()
        return StaticTRR(self.config, p_upper=self.p_upper, p_bottom=self.p_bottom)

    def online_session(self) -> "OnlineTRRSession":
        """A fresh bounded-memory DynamicTRR session for chunked feeding."""
        self._require_fitted()
        return self.dynamic_trr.session()

    def _provenance(self, n: int, readings: SparseReadings) -> np.ndarray:
        # The readings carry their own nominal spacing (a sensor configured
        # at 30 s is not "in outage" between its regular ticks).
        return provenance_from_readings(
            n, readings, outage_factor=self.config.resync_gap_factor
        )

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("HighRPM: call fit_initial first")
