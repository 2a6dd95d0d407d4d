"""Scheduling: energy-aware job placement and overhead-adaptive sampling.

Two schedulers live here. :class:`EnergyAwareScheduler` is the end
application the paper's introduction gestures at: a facility cap must be
enforced while jobs make progress, and the enforcement quality depends on
how current each node's power picture is. The scheduler:

* assigns queued jobs to idle nodes (first fit);
* every second, collects each node's power *demand* — either the true
  value (oracle), a stale IM reading (hold-last), or a HighRPM-restored
  estimate — and asks :class:`~repro.monitor.budget.ClusterPowerBudget`
  for allocations;
* throttles nodes whose allocation is below demand; a throttled job makes
  proportionally less progress that second (DVFS-style slowdown), so cap
  pressure shows up as makespan.

The accompanying bench compares demand sources: better power information
⇒ less unnecessary throttling ⇒ shorter makespan at equal cap compliance.

:class:`SamplingGovernor` schedules the *monitor itself*: per node, per
run, it trades IM sampling density against monitoring overhead. Where a
node's restoration confidence is high the governor thins the IM feed (the
spline holds between sparser anchors); where confidence drops — outages,
gated readings, model-only stretches — it snaps back to dense sampling.
Decisions are pure functions of ``(seed, node id, confidence, budget)``,
so a sharded deployment reproduces the single-process schedule bitwise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..sensors.base import SparseReadings
from ..types import TraceBundle
from ..utils.validation import check_positive
from .budget import ClusterPowerBudget, NodeDemand


@dataclass
class Job:
    """One queued job: a pre-simulated bundle to 'execute'.

    ``demand_estimates`` optionally supplies what the *monitoring stack
    believes* the job draws at each second of progress (e.g. HighRPM
    restored power); when absent the scheduler senses true power. True
    power is always what is billed and checked against the cap.
    """

    job_id: str
    bundle: TraceBundle
    demand_estimates: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        if self.demand_estimates is not None:
            est = np.asarray(self.demand_estimates, dtype=np.float64)
            if est.shape != (len(self.bundle),):
                raise ValidationError(
                    "demand_estimates must have one value per bundle sample"
                )
            self.demand_estimates = est

    @property
    def work_s(self) -> int:
        return len(self.bundle)


@dataclass
class _Running:
    job: Job
    progress_s: float = 0.0  # fractional seconds of work completed

    @property
    def done(self) -> bool:
        return self.progress_s >= self.job.work_s - 1e-9

    def _idx(self) -> int:
        return min(int(self.progress_s), self.job.work_s - 1)

    def power_now(self) -> float:
        return float(self.job.bundle.node.values[self._idx()])

    def sensed_demand(self) -> float:
        if self.job.demand_estimates is not None:
            return float(self.job.demand_estimates[self._idx()])
        return self.power_now()


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of one scheduling run."""

    makespan_s: int
    energy_kj: float
    cap_violations_s: int
    mean_throttle: float
    completions: tuple[str, ...]


class EnergyAwareScheduler:
    """Discrete-time scheduler with budgeted throttling.

    Parameters
    ----------
    node_floors / node_ceilings:
        Per-node idle draw and per-node cap, keyed by node id.
    cluster_cap_w:
        The facility budget enforced every second.
    demand_staleness_s:
        How old the demand signal is: 1 models HighRPM-style per-second
        estimates; 10 models raw IPMI (the reading only refreshes every
        10 s). ``demand_error_w`` adds estimation noise on top.
    """

    def __init__(
        self,
        node_floors: dict[str, float],
        node_ceilings: dict[str, float],
        cluster_cap_w: float,
        demand_staleness_s: int = 1,
        demand_error_w: float = 0.0,
        seed: int = 0,
    ) -> None:
        if set(node_floors) != set(node_ceilings):
            raise ValidationError("floors and ceilings must cover the same nodes")
        check_positive(cluster_cap_w, "cluster_cap_w")
        check_positive(demand_staleness_s, "demand_staleness_s")
        self.node_floors = dict(node_floors)
        self.node_ceilings = dict(node_ceilings)
        self.budget = ClusterPowerBudget(cluster_cap_w)
        self.cluster_cap_w = float(cluster_cap_w)
        self.demand_staleness_s = int(demand_staleness_s)
        self.demand_error_w = float(demand_error_w)
        self._rng = np.random.default_rng(seed)

    def run(self, jobs: "list[Job]", max_seconds: int = 10000) -> ScheduleOutcome:
        """Execute the queue to completion (or the time limit)."""
        if not jobs:
            raise ValidationError("no jobs to schedule")
        queue = list(jobs)
        running: dict[str, _Running] = {}
        cached_demand: dict[str, float] = {
            n: self.node_floors[n] for n in self.node_floors
        }
        energy_j = 0.0
        violations = 0
        throttles: list[float] = []
        completions: list[str] = []

        for t in range(max_seconds):
            # Dispatch: fill idle nodes first-fit.
            for node_id in self.node_floors:
                if node_id not in running and queue:
                    running[node_id] = _Running(queue.pop(0))
            if not running and not queue:
                return ScheduleOutcome(
                    makespan_s=t,
                    energy_kj=energy_j / 1e3,
                    cap_violations_s=violations,
                    mean_throttle=float(np.mean(throttles)) if throttles else 1.0,
                    completions=tuple(completions),
                )

            # Demand signal: refresh per staleness, with estimation error.
            if t % self.demand_staleness_s == 0:
                for node_id in self.node_floors:
                    sensed = (
                        running[node_id].sensed_demand()
                        if node_id in running
                        else self.node_floors[node_id]
                    )
                    err = (
                        self._rng.normal(0.0, self.demand_error_w)
                        if self.demand_error_w > 0
                        else 0.0
                    )
                    cached_demand[node_id] = max(sensed + err, 0.0)

            demands = [
                NodeDemand(n, cached_demand[n], self.node_floors[n],
                           self.node_ceilings[n])
                for n in self.node_floors
            ]
            allocations = self.budget.allocate(demands)

            # Advance running jobs under their allocations. A node throttled
            # to ``alloc`` watts runs at progress factor f such that its
            # power ``floor + f·(p − floor)`` equals the allocation — the
            # idle floor is not throttleable.
            busy_now = set(running)
            total_power = 0.0
            for node_id in list(running):
                state = running[node_id]
                p = state.power_now()
                floor = self.node_floors[node_id]
                alloc = allocations[node_id]
                dyn = max(p - floor, 1e-9)
                f = float(np.clip((alloc - floor) / dyn, 0.0, 1.0))
                throttles.append(f)
                total_power += floor + f * (p - floor)
                state.progress_s += f
                if state.done:
                    completions.append(state.job.job_id)
                    del running[node_id]
            # Nodes idle this whole second draw their floor.
            total_power += sum(
                self.node_floors[n] for n in self.node_floors if n not in busy_now
            )
            energy_j += total_power
            if total_power > self.cluster_cap_w:
                violations += 1

        raise ValidationError(
            f"schedule did not finish within {max_seconds} s "
            f"({len(queue)} queued, {len(running)} running)"
        )


# --------------------------------------------------------------------------
# Overhead-adaptive sampling: the governor that schedules the monitor itself.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GovernorPolicy:
    """Tuning knobs for :class:`SamplingGovernor`.

    Parameters
    ----------
    aggressiveness:
        How hard to chase overhead savings, in ``[0, 1]``. 0 disables the
        governor (every node stays dense); 1 thins confident nodes all the
        way to ``max_stride``.
    max_stride:
        Densest-to-sparsest ratio: a stride of k keeps every k-th IM
        reading and scales the nominal interval by k.
    confidence_floor:
        Restoration confidence below which a node is always sampled dense
        (model-only stretches score 0.4, well under the default).
    target_budget_fraction:
        The overhead budget the governor steers around — the paper's
        "small fraction of one 1 Sa/s sampling period". Spending above it
        raises thinning pressure; below it relaxes pressure.
    pinned_budget_fraction:
        When set, used *instead of* the live profiler reading. Pin this in
        sharded deployments: the wall-clock profiler differs across
        processes, and a pinned value keeps governor decisions — hence
        every downstream restored sample — bitwise reproducible.
    seed:
        Dealigns the per-node rounding phase so fleet-wide stride jumps do
        not synchronise; part of the decision function's determinism key.
    """

    aggressiveness: float = 0.5
    max_stride: int = 4
    confidence_floor: float = 0.6
    target_budget_fraction: float = 0.05
    pinned_budget_fraction: "float | None" = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.aggressiveness <= 1.0:
            raise ValidationError(
                f"aggressiveness must be in [0, 1], got {self.aggressiveness}"
            )
        if self.max_stride < 1:
            raise ValidationError(
                f"max_stride must be >= 1, got {self.max_stride}"
            )
        if not 0.0 <= self.confidence_floor < 1.0:
            raise ValidationError(
                f"confidence_floor must be in [0, 1), got {self.confidence_floor}"
            )
        check_positive(self.target_budget_fraction, "target_budget_fraction")
        if self.pinned_budget_fraction is not None \
                and self.pinned_budget_fraction < 0:
            raise ValidationError("pinned_budget_fraction must be >= 0")


@dataclass(frozen=True)
class SamplingDecision:
    """One governor decision for one node (applies to its *next* run)."""

    node_id: str
    stride: int
    confidence: float
    budget_fraction: float
    #: "denser" / "sparser" / "hold" relative to the node's previous stride.
    direction: str
    #: Which residue class of readings survives (``indices[offset::stride]``).
    offset: int = 0


def node_phase(seed: int, node_id: str) -> float:
    """Deterministic per-node rounding phase in ``[0, 0.5)``.

    Hash-derived (not RNG-derived) so it is a pure function of the policy
    seed and the node id — independent of call order and shard layout.
    """
    digest = hashlib.sha256(f"{seed}:{node_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**65


def decide_stride(
    policy: GovernorPolicy, node_id: str, confidence: float,
    budget_fraction: float,
) -> int:
    """The governor's decision function — pure and deterministic.

    ``stride = 1 + ⌊drive · (max_stride − 1) + phase⌋`` where ``drive``
    is aggressiveness × confidence headroom × budget pressure. Confidence
    at or below the floor always yields stride 1 (dense), as does
    ``aggressiveness == 0``.
    """
    p = policy
    if p.aggressiveness <= 0.0 or p.max_stride <= 1:
        return 1
    headroom = (confidence - p.confidence_floor) / (1.0 - p.confidence_floor)
    headroom = float(np.clip(headroom, 0.0, 1.0))
    if headroom <= 0.0:
        return 1
    # Budget pressure in [0.5, 1.5]: spending at the target is neutral,
    # double the target maximises thinning, a free budget halves it.
    pressure = 0.5 + float(
        np.clip(budget_fraction / p.target_budget_fraction, 0.0, 2.0)
    ) / 2.0
    drive = float(np.clip(p.aggressiveness * headroom * pressure, 0.0, 1.0))
    stride = 1 + int(drive * (p.max_stride - 1) + node_phase(p.seed, node_id))
    return min(stride, p.max_stride)


def decide_offset(policy: GovernorPolicy, node_id: str, stride: int) -> int:
    """Which residue class of anchors a thinned node keeps — also pure.

    Spreading offsets across the fleet staggers the surviving IM instants
    (no thundering-herd BMC polling) and, on average, keeps the fleet-wide
    reading count at ``n/stride`` instead of every node paying the
    ``ceil`` — both a deterministic function of (seed, node id, stride).
    """
    if stride <= 1:
        return 0
    return int(node_phase(policy.seed, node_id) * 2.0 * stride) % stride


def thin_readings(
    readings: SparseReadings, stride: int, floor: int = 1, offset: int = 0
) -> "tuple[SparseReadings, int]":
    """Keep every ``stride``-th IM reading; returns ``(thinned, dropped)``.

    The effective stride is clamped so at least ``max(floor, 1)`` readings
    survive — thinning may never push a run below the gate's minimum-
    readings floor. ``offset`` selects which residue class survives
    (``indices[offset::stride]``; see :func:`decide_offset`). The nominal
    interval scales with the stride so the provenance reach of each
    surviving anchor grows proportionally.
    """
    n = len(readings)
    floor = max(int(floor), 1)
    if stride <= 1 or n <= floor:
        return readings, 0
    eff = max(1, min(int(stride), n // floor))
    if eff <= 1:
        return readings, 0
    # The first reading is always kept: the spline's start boundary anchor.
    # Dropping it trades a cheap interior interpolation for an expensive
    # extrapolation over the trace's setup phase. The offset then phases
    # the rest of the comb. kept = 1 + floor((n - 1 - off) / eff) >= floor
    # for any off < eff (eff <= n // floor), so the offset can never thin
    # past the floor the clamp guaranteed.
    off = int(offset) % eff
    keep = np.concatenate(([0], np.arange(eff + off, n, eff)))
    indices = readings.indices[keep]
    thinned = SparseReadings(
        indices=indices,
        values=readings.values[keep],
        interval_s=readings.interval_s * eff,
        n_dense=readings.n_dense,
    )
    return thinned, n - int(indices.shape[0])


class SamplingGovernor:
    """Per-node sampling-interval controller (overhead-adaptive monitoring).

    The service consults :meth:`stride_for` when ingesting a node's run
    (the ingest stage thins the IM feed accordingly) and calls
    :meth:`update_all` when a batch of runs finishes, feeding back each
    run's restored confidence and the current overhead budget fraction.
    State is strictly per node, so fleet sharding cannot reorder or couple
    decisions.
    """

    def __init__(self, policy: "GovernorPolicy | None" = None) -> None:
        self.policy = policy or GovernorPolicy()
        self._strides: "dict[str, int]" = {}
        self._decisions: "dict[str, SamplingDecision]" = {}
        #: node_phase per node id: a pure function of the seed and the id.
        self._phases: "dict[str, float]" = {}

    def stride_for(self, node_id: str) -> int:
        """The stride the node's next run should be sampled at (1 = dense)."""
        return self._strides.get(node_id, 1)

    def offset_for(self, node_id: str) -> int:
        """The surviving residue class for the node's next run (0 = aligned)."""
        decision = self._decisions.get(node_id)
        return 0 if decision is None else decision.offset

    def last_decision(self, node_id: str) -> "SamplingDecision | None":
        return self._decisions.get(node_id)

    def schedule(self) -> "dict[str, int]":
        """Snapshot of every node's current stride."""
        return dict(self._strides)

    def update(
        self, node_id: str, confidence: float, budget_fraction: float
    ) -> SamplingDecision:
        """Fold one finished run's feedback into the node's schedule: the
        :meth:`update_all` of one."""
        return self.update_all([node_id], [confidence], budget_fraction)[0]

    def update_all(
        self, node_ids, confidences, budget_fraction: float
    ) -> "list[SamplingDecision]":
        """Fold a batch of finished runs' feedback into their nodes'
        schedules; returns one decision per node, in order.

        Every stride and offset is decided in one array pass, bitwise the
        :func:`decide_stride` / :func:`decide_offset` values sequential
        :meth:`update` calls produce. A confidence outside ``[0, 1]``, a
        negative or non-finite budget, or a node named twice raises
        :class:`~repro.errors.ValidationError` before any node's state
        changes.
        """
        node_ids = list(node_ids)
        conf = np.asarray(confidences, dtype=np.float64)
        budget = float(budget_fraction)
        if conf.shape != (len(node_ids),):
            raise ValidationError(
                f"{len(node_ids)} node(s) but confidences of shape {conf.shape}"
            )
        if not (np.isfinite(conf).all() and np.all((conf >= 0.0) & (conf <= 1.0))):
            raise ValidationError(
                f"confidences must be finite and in [0, 1], got {conf}"
            )
        if not np.isfinite(budget) or budget < 0.0:
            raise ValidationError(
                f"budget_fraction must be finite and >= 0, got {budget}"
            )
        if len(set(node_ids)) != len(node_ids):
            raise ValidationError(f"a node is named twice in {node_ids}")
        p = self.policy
        phases = self._phases
        for node_id in node_ids:
            if node_id not in phases:
                phases[node_id] = node_phase(p.seed, node_id)
        phase = np.array([phases[node_id] for node_id in node_ids])
        # decide_stride over the batch. Its early returns (aggressiveness
        # 0, max_stride 1, headroom 0) all make drive · (max_stride − 1)
        # zero, leaving 1 + ⌊phase⌋ = 1 (phase < 0.5), so one expression
        # covers them.
        headroom = np.clip(
            (conf - p.confidence_floor) / (1.0 - p.confidence_floor), 0.0, 1.0
        )
        pressure = 0.5 + float(
            np.clip(budget / p.target_budget_fraction, 0.0, 2.0)
        ) / 2.0
        drive = np.clip(p.aggressiveness * headroom * pressure, 0.0, 1.0)
        strides = np.minimum(
            1 + (drive * (p.max_stride - 1) + phase).astype(np.int64),
            p.max_stride,
        )
        # decide_offset: stride 1 keeps residue class 0
        offsets = (phase * 2.0 * strides).astype(np.int64) % strides
        decisions = []
        for node_id, c, stride, offset in zip(
            node_ids, conf.tolist(), strides.tolist(), offsets.tolist()
        ):
            previous = self._strides.get(node_id, 1)
            if stride > previous:
                direction = "sparser"
            elif stride < previous:
                direction = "denser"
            else:
                direction = "hold"
            decision = SamplingDecision(
                node_id=node_id, stride=stride, confidence=c,
                budget_fraction=budget, direction=direction, offset=offset,
            )
            self._strides[node_id] = stride
            self._decisions[node_id] = decision
            decisions.append(decision)
        return decisions
