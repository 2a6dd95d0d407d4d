"""Deployable monitoring service.

The paper deploys HighRPM "as a service on the control node ... shared with
other computing nodes" (§4.1). :class:`PowerMonitorService` is that service:
one trained HighRPM instance, many registered nodes, each with its own
sensors; ``observe_run`` ingests a node's run and streams its restored
high-resolution estimates to the service's sinks. The service keeps none
of them: a caller that wants the samples in memory attaches a
:class:`~repro.monitor.sinks.MemoryLogSink`.

The IM feed is the unreliable half of the paper's fusion, so ``observe_run``
is defensive end to end (see :mod:`repro.monitor.resilience` and
``docs/robustness.md``): transient sensor failures are retried with
backoff, implausible readings are gated against the Algorithm-1 power
clamps, and a dead feed — a full outage, a run shorter than the IM
interval, or a fully-gated stream — degrades to model-only restoration
with every sample flagged in the provenance channel instead of
failing the run.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..calib import (
    CalibrationEstimate,
    CompensationTransform,
    DriftConfig,
    estimate_calibration,
    estimate_drift_calibration,
)
from ..core.highrpm import HighRPM, MonitorResult
from ..errors import ValidationError
from ..hardware.platform import PlatformSpec
from ..obs import (
    DEFAULT_SAMPLE_PERIOD_S,
    MetricsRegistry,
    OverheadProfiler,
    Tracer,
    get_registry,
    system_clock,
    use_registry,
    use_tracer,
)
from ..perf import precompile
from ..sensors.ipmi import IPMISensor
from ..stream import Sink
from ..types import TraceBundle
from .budget import ClusterPowerBudget, NodeDemand
from .fleet import FleetMonitor
from .profile import (
    DEFAULT_DEVICE_CLASS,
    AttributionHead,
    DeviceClass,
    NodeProfile,
    SRRHead,
)
from .resilience import NodeHealth, ResiliencePolicy, sample_with_retry
from .scheduler import SamplingGovernor


class PowerMonitorService:
    """One HighRPM model serving many nodes.

    Nodes are registered with their own IPMI sensor (per-node BMCs differ in
    noise and offset); runs are observed either online (DynamicTRR) or
    offline (StaticTRR). ``policy`` governs how a failing feed is handled —
    the default retries transients, gates implausible readings, and
    degrades to model-only restoration rather than raising.
    """

    def __init__(
        self,
        model: HighRPM,
        spec: PlatformSpec,
        policy: "ResiliencePolicy | None" = None,
        registry: "MetricsRegistry | None" = None,
        clock=None,
        sinks: "list[Sink] | None" = None,
    ) -> None:
        model._require_fitted()
        self.model = model
        self.spec = spec
        self.policy = policy or ResiliencePolicy()
        # Observability: metrics land in the given registry (default: the
        # ambient one at construction time), pipeline spans are timed with
        # the given clock (default: the process monotonic clock; tests pass
        # a ManualClock), and the profiler prices every run against the
        # paper's 1 Sa/s sampling budget.
        self.registry = registry if registry is not None else get_registry()  # repro-lint: disable=registry-capture — the service is the injection boundary: callers pass an explicit registry (tests do), and the ambient fallback is the documented single-process default; per-shard workers receive the service's registry explicitly
        self.clock = clock if clock is not None else system_clock()
        self.tracer = Tracer(clock=self.clock, registry=self.registry)
        self.profiler = OverheadProfiler(
            clock=self.clock,
            sample_period_s=DEFAULT_SAMPLE_PERIOD_S,
            registry=self.registry,
        )
        #: registered device classes; the constructor model/spec pair is the
        #: implicit default class, further classes (e.g. GPU nodes) attach
        #: their own restoration model and attribution head.
        self._classes: "dict[str, DeviceClass]" = {}
        self.register_device_class(DEFAULT_DEVICE_CLASS, model)
        self._nodes: dict[str, IPMISensor] = {}
        self._profiles: "dict[str, NodeProfile]" = {}
        self._health: dict[str, NodeHealth] = {}
        #: optional overhead-adaptive sampling controller (see set_governor).
        self._governor: "SamplingGovernor | None" = None
        #: per-node compensation transforms (absent = uncalibrated feed);
        #: applied by the pipeline's calibrate stage before the gate.
        self._calibration: "dict[str, CompensationTransform]" = {}
        #: sinks every node's finished chunks flow into, in order.
        self.sinks: "list[Sink]" = list(sinks) if sinks else []

    # ------------------------------------------------------ device classes
    def register_device_class(
        self,
        name: str,
        model: HighRPM,
        head: "AttributionHead | None" = None,
        p_bottom: "float | None" = None,
        p_upper: "float | None" = None,
    ) -> DeviceClass:
        """Register a device class: restoration model + attribution head.

        ``head`` defaults to the model's own two-way SRR; GPU classes pass
        a :class:`~repro.monitor.profile.GPUSRRHead`. Clamps default to
        the model's fitted power range (the constructor's default class
        additionally falls back to the platform spec). The head's forward
        is precompiled, same as the default class.
        """
        if name in self._classes:
            raise ValidationError(f"device class {name!r} already registered")
        model._require_fitted()
        if head is None:
            head = SRRHead(model.srr)
        lo = model.p_bottom if p_bottom is None else p_bottom
        hi = model.p_upper if p_upper is None else p_upper
        if name == DEFAULT_DEVICE_CLASS:
            lo = self.spec.min_node_power_w if lo is None else lo
            hi = self.spec.max_node_power_w if hi is None else hi
        if lo is None or hi is None:
            raise ValidationError(
                f"device class {name!r} needs power clamps: fit the model "
                f"with p_bottom/p_upper or pass them explicitly"
            )
        precompile(head.mlp)
        cls = DeviceClass(name, model, head, float(lo), float(hi))
        self._classes[name] = cls
        return cls

    @property
    def device_classes(self) -> tuple[str, ...]:
        return tuple(self._classes)

    def device_class(self, name: str) -> DeviceClass:
        try:
            return self._classes[name]
        except KeyError:
            raise ValidationError(f"unknown device class {name!r}") from None

    def device_class_of(self, node_id: str) -> DeviceClass:
        """The registered class of one node (its model/head/clamps)."""
        return self.device_class(self.profile_of(node_id).device_class)

    def profile_of(self, node_id: str) -> NodeProfile:
        try:
            return self._profiles[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id!r}") from None

    # --------------------------------------------------------- registration
    def register_node(self, node_id: str, sensor: "IPMISensor | None" = None,
                      seed: int = 0,
                      profile: "NodeProfile | None" = None) -> None:
        if node_id in self._nodes:
            raise ValidationError(f"node {node_id!r} already registered")
        profile = profile or NodeProfile(seed=seed)
        if profile.device_class not in self._classes:
            raise ValidationError(
                f"node {node_id!r} names unregistered device class "
                f"{profile.device_class!r}; register_device_class it first"
            )
        if sensor is None:
            sensor = IPMISensor(
                self.spec, interval_s=profile.interval_s,
                seed=profile.seed if profile.seed else seed,
            )
        self._nodes[node_id] = sensor
        self._profiles[node_id] = profile
        self._health[node_id] = NodeHealth(node_id)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def sensor(self, node_id: str) -> IPMISensor:
        """The IM sensor registered for one node."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ValidationError(
                f"unknown node {node_id!r}; register it first"
            ) from None

    def health(self, node_id: str) -> NodeHealth:
        try:
            return self._health[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id!r}") from None

    # -------------------------------------------------------- calibration
    def set_calibration(
        self, node_id: str, transform: "CompensationTransform | None"
    ) -> None:
        """Register (or clear, with ``None``) a node's compensation.

        The transform is applied by the pipeline's calibrate stage to
        every subsequent run's IM readings, upstream of gating and
        restoration. Publishes the fitted coefficients as gauges so a
        drifting fleet is visible on the scrape surface.
        """
        if node_id not in self._nodes:
            raise ValidationError(f"unknown node {node_id!r}; register it first")
        if transform is None:
            self._calibration.pop(node_id, None)
            return
        if not isinstance(transform, CompensationTransform):
            raise ValidationError(
                f"not a CompensationTransform: {transform!r}"
            )
        self._calibration[node_id] = transform
        registry = self.registry
        for name, help_text, value in (
            ("repro_calib_lag_seconds",
             "Registered clock-lag compensation per node.",
             float(transform.lag_s)),
            ("repro_calib_scale",
             "Registered affine correction gain per node.", transform.scale),
            ("repro_calib_offset_watts",
             "Registered affine correction offset per node.",
             transform.offset_w),
        ):
            registry.gauge(name, help_text, ("node",)).labels(
                node=node_id
            ).set(value)

    def calibration_for(self, node_id: str) -> "CompensationTransform | None":
        """The node's registered compensation, or None when uncalibrated."""
        return self._calibration.get(node_id)

    def calibrate_node(
        self,
        node_id: str,
        bundle: TraceBundle,
        reference: np.ndarray,
        max_lag_s: "int | None" = None,
        drift: "DriftConfig | bool | None" = None,
    ) -> CalibrationEstimate:
        """Calibrate one node's feed against a dense reference channel.

        Samples the node's sensor over the calibration ``bundle``
        (with the policy's transient retry), fits the error model against
        ``reference`` (the direct-measurement node power of the same run,
        :meth:`~repro.sensors.DirectPowerSensor.measure_node`), registers
        the resulting compensation, and returns the estimate. Pass
        ``drift=True`` (or a :class:`~repro.calib.DriftConfig`) for
        windowed drift tracking instead of a single static fit.
        """
        sensor = self.sensor(node_id)
        with use_registry(self.registry), use_tracer(self.tracer):
            with self.tracer.span("calib.estimate"):
                readings = sample_with_retry(
                    sensor, bundle, self.policy, self._health[node_id]
                )
                if drift:
                    config = drift if isinstance(drift, DriftConfig) \
                        else DriftConfig(max_lag_s=max_lag_s)
                    estimate, tracker = estimate_drift_calibration(
                        readings, reference, config
                    )
                    self.registry.counter(
                        "repro_calib_drift_refits_total",
                        "Drift-tracker windows whose trigger fired.",
                        ("node",),
                    ).labels(node=node_id).inc(tracker.refits)
                else:
                    estimate = estimate_calibration(
                        readings, reference, max_lag_s=max_lag_s
                    )
        self.registry.counter(
            "repro_calib_estimates_total",
            "Calibration estimates fitted per node.", ("node",),
        ).labels(node=node_id).inc()
        self.set_calibration(node_id, estimate.transform())
        return estimate

    # ----------------------------------------------------- cluster budget
    def cluster_allocations(
        self, cap_w: float, demands: "Mapping[str, float]"
    ) -> dict[str, float]:
        """Water-fill one facility cap across the registered (mixed) fleet.

        Each node's floor and ceiling come from its device class's power
        clamps, so a 340 W GPU node and a 90 W CPU node compete for the
        same budget on honest terms. ``demands`` gives per-node demand in
        watts; a node it does not name demands its class floor.
        """
        if not self._nodes:
            raise ValidationError("no nodes registered")
        entries = []
        for node_id in self._nodes:
            lo, hi = self.device_class_of(node_id).clamps
            want = float(demands.get(node_id, lo))
            entries.append(NodeDemand(node_id, min(max(want, lo), hi), lo, hi))
        return ClusterPowerBudget(cap_w).allocate(entries)

    # ----------------------------------------------------------- governor
    def set_governor(self, governor: "SamplingGovernor | None") -> None:
        """Attach (or detach, with ``None``) the adaptive-sampling governor.

        With a governor attached, the ingest stage thins each node's IM
        feed at the node's current stride and every finished run feeds its
        restored confidence back into the schedule.
        """
        if governor is not None and not isinstance(governor, SamplingGovernor):
            raise ValidationError(f"not a SamplingGovernor: {governor!r}")
        self._governor = governor

    @property
    def governor(self) -> "SamplingGovernor | None":
        return self._governor

    def sampling_stride(self, node_id: str) -> int:
        """The IM thinning stride for a node's next run (1 = dense)."""
        if self._governor is None:
            return 1
        return self._governor.stride_for(node_id)

    def sampling_offset(self, node_id: str) -> int:
        """The surviving residue class for a node's next run (0 = aligned)."""
        if self._governor is None:
            return 0
        return self._governor.offset_for(node_id)

    # --------------------------------------------------------- observation
    def observe_run(
        self, node_id: str, bundle: TraceBundle, online: bool = True,
        chunk_size: "int | None" = None,
    ) -> MonitorResult:
        """Ingest one run from a node; returns the restored estimates.

        The run goes through a one-node :class:`FleetMonitor`, the same
        driver the fleet front-end uses. ``chunk_size`` streams it in
        fixed-size chunks (bounded restorer state; bit-identical output);
        the default processes it as one chunk.

        Never raises for a *failing feed* under the default policy: sensor
        outages, short bundles, and fully-gated streams degrade to
        model-only restoration (``result.mode == "model_only"``, samples
        flagged in ``provenance``). With
        ``ResiliencePolicy(degrade_to_model_only=False)`` those conditions
        raise instead — outages as :class:`~repro.errors.SensorError`,
        unusable runs as :class:`~repro.errors.ValidationError`.
        """
        with self.tracer.span("monitor.observe_run"):
            fleet = FleetMonitor(self, chunk_size)
            return fleet.observe_all({node_id: bundle}, online=online)[node_id]

    def adapt(self, node_id: str, bundle: TraceBundle) -> None:
        """Active-learning round on one node's unlabeled run (§4.1)."""
        readings = self.sensor(node_id).sample(bundle)
        self.model.active_learning([(bundle.pmcs.matrix, readings)])
