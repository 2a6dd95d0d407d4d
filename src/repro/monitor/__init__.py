"""Monitoring runtime: energy accounting, power capping, and the deployable
monitor service.

The capping controller reproduces the paper's motivation experiment
(Fig. 1): with slow power readings (large PI) and slow enforcement (large
AI), spikes are missed, peak power grows, and total energy rises.
"""

from .anomaly import Anomaly, PowerAnomalyDetector
from .assisted import AssistedCapController, run_assisted_capped
from .budget import ClusterPowerBudget, NodeDemand
from .capping import CappingPolicy, PowerCapController, run_capped
from .energy import EnergyAccount, energy_of, peak_of
from .fleet import FleetMonitor
from .pipeline import ObservationContext, build_pipeline
from .profile import (
    DEFAULT_DEVICE_CLASS,
    AttributionHead,
    DeviceClass,
    GPUSRRHead,
    NodeProfile,
    SRRHead,
)
from .report import RunSummary, render_node_report, summarise_runs
from .resilience import DEGRADED, HEALTHY, OUTAGE, NodeHealth, ResiliencePolicy
from .scheduler import (
    EnergyAwareScheduler,
    GovernorPolicy,
    Job,
    SamplingDecision,
    SamplingGovernor,
    ScheduleOutcome,
    decide_offset,
    decide_stride,
    node_phase,
    thin_readings,
)
from .service import PowerMonitorService
from .sinks import MemoryLogSink, MonitorLog

__all__ = [
    "Anomaly",
    "PowerAnomalyDetector",
    "AssistedCapController",
    "run_assisted_capped",
    "CappingPolicy",
    "PowerCapController",
    "run_capped",
    "EnergyAccount",
    "energy_of",
    "peak_of",
    "MonitorLog",
    "PowerMonitorService",
    "ObservationContext",
    "build_pipeline",
    "MemoryLogSink",
    "FleetMonitor",
    "NodeHealth",
    "ResiliencePolicy",
    "HEALTHY",
    "DEGRADED",
    "OUTAGE",
    "ClusterPowerBudget",
    "NodeDemand",
    "EnergyAwareScheduler",
    "Job",
    "ScheduleOutcome",
    "DEFAULT_DEVICE_CLASS",
    "AttributionHead",
    "DeviceClass",
    "GPUSRRHead",
    "NodeProfile",
    "SRRHead",
    "GovernorPolicy",
    "SamplingDecision",
    "SamplingGovernor",
    "decide_offset",
    "decide_stride",
    "node_phase",
    "thin_readings",
    "RunSummary",
    "render_node_report",
    "summarise_runs",
]
