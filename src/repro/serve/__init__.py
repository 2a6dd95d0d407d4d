"""Always-on sharded monitoring service (the SmartWatts deployment shape).

The paper deploys HighRPM as a service on the control node shared by the
computing nodes (§4.1); this package is that service as a long-running
daemon: the fleet is split across shard workers — each an independent
:class:`~repro.monitor.FleetMonitor` tick loop over its own
:class:`~repro.monitor.PowerMonitorService` and private metrics registry —
feeding one merge collector, each over an event queue of its own, with
a stdlib HTTP surface on top (``/metrics``, ``/healthz``, ``/stream``).

Sharding is a *layout*, not a semantic: every per-node seed derives from
the node's global index, observation never mutates the shared model, and
the registry merge is exact — so a sharded run's per-node outputs are
bitwise-equal to a single-process ``FleetMonitor`` over the same fleet
(pinned in ``tests/test_streaming_equivalence.py``).

``python -m repro serve --nodes N --shards K --port P`` boots one;
``docs/deployment.md`` is the operator's guide.
"""

from .config import FAULT_PRESETS, ServeConfig
from .daemon import FleetDaemon, train_model
from .merge import EventCollector, StreamHub
from .shard import QueueSink, ShardRunner, run_worker

__all__ = [
    "ServeConfig",
    "FAULT_PRESETS",
    "FleetDaemon",
    "train_model",
    "EventCollector",
    "StreamHub",
    "QueueSink",
    "ShardRunner",
    "run_worker",
]
