"""Monitor-side sink implementations for the streaming pipeline.

The service keeps no restored samples itself: a caller that reads logs
afterwards (an operator report, a test) attaches a :class:`MemoryLogSink`
through ``PowerMonitorService(sinks=...)``.
"""

from __future__ import annotations

import numpy as np

from ..core.highrpm import PROV_MEASURED, PROV_MODEL_ONLY, PROV_RESTORED
from ..errors import ValidationError
from ..stream import PowerChunk, Sink


class MonitorLog:
    """Accumulated restored estimates for one node.

    Chunks are accumulated in per-channel lists and consolidated lazily on
    first read, so logging R runs costs O(total samples).
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.runs: list[str] = []
        self.modes: list[str] = []
        self._parts: "dict[str, list[np.ndarray]]" = {
            "p_node": [], "p_cpu": [], "p_mem": [], "p_gpu": [],
            "provenance": [],
        }
        self._n = 0

    # ------------------------------------------------- chunked ingestion
    def append_chunk(self, chunk: PowerChunk) -> None:
        """Append one restored chunk's channels (no run boundary).

        :class:`MemoryLogSink` calls this per finished chunk;
        :meth:`end_run` closes the run.
        """
        n = int(chunk.p_node.shape[0])
        checks = [("p_cpu", chunk.p_cpu), ("p_mem", chunk.p_mem)]
        if chunk.p_gpu is not None:
            checks.append(("p_gpu", chunk.p_gpu))
        for name, arr in checks:
            got = 0 if arr is None else int(arr.shape[0])
            if got != n:
                raise ValidationError(
                    f"monitor result is inconsistent: {name} has "
                    f"{got} samples, p_node has {n}"
                )
        prov = chunk.provenance
        if prov is None:
            prov = np.full(n, PROV_RESTORED, dtype=np.uint8)
        elif prov.shape[0] != n:
            raise ValidationError(
                f"monitor result is inconsistent: provenance has "
                f"{prov.shape[0]} samples, p_node has {n}"
            )
        self._parts["p_node"].append(np.asarray(chunk.p_node, dtype=np.float64))
        self._parts["p_cpu"].append(np.asarray(chunk.p_cpu, dtype=np.float64))
        self._parts["p_mem"].append(np.asarray(chunk.p_mem, dtype=np.float64))
        # CPU-only chunks log zero accelerator power, keeping every channel
        # aligned sample-for-sample across heterogeneous fleets.
        self._parts["p_gpu"].append(
            np.zeros(n) if chunk.p_gpu is None
            else np.asarray(chunk.p_gpu, dtype=np.float64)
        )
        self._parts["provenance"].append(prov.astype(np.uint8))
        self._n += n

    def end_run(self, workload: str, mode: str) -> None:
        """Record a run boundary after its chunks were appended."""
        self.runs.append(workload)
        self.modes.append(mode)

    # ---------------------------------------------------- lazy read side
    def _channel(self, name: str) -> np.ndarray:
        parts = self._parts[name]
        if not parts:
            return np.empty(0, dtype=np.uint8 if name == "provenance"
                            else np.float64)
        if len(parts) > 1:  # consolidate once; later appends re-extend
            self._parts[name] = parts = [np.concatenate(parts)]
        return parts[0]

    @property
    def p_node(self) -> np.ndarray:
        return self._channel("p_node")

    @property
    def p_cpu(self) -> np.ndarray:
        return self._channel("p_cpu")

    @property
    def p_mem(self) -> np.ndarray:
        return self._channel("p_mem")

    @property
    def p_gpu(self) -> np.ndarray:
        """Accelerator channel (all-zero for CPU-only device classes)."""
        return self._channel("p_gpu")

    @property
    def provenance(self) -> np.ndarray:
        return self._channel("provenance")

    def __len__(self) -> int:
        return self._n

    @property
    def model_only_mask(self) -> np.ndarray:
        """True where the logged estimate ran without a usable IM anchor."""
        return self.provenance == PROV_MODEL_ONLY

    def model_only_fraction(self) -> float:
        """Share of logged samples produced without IM backing."""
        if len(self) == 0:
            return 0.0
        return float(self.model_only_mask.mean())

    def summary(self) -> "dict[str, object]":
        """Headline counters for one node's log (runs, sample provenance)."""
        prov = self.provenance
        return {
            "node_id": self.node_id,
            "runs": len(self.runs),
            "samples": len(self),
            "measured": int((prov == PROV_MEASURED).sum()),
            "restored": int((prov == PROV_RESTORED).sum()),
            "model_only": int((prov == PROV_MODEL_ONLY).sum()),
            "model_only_fraction": self.model_only_fraction(),
        }


class MemoryLogSink(Sink):
    """Keeps every node's finished chunks in an in-memory ``MonitorLog``.

    One sink serves the whole fleet: a node's log is created on its first
    chunk or run boundary. It holds every restored sample for as long as
    the sink lives, so only callers that read the logs attach it.
    """

    def __init__(self) -> None:
        self._logs: "dict[str, MonitorLog]" = {}

    def _log_for(self, node_id: str) -> MonitorLog:
        log = self._logs.get(node_id)
        if log is None:
            log = self._logs[node_id] = MonitorLog(node_id)
        return log

    def log(self, node_id: str) -> MonitorLog:
        """The log of one node that has reached this sink."""
        try:
            return self._logs[node_id]
        except KeyError:
            raise ValidationError(
                f"unknown node {node_id!r}: no chunk of it reached this sink"
            ) from None

    def write(self, chunk: PowerChunk) -> None:
        self._log_for(chunk.node_id).append_chunk(chunk)

    def end_run(self, node_id: str, workload: str, mode: str) -> None:
        self._log_for(node_id).end_run(workload, mode)
