"""Chunk records flowing through the streaming monitor pipeline.

A :class:`PowerChunk` is one contiguous span of one node's run. Stages
enrich it in place as it moves down the pipeline: ingest attaches the PMC
rows, restore fills ``p_node`` (and, for the static path, may re-span the
chunk — Algorithm-1 holds reach half a miss-interval back, so restored
spans lag ingested spans), attribute fills ``p_cpu``/``p_mem``, sinks
persist it. Spans always tile ``[0, n)`` of the run exactly and arrive in
trace order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


@dataclass
class PowerChunk:
    """One contiguous span ``[start, stop)`` of one monitored run."""

    node_id: str
    workload: str
    start: int
    stop: int
    #: chunk ordinal within the run (0-based, in trace order).
    seq: int = 0
    #: True on the run's last chunk — stages flush their tails into it.
    final: bool = False
    #: restoration mode ("static" / "dynamic" / "model_only"); set by the
    #: restore stage, empty before it.
    mode: str = ""
    pmcs: "np.ndarray | None" = None
    p_node: "np.ndarray | None" = None
    p_cpu: "np.ndarray | None" = None
    p_mem: "np.ndarray | None" = None
    #: accelerator component power; only filled by three-way attribution
    #: heads (GPU device classes), None on CPU-only nodes.
    p_gpu: "np.ndarray | None" = None
    provenance: "np.ndarray | None" = None

    @property
    def n_samples(self) -> int:
        return int(self.stop - self.start)

    def __len__(self) -> int:
        return self.n_samples


def chunk_spans(n: int, chunk_size: "int | None") -> "list[tuple[int, int]]":
    """The ``[start, stop)`` spans tiling an ``n``-sample run.

    ``chunk_size=None`` means one whole-run chunk (the compatibility path).
    An empty run yields no spans.
    """
    if chunk_size is None:
        chunk_size = max(n, 1)
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    return [(s, min(s + chunk_size, n)) for s in range(0, n, chunk_size)]
