"""Pluggable sinks: where fully-restored chunks go.

The service keeps no restored samples itself; its sinks decide where they
go. :class:`JsonlSink` here streams them to an append-only JSONL file, so
a long-lived service can persist restored traces without holding them;
the opt-in in-memory log (:class:`~repro.monitor.sinks.MemoryLogSink`)
keeps them for callers that read them back. A sink sees every finished chunk in trace order via ``write`` and a
run boundary via ``end_run``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .chunks import PowerChunk


def chunk_record(chunk: PowerChunk) -> dict:
    """The canonical JSON-safe record for one finished chunk.

    This is the wire shape shared by :class:`JsonlSink` files and the
    service daemon's ``/stream`` ndjson endpoint — float lists round-trip
    ``float64`` bitwise through ``repr``-based JSON encoding.
    """
    return {
        "event": "chunk",
        "node_id": chunk.node_id,
        "workload": chunk.workload,
        "start": int(chunk.start),
        "stop": int(chunk.stop),
        "seq": int(chunk.seq),
        "mode": chunk.mode,
        "p_node": [] if chunk.p_node is None else chunk.p_node.tolist(),
        "p_cpu": [] if chunk.p_cpu is None else chunk.p_cpu.tolist(),
        "p_mem": [] if chunk.p_mem is None else chunk.p_mem.tolist(),
        "p_gpu": [] if chunk.p_gpu is None else chunk.p_gpu.tolist(),
        "provenance": (
            [] if chunk.provenance is None
            else chunk.provenance.astype(int).tolist()
        ),
    }


def end_run_record(node_id: str, workload: str, mode: str) -> dict:
    """The canonical run-boundary record (follows a run's last chunk)."""
    return {
        "event": "end_run",
        "node_id": node_id,
        "workload": workload,
        "mode": mode,
    }


class Sink:
    """Receives fully-processed chunks from the pipeline's sink stage."""

    def write(self, chunk: PowerChunk) -> None:
        raise NotImplementedError

    def end_run(self, node_id: str, workload: str, mode: str) -> None:
        """Called once per run after its last chunk was written."""

    def close(self) -> None:
        """Release any held resources (files, connections)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JsonlSink(Sink):
    """Append-only JSONL persistence: one record per chunk / run boundary.

    Chunk records carry the restored arrays as plain lists::

        {"event": "chunk", "node_id": ..., "workload": ..., "start": ...,
         "stop": ..., "seq": ..., "mode": ..., "p_node": [...],
         "p_cpu": [...], "p_mem": [...], "provenance": [...]}

    Run boundaries are ``{"event": "end_run", ...}`` records. The file is
    opened lazily on the first write and flushed per record, so a tail of
    the file is always parseable.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None

    def _handle(self):
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        return self._fh

    def _emit(self, record: dict) -> None:
        fh = self._handle()
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        fh.flush()

    def write(self, chunk: PowerChunk) -> None:
        self._emit(chunk_record(chunk))

    def end_run(self, node_id: str, workload: str, mode: str) -> None:
        self._emit(end_run_record(node_id, workload, mode))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def iter_jsonl(path):
    """Yield the records of a JSONL sink file (tests and offline analysis)."""
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
