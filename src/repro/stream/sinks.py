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

import orjson

from .chunks import PowerChunk


def chunk_record(chunk: PowerChunk) -> dict:
    """The canonical JSON-safe record for one finished chunk.

    This is the wire shape shared by :class:`JsonlSink` files and the
    service daemon's ``/stream`` ndjson endpoint, both written by
    :func:`encode_record`. The arrays travel as Python float lists, each
    finite ``float64`` printed in shortest round-trip form, so it reads
    back bitwise; a non-finite value (NaN, ±inf) is written as JSON
    ``null``.
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


def encode_record(record: dict) -> bytes:
    """The compact ndjson line of one stream record, without the newline.

    The one encoder of the wire shape (:class:`JsonlSink`, the daemon's
    collector, ``/stream``). It is :func:`json.dumps` with
    ``separators=(",", ":")`` byte for byte on strings of ASCII characters
    other than DEL, 64-bit integers, and floats with ``1e-4 <= |x| < 1e16``
    or ``±0.0``. Outside that range a float is spelled differently
    (``0.00001``, ``1e16``) but still round-trips bitwise, and a
    non-finite float is ``null`` rather than the non-standard ``NaN``.
    """
    return orjson.dumps(record)


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

    Run boundaries are ``{"event": "end_run", ...}`` records. Each line is
    :func:`encode_record`'s, byte for byte the daemon's ``/stream`` line
    for the same record. The file is opened lazily on the first write and
    flushed per record, so a tail of the file is always parseable.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None

    def _handle(self):
        if self._fh is None:
            self._fh = self.path.open("ab")
        return self._fh

    def _emit(self, record: dict) -> None:
        fh = self._handle()
        fh.write(encode_record(record) + b"\n")
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
