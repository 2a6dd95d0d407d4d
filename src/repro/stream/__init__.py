"""Streaming pipeline primitives: chunk records, stages, sinks.

The monitoring layer composes these into its ingest → calibrate → gate →
restore → attribute → sink pipeline (``repro.monitor.pipeline``); they
carry no monitor-specific state so other producers (the fleet front-end,
replayed logs) can reuse them.
"""

from .chunks import PowerChunk, chunk_spans
from .sinks import (
    JsonlSink,
    Sink,
    chunk_record,
    encode_record,
    end_run_record,
    iter_jsonl,
)
from .stages import RunContext, Stage, StreamPipeline

__all__ = [
    "PowerChunk",
    "chunk_spans",
    "RunContext",
    "Stage",
    "StreamPipeline",
    "Sink",
    "JsonlSink",
    "iter_jsonl",
    "chunk_record",
    "encode_record",
    "end_run_record",
]
