"""Merge side of the daemon: event collector and the /stream hub.

The :class:`EventCollector` drains each shard's own event channel on a
thread of its own and fans everything out: each stream record is encoded
once, by the compiled :func:`repro.stream.encode_record`, and the same
bytes go to the :class:`StreamHub` (live ``/stream`` clients) and the
optional ndjson file; registry snapshots and health states are kept per
shard for ``/metrics`` and ``/healthz``, and each event's queue transit
time lands in the ``repro_serve_merge_latency_seconds`` histogram — the
merge-sink latency perfbench reports as ``serve.merge_latency_ms_mean``.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from pathlib import Path

from ..stream import encode_record

#: Merge-sink latency buckets: queue transit is sub-millisecond in-process
#: and single-digit milliseconds across a loaded multiprocessing queue.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.5, 1.0,
)

#: Per-client buffer for /stream; a slow client drops records (counted)
#: rather than stalling the merge loop.
STREAM_QUEUE_DEPTH = 4096

#: Records replayed to a client that connects mid-flight (must be <=
#: STREAM_QUEUE_DEPTH so the replay itself can never overflow a client).
REPLAY_DEPTH = 1024


class StreamHub:
    """Broadcasts ndjson lines to every connected ``/stream`` client.

    Subscribers get a bounded queue of encoded lines (bytes without the
    newline); ``None`` is the end-of-stream sentinel (daemon drained). A
    late subscriber first receives the last :data:`REPLAY_DEPTH` records,
    so scraping after the fleet already ticked still yields a coherent
    tail. Publishing never blocks: a full client queue drops the record
    and bumps
    ``repro_serve_stream_dropped_total``.
    """

    def __init__(self, registry, replay_depth: int = REPLAY_DEPTH) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self._subscribers: "list[queue.Queue]" = []
        self._replay: "deque[bytes]" = deque(maxlen=replay_depth)
        self._closed = False

    def subscribe(self) -> "queue.Queue":
        q = queue.Queue(maxsize=STREAM_QUEUE_DEPTH)
        with self._lock:
            for line in self._replay:
                q.put_nowait(line)  # replay <= queue depth, cannot overflow
            if self._closed:
                q.put_nowait(None)
                return q
            self._subscribers.append(q)
        self._clients_gauge()
        return q

    def unsubscribe(self, q) -> None:
        with self._lock:
            if q in self._subscribers:
                self._subscribers.remove(q)
        self._clients_gauge()

    def _clients_gauge(self) -> None:
        with self._lock:
            n = len(self._subscribers)
        self._registry.gauge(
            "repro_serve_stream_clients", "Connected /stream clients."
        ).set(float(n))

    def publish(self, line: bytes) -> None:
        """Broadcast one encoded ndjson line (no trailing newline)."""
        with self._lock:
            self._replay.append(line)
            subscribers = list(self._subscribers)
        for q in subscribers:
            try:
                q.put_nowait(line)
            except queue.Full:
                self._registry.counter(
                    "repro_serve_stream_dropped_total",
                    "Records dropped on a slow /stream client.",
                ).inc()

    def close(self) -> None:
        """End of stream: every client gets the sentinel, new ones too."""
        with self._lock:
            self._closed = True
            subscribers = list(self._subscribers)
        for q in subscribers:
            try:
                q.put_nowait(None)
            except queue.Full:
                pass  # client was hopeless anyway; its reader will EOF


class EventCollector:
    """Drains shard events until every shard reported ``done``.

    :meth:`run` is the thread target for one event channel. The daemon
    gives every shard a channel of its own, so that a shard process killed
    in the middle of a send (holding its channel's write lock, or leaving
    half a message in the pipe) stalls only its own channel's thread; the
    daemon then posts that shard's ``error`` and ``done`` through
    :meth:`dispatch`. Events are dispatched one at a time under a lock;
    the HTTP handlers only read the collected structures whole.
    """

    def __init__(self, registry, hub: StreamHub, n_shards: int,
                 ndjson: "str | None" = None,
                 keep_results: bool = False) -> None:
        self.registry = registry
        self.hub = hub
        self.n_shards = n_shards
        self.ndjson = ndjson
        self.keep_results = keep_results
        #: latest ("state", ...) payload per shard id
        self.shard_states: "dict[int, dict]" = {}
        #: {node_id: [MonitorResult per round]} when keep_results
        self.results: "dict[str, list]" = {}
        self.done: "set[int]" = set()
        self.errors: "dict[int, str]" = {}
        #: set once every shard is done and the outputs are closed
        self.finished = threading.Event()
        self._lock = threading.Lock()
        self._fh = None
        self._events_counter = registry.counter(
            "repro_serve_events_total",
            "Shard events drained by the merge collector.", ("kind",),
        )
        self._latency = registry.histogram(
            "repro_serve_merge_latency_seconds",
            "Shard-to-collector queue transit time.",
            buckets=LATENCY_BUCKETS,
        )

    # ------------------------------------------------------------ events
    def run(self, events, shard: int) -> None:
        """Thread target: drain shard ``shard``'s ``events`` until that
        shard is done or the collector has finished.

        One blocking ``get`` per event. Draining in batches (a blocking
        ``get``, then ``get_nowait`` until the queue is momentarily empty)
        was no better: on traced perfbench serve-wide (2-vCPU VM, five
        runs each) the mean merge latency's median was 766 ms batched and
        412 ms with one ``get`` per event, the runs of each spreading
        over hundreds of milliseconds.
        """
        while not self.finished.is_set() and shard not in self.done:
            self.dispatch(events.get())

    def dispatch(self, event) -> None:
        """Take one shard event; the last shard's ``done`` closes the
        ndjson file and ends every ``/stream``. Events that arrive after
        that (a dead shard's leftovers) are dropped."""
        with self._lock:
            if self.finished.is_set():
                return
            self._dispatch(event)
            if len(self.done) == self.n_shards:
                self._finalize()
                self.finished.set()

    def _dispatch(self, event) -> None:
        kind = event[0]
        self._events_counter.labels(kind=kind).inc()
        if kind in ("chunk", "end_run"):
            _, _, t_emit, record = event
            self._latency.observe(max(time.monotonic() - t_emit, 0.0))
            # One encode per record: /stream and the ndjson file carry the
            # same line.
            line = encode_record(record)
            self.hub.publish(line)
            self._persist(line)
        elif kind == "state":
            _, shard, t_emit, payload = event
            self._latency.observe(max(time.monotonic() - t_emit, 0.0))
            self.shard_states[shard] = payload
        elif kind == "result":
            _, _, node_id, _round, result = event
            if self.keep_results:
                self.results.setdefault(node_id, []).append(result)
        elif kind == "error":
            _, shard, message = event
            self.errors[shard] = message
        elif kind == "done":
            self.done.add(event[1])

    def _persist(self, line: bytes) -> None:
        if self.ndjson is None:
            return
        if self._fh is None:
            self._fh = Path(self.ndjson).open("ab")
        self._fh.write(line + b"\n")
        self._fh.flush()

    def _finalize(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self.hub.close()
