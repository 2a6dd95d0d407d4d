"""Stdlib-only HTTP scrape surface for the fleet daemon.

Three endpoints on a :class:`~http.server.ThreadingHTTPServer`:

``GET /metrics``
    Merged Prometheus exposition: every shard's registry snapshot plus
    the daemon's own ``repro_serve_*`` registry, folded through
    :func:`repro.obs.merge_snapshots`.
``GET /healthz``
    JSON: daemon status plus per-shard, per-node health states (the
    :mod:`repro.monitor.resilience` vocabulary). 503 when a shard died.
``GET /stream``
    ndjson of live chunk / run-boundary records (the
    :class:`~repro.stream.JsonlSink` wire shape), HTTP/1.0 close-at-end;
    the connection closes cleanly once the daemon drains.

Handlers only *read* daemon state assembled by the merge collector, so a
slow scrape never blocks a shard.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServeHandler(BaseHTTPRequestHandler):
    """Routes the three endpoints; anything else is a 404."""

    #: HTTP/1.0 keeps /stream simple: no chunked framing, close delimits.
    protocol_version = "HTTP/1.0"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (the daemon has metrics)."""

    @property
    def daemon(self):
        return self.server.fleet_daemon

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            self._count(path)
            self._reply(200, PROM_CONTENT_TYPE, self.daemon.metrics_text())
        elif path == "/healthz":
            self._count(path)
            payload = self.daemon.healthz()
            status = 503 if payload["status"] == "failed" else 200
            self._reply(status, "application/json",
                        json.dumps(payload, indent=2) + "\n")
        elif path == "/stream":
            self._count(path)
            self._stream()
        else:
            self._reply(404, "text/plain", f"no such endpoint: {path}\n")

    def _count(self, path: str) -> None:
        self.daemon.registry.counter(
            "repro_serve_scrapes_total",
            "HTTP requests served by endpoint.", ("endpoint",),
        ).labels(endpoint=path).inc()

    def _reply(self, status: int, content_type: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _stream(self) -> None:
        hub = self.daemon.hub
        q = hub.subscribe()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.end_headers()
            while True:
                line = q.get()
                if line is None:  # daemon drained: clean end of stream
                    break
                self.wfile.write(line + b"\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up but the sub
        finally:
            hub.unsubscribe(q)


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference back to the daemon."""

    daemon_threads = True  # stuck /stream clients never pin shutdown

    def __init__(self, address, fleet_daemon) -> None:
        super().__init__(address, ServeHandler)
        self.fleet_daemon = fleet_daemon
