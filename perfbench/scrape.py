"""Open-loop scrapes: latency timed from each scrape's scheduled send time.

Scrapes are due at a fixed rate whatever the system does. A scrape that
cannot be sent on time because the previous one is still in flight is
sent late, and its latency still counts from when it was due, so a stall
shows in every scrape it delays.
How late the generator ran is recorded beside the latencies.

Run as a module, this file is the serve-wide scrape client: one process,
one connection at a time to ``/metrics``, until a line arrives on stdin::

    python3 -m perfbench.scrape HOST PORT RATE_HZ OFFSET_S LIMIT
"""

from __future__ import annotations

import http.client
import json
import math
import select
import sys
import time


class OpenLoop:
    """``limit`` scrapes, due every ``1 / rate_hz`` seconds from ``start``.

    A fixed count keeps the tail percentile's rank fixed: on a slower host
    a time-bound loop would take more samples and report a more extreme
    percentile.
    """

    def __init__(self, rate_hz: float, start: float, limit: int) -> None:
        self.period = 1.0 / rate_hz
        self.start = start
        self.limit = limit
        self.sent = 0
        self.latencies: "list[float]" = []
        #: when each timed scrape was due, beside its latency
        self.due_at: "list[float]" = []
        self.late: "list[float]" = []
        self.failed = 0

    @property
    def due(self) -> float:
        """When the next scrape is scheduled (never, once all were sent)."""
        if self.sent >= self.limit:
            return math.inf
        return self.start + self.sent * self.period

    def send(self, request, clock) -> None:
        """Send the next scrape now; ``request()`` returning False or
        raising ``OSError`` counts as a failed scrape."""
        due = self.due
        self.sent += 1
        sent_at = clock()
        try:
            ok = request() is not False
        except OSError:
            ok = False
        done = clock()
        self.late.append(max(sent_at - due, 0.0))
        if ok:
            self.latencies.append(done - due)
            self.due_at.append(due)
        else:
            self.failed += 1

    def run(self, request, stop, clock=time.perf_counter,
            sleep=time.sleep) -> None:
        """Send scrapes on schedule until all were sent or ``stop()``."""
        while self.sent < self.limit and not stop():
            wait = self.due - clock()
            if wait > 0:
                sleep(wait)
                continue
            self.send(request, clock)


def _scrape(host: str, port: int, sizes: list, series: list):
    def request() -> bool:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            return False
        sizes.append(len(body))
        series.append(sum(1 for line in body.splitlines()
                          if line and not line.startswith(b"#")))
        return True
    return request


def main(argv: "list[str]") -> int:
    host, port = argv[0], int(argv[1])
    rate, offset, limit = float(argv[2]), float(argv[3]), int(argv[4])
    sizes: "list[int]" = []
    series: "list[int]" = []
    loop = OpenLoop(rate, time.perf_counter() + offset, limit)

    def stop() -> bool:
        return bool(select.select([sys.stdin], [], [], 0)[0])

    def sleep(seconds: float) -> None:
        select.select([sys.stdin], [], [], seconds)  # wakes on stop

    loop.run(_scrape(host, port, sizes, series), stop, sleep=sleep)
    json.dump({
        "latencies_s": loop.latencies, "due_s": loop.due_at,
        "late_s": loop.late,
        "failed": loop.failed, "sent": loop.sent,
        "bytes": sizes, "series": series,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
