"""Host speed: a small fixed probe timed between the work, to scale by.

The reference host's speed moves by up to 2x, over minutes and within
them (another tenant's load, not steal time: CPU time tracks wall time),
so a raw wall-clock metric moves with the moment it was taken in. The
benchmark therefore times :func:`probe_ms` every :data:`PROBE_EVERY_S` of
work, off the clock, and reports each timed interval at the reference
host's speed::

    reported = measured x reference probe time / mean probe time around it

where the probes around an interval are the last one before it, the
first one after it, and any taken within it (:meth:`HostSpeed.scale`).
Scaling each tick, scrape and round by the probes beside it, rather than
a whole run by its median probe, matters because the host's fast state
is bursty: scaled by a run's median probe, the slow bursts of a fast run
read as a slow program, in its tails most of all.

The probe does the kinds of work the program does — an interpreted loop,
small numpy calls, and text building — and nothing of the program
itself, so a change to the program moves the measured time and not the
probe. Not all work speeds up alike when the host does: between the
host's slow and fast states the loop sped up 1.65x, the numpy calls and
the text building 2.0-2.1x, the workloads' rounds 1.8-1.85x and building
a /metrics body 2.05-2.2x. So rounds, ticks and set-ups are scaled by
the whole probe, and scrapes, which build text, by its numpy and text
parts (:data:`SCRAPE_PARTS`).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

clock = time.perf_counter

#: Each part's median on the reference host (a 2-vCPU VM) in its slower
#: state, in ms; a timing taken at that speed is reported unchanged.
REF_MS = {"loop": 2.4, "numpy": 1.75, "text": 1.4}

#: The parts whose speed a scrape follows.
SCRAPE_PARTS = ("numpy", "text")

ALL_PARTS = tuple(REF_MS)

#: Work between two probes: a probe costs about a tenth of it.
PROBE_EVERY_S = 0.05

_A = np.linspace(0.0, 1.0, 64)
_B = np.linspace(1.0, 2.0, 64)


def _loop() -> None:
    acc = 0
    for i in range(25_000):
        acc += i * i % 7


def _numpy() -> None:
    a, b = _A, _B
    for _ in range(500):
        (a * b + a).sum()


def _text() -> None:
    "\n".join(f'repro_probe{{node="n{i % 64}",kind="{i % 7}"}} {i * 0.37:.6g}'
              for i in range(1_250))


_PARTS = {"loop": _loop, "numpy": _numpy, "text": _text}


def probe_ms() -> "dict[str, float]":
    """One probe: each part's time, in ms."""
    times = {}
    for name, part in _PARTS.items():
        start = clock()
        part()
        times[name] = 1e3 * (clock() - start)
    return times


class HostSpeed:
    """The probes of a run, each with the time it ended, in time order."""

    def __init__(self, samples=()) -> None:
        #: ``(end time, {part: ms})`` per probe
        self.samples: "list[tuple[float, dict[str, float]]]" = [
            (t, parts) for t, parts in samples]
        self.last = clock()

    def probe(self, times: int = 1) -> float:
        """Time ``times`` probes; returns how long they took, in seconds,
        so a caller can keep them off its clock."""
        start = clock()
        for _ in range(times):
            parts = probe_ms()
            self.samples.append((clock(), parts))
        self.last = clock()
        return self.last - start

    def probe_due(self) -> float:
        """Probe if :data:`PROBE_EVERY_S` passed since the last probe;
        returns the time that took (0 if none was due)."""
        if clock() - self.last < PROBE_EVERY_S:
            return 0.0
        return self.probe()

    def ms(self, parts=ALL_PARTS) -> float:
        """The median time of ``parts`` over every probe."""
        return statistics.median(sum(s[p] for p in parts)
                                 for _, s in self.samples)

    def scale(self, start: float, end: float, parts=ALL_PARTS) -> float:
        """Multiply the time of an interval from ``start`` to ``end`` by
        this to report it at the reference host's speed (divide a rate
        by it): reference time over the mean of the probes around it."""
        ends = [t for t, _ in self.samples]
        first = max(bisect.bisect_left(ends, start) - 1, 0)
        last = min(bisect.bisect_left(ends, end), len(ends) - 1)
        around = [sum(s[p] for p in parts)
                  for _, s in self.samples[first:last + 1]]
        return sum(REF_MS[p] for p in parts) / statistics.fmean(around)

    def scaled(self, intervals, parts=ALL_PARTS) -> "list[float]":
        """Each ``(start, duration)`` interval's duration, scaled."""
        return [d * self.scale(s, s + d, parts) for s, d in intervals]
