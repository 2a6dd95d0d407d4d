"""Injectable clocks for the observability layer.

The numeric packages (``core``/``ml``/``interp``) are pure functions of
their inputs and seeds — RL003 bans wall-clock reads there — yet the
observability layer must measure durations somewhere. The resolution is
dependency injection: everything in :mod:`repro.obs` that can time work
takes a ``clock`` argument satisfying :class:`Clock` (any zero-argument
callable returning monotonically non-decreasing seconds) and records no
duration at all when none is given. Wall-clock access is confined to
:func:`system_clock`, which the orchestration layer (``monitor``)
injects; deterministic tests inject a :class:`ManualClock` and advance it
by hand.
"""

from __future__ import annotations

import time
from typing import Callable, Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """A monotonic time source: call it, get seconds as a float."""

    def __call__(self) -> float: ...


def system_clock() -> Callable[[], float]:
    """The process-wide monotonic clock (``time.perf_counter``).

    Returned as a value rather than called at import time so that merely
    importing :mod:`repro.obs` never touches a clock.
    """
    return time.perf_counter


class ManualClock:
    """A deterministic clock for tests and simulations.

    Starts at ``start`` seconds and only moves when :meth:`advance` is
    called, so any duration measured against it is an exact function of
    the test script.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward; negative steps are rejected."""
        if seconds < 0:
            raise ValueError("ManualClock cannot run backwards")
        self._now += float(seconds)

    @property
    def now(self) -> float:
        return self._now
