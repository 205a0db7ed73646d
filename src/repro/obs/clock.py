"""Injectable host-time measurement: the :class:`Stopwatch`.

Protocol and simulation code (``repro.sim`` / ``repro.core``) is banned
from reading wall clocks directly -- nothing it imports short of
``repro.obs`` imports ``time`` (``tests/test_packaging.py``) -- because
an ambient ``time.perf_counter()`` call hard-wires host timing into code
whose *results* must be pure functions of the DES clock and the inputs.  The
one legitimate use of host time there is *measuring our own compute
cost* (the solver-timing columns of Fig. 10(b)), and that goes through a
:class:`Stopwatch`:

* the clock is an injected callable, so tests substitute a scripted fake
  and assert exact elapsed values instead of sleeping;
* the default is :data:`PERF_CLOCK` (``time.perf_counter``), the highest
  resolution monotonic counter the host offers;
* readings are only meaningful as differences -- the absolute value is
  unspecified, exactly like ``perf_counter`` itself.

Typical use::

    sw = Stopwatch()                  # or Stopwatch(clock=fake) in tests
    t0 = sw.read()
    ...work...
    elapsed = sw.read() - t0

or, for a single interval::

    with sw.measure() as lap:
        ...work...
    report(lap.seconds)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = ["ClockFn", "PERF_CLOCK", "Lap", "Stopwatch"]

#: A clock is any zero-argument callable returning seconds as a float.
ClockFn = Callable[[], float]

#: The default host clock: monotonic, high resolution, differences-only.
PERF_CLOCK: ClockFn = time.perf_counter


class Lap:
    """One measured interval; ``seconds`` is final once the lap ends."""

    __slots__ = ("_clock", "_start", "seconds")

    def __init__(self, clock: ClockFn) -> None:
        self._clock = clock
        self._start = clock()
        self.seconds = 0.0

    def stop(self) -> float:
        """Freeze and return the elapsed time (idempotent takes the last)."""
        self.seconds = self._clock() - self._start
        return self.seconds


class Stopwatch:
    """Interval timer over an injectable clock.

    Cheap enough to construct per federation run; sharing one across a
    run keeps every measurement on the same clock, which is what makes a
    scripted fake clock in tests line up with the call sites.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock: Optional[ClockFn] = None) -> None:
        self._clock = PERF_CLOCK if clock is None else clock

    def read(self) -> float:
        """The current clock value; subtract two reads for an interval."""
        return self._clock()

    @contextmanager
    def measure(self) -> Iterator[Lap]:
        """``with sw.measure() as lap:`` -- ``lap.seconds`` after the block."""
        lap = Lap(self._clock)
        try:
            yield lap
        finally:
            lap.stop()
