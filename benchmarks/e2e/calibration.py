"""Speed-normalised time: a reference kernel sampled beside the work.

The hosts this benchmark runs on change speed by a factor of 1.3 to 2 on
every time scale from milliseconds to minutes, so raw wall-clock numbers
of identical runs spread by 20-30 % (see README.md).  A
:class:`SpeedMeter` therefore runs a small **reference kernel** -- frozen
pure-Python code of this file, independent of the program under test, with
an instruction mix like the program's: dict and heap traffic, small frozen
dataclasses, tuple keys, sorting -- every ``PERIOD`` seconds from a
``SIGALRM`` timer while the benchmark works.  A measured interval is then
reported as

    (interval - time spent in kernel ticks inside it)
        x REFERENCE_SECONDS / mean duration of the ticks around it

i.e. in units of the kernel, scaled so that one kernel run counts as
``REFERENCE_SECONDS``.  On the build host's quiet moments the kernel takes
about that long, so the numbers read as milliseconds there.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Tuple

#: What one run of the reference kernel counts as.
REFERENCE_SECONDS = 0.0005
#: Seconds between kernel ticks (about 3 % of the time goes to them).
PERIOD = 0.02

_NODES = 3000


@dataclass(frozen=True)
class _Quality:
    bandwidth: float
    latency: float


def _graph() -> Dict[Tuple[str, int], Dict[Tuple[str, int], _Quality]]:
    """A fixed pseudo-random digraph, big enough to live outside the cache."""
    x = 12345

    def draw(modulus: int) -> int:
        nonlocal x
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        return x % modulus

    graph = {}
    for u in range(_NODES):
        out = {}
        for _ in range(6):
            v, bandwidth, latency = draw(_NODES), 10 + draw(90), 1 + draw(9)
            if v != u:
                out[("n", v)] = _Quality(float(bandwidth), float(latency))
        graph[("n", u)] = out
    return graph


_GRAPH = _graph()
_source = 0


def reference_kernel(pops: int = 75) -> int:
    """A bounded widest-path search from a source that moves every call."""
    global _source
    _source = (_source + 7) % _NODES
    start = ("n", _source)
    best = {start: _Quality(float("inf"), 0.0)}
    heap: List[Tuple[float, float, Tuple[str, int]]] = [(-float("inf"), 0.0, start)]
    done = set()
    while heap and len(done) < pops:
        negative_width, latency, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, link in sorted(_GRAPH[u].items()):
            candidate = _Quality(min(-negative_width, link.bandwidth), latency + link.latency)
            old = best.get(v)
            if old is None or (candidate.bandwidth, -candidate.latency) > (
                old.bandwidth, -old.latency
            ):
                best[v] = candidate
                heapq.heappush(heap, (-candidate.bandwidth, candidate.latency, v))
    return len(best)


class SpeedMeter:
    """Ticks the reference kernel from a timer between ``start`` and ``stop``.

    Use from the main thread only (Python runs signal handlers there).
    """

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._previous: Any = None
        self._running = False

    def _tick(self, _signum: int = 0, _frame: Any = None) -> None:
        started = perf_counter()
        reference_kernel()
        self._starts.append(started)
        self._ends.append(perf_counter())

    def start(self) -> None:
        self._tick()  # every interval has a tick before it
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._running = True

    def stop(self) -> None:
        """Stop ticking; harmless when not ticking."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._running = False

    @property
    def ticks(self) -> int:
        return len(self._starts)

    def median_tick(self) -> float:
        """Median kernel duration so far: how fast the host has been."""
        return statistics.median(e - s for s, e in zip(self._starts, self._ends))

    def normalised(self, start: float, end: float) -> float:
        """``end - start`` in reference seconds (see the module docstring).

        The local speed is the median duration of the ticks inside the
        interval and of the two nearest outside it (the median, because a
        tick now and then triggers a garbage collection of the program's
        heap and takes fifty times as long).
        """
        first = bisect_left(self._starts, start)
        last = bisect_right(self._starts, end)
        inside = [self._ends[i] - self._starts[i] for i in range(first, last)]
        around = list(inside)
        if first > 0:
            around.append(self._ends[first - 1] - self._starts[first - 1])
        if last < len(self._starts):
            around.append(self._ends[last] - self._starts[last])
        local = statistics.median(around)
        return (end - start - sum(inside)) * REFERENCE_SECONDS / local
