"""Sim-time metric series: the sampled pipeline over the registry.

:mod:`repro.obs.metrics` answers "how much, in total"; this module answers
"how much, *when*" -- the missing half of the paper's monitoring story.  A
:class:`SeriesSampler` is a simulation process that scrapes the metrics
registry every ``interval`` units of *virtual* time and appends the change
since the previous scrape to per-metric ring-buffer :class:`Series`:

* **counters** sample as per-interval *deltas* (``rate()`` divides by the
  interval); zero-delta intervals are omitted, so idle counters cost no
  points;
* **gauges** sample as ``(last, min, max)`` triples -- identical on raw
  scrapes, meaningful after :meth:`Series.downsample` folds several
  scrapes into one window;
* **histograms** sample as per-interval ``(count, sum, bucket-deltas)``
  rows.  Quantiles are *derived on demand* (:meth:`Series.quantile`,
  Prometheus-style linear interpolation inside the winning bucket) rather
  than stored, which is what keeps the merge exact: bucket rows add,
  whereas pre-computed quantiles have no valid merge.

Everything round-trips through plain dicts (a *bank*,
``{series key -> series dict}``): JSON-able for the flight recorder's
``series`` record (format ``sflow-flight-recorder/2``), picklable for
multiprocessing cells.  :func:`merge_banks` folds worker banks exactly the
way :func:`repro.obs.metrics.merge_snapshots` folds snapshots -- counter
and histogram points add at equal timestamps, gauges take the later write
-- and is deterministic in fold order, so a parallel sweep's folded series
are bit-identical to the serial sweep's (the eval tests assert it).

Like the rest of :mod:`repro.obs`, nothing here reads a wall clock or an
RNG; sample timestamps come from the injected clock (normally a
:class:`~repro.obs.trace.SimClock`).  The sampler is strictly opt-in --
with no sampler installed the pipeline costs nothing at all.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs import metrics as _metrics

__all__ = [
    "Series",
    "SeriesSampler",
    "bank_series",
    "merge_banks",
    "series_key",
]

#: A sample point.  Shape depends on the series kind:
#: counter ``(t, delta)``; gauge ``(t, last, min, max)``;
#: histogram ``(t, count, sum, [bucket deltas...])``.
Point = Tuple[Any, ...]

#: Default ring-buffer capacity per series (points, not bytes).
DEFAULT_CAPACITY = 4096


def series_key(metric: str, labels: str = "") -> str:
    """The bank key of one series: ``"metric|labels"`` (labels may be "")."""
    return f"{metric}|{labels}"


class Series:
    """One metric series over sim time, bounded by a ring buffer.

    Points are appended in non-decreasing time order (the sampler's scrape
    loop guarantees it); the oldest points fall off once ``capacity`` is
    reached, which bounds memory for arbitrarily long campaigns.
    """

    __slots__ = ("metric", "kind", "labels", "interval", "bounds", "_points")

    def __init__(
        self,
        metric: str,
        kind: str,
        labels: str = "",
        *,
        interval: float = 1.0,
        bounds: Optional[Sequence[float]] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown series kind {kind!r}")
        if interval <= 0:
            raise ValueError("series interval must be > 0")
        if kind == "histogram" and bounds is None:
            raise ValueError("histogram series need bucket bounds")
        self.metric = metric
        self.kind = kind
        self.labels = labels
        self.interval = interval
        self.bounds: Optional[Tuple[float, ...]] = (
            tuple(float(b) for b in bounds) if bounds is not None else None
        )
        self._points: Deque[Point] = deque(maxlen=capacity)

    @property
    def key(self) -> str:
        return series_key(self.metric, self.labels)

    def __len__(self) -> int:
        return len(self._points)

    def __bool__(self) -> bool:
        return True

    # -- appending ---------------------------------------------------------

    def append(self, point: Point) -> None:
        """Append one point (times must be non-decreasing)."""
        if self._points and point[0] < self._points[-1][0]:
            raise ValueError(
                f"series {self.key!r} time went backwards: "
                f"{point[0]} < {self._points[-1][0]}"
            )
        self._points.append(tuple(point))

    # -- reading -----------------------------------------------------------

    def points(self) -> List[Point]:
        return list(self._points)

    def times(self) -> List[float]:
        return [p[0] for p in self._points]

    def window(self, start: float, end: float) -> List[Point]:
        """Points with ``start < t <= end`` (half-open, newest inclusive)."""
        return [p for p in self._points if start < p[0] <= end]

    def values(self) -> List[float]:
        """Scalar view: counter deltas / gauge last values per point."""
        if self.kind == "histogram":
            raise ValueError("histogram series have no scalar values; "
                             "use quantile()/mean()")
        return [float(p[1]) for p in self._points]

    def rate(self) -> List[Tuple[float, float]]:
        """Counter series as ``(t, delta / interval)`` pairs."""
        if self.kind != "counter":
            raise ValueError(f"rate() needs a counter series, not {self.kind}")
        return [(p[0], float(p[1]) / self.interval) for p in self._points]

    def total(self) -> float:
        """Counter: sum of all deltas (the windowed counter total)."""
        if self.kind != "counter":
            raise ValueError(f"total() needs a counter series, not {self.kind}")
        return float(sum(p[1] for p in self._points))

    def latest(self) -> Optional[float]:
        """Gauge: the most recent last-value (None on an empty series)."""
        if self.kind != "gauge":
            raise ValueError(f"latest() needs a gauge series, not {self.kind}")
        return float(self._points[-1][1]) if self._points else None

    def minimum(self) -> Optional[float]:
        if self.kind != "gauge":
            raise ValueError(f"minimum() needs a gauge series, not {self.kind}")
        return min((float(p[2]) for p in self._points), default=None)

    def maximum(self) -> Optional[float]:
        if self.kind != "gauge":
            raise ValueError(f"maximum() needs a gauge series, not {self.kind}")
        return max((float(p[3]) for p in self._points), default=None)

    def _dist_window(
        self, window: Optional[float], now: Optional[float]
    ) -> Tuple[int, float, List[float]]:
        """Histogram helper: summed (count, sum, buckets) over a window."""
        if self.kind != "histogram" or self.bounds is None:
            raise ValueError("distribution stats need a histogram series")
        points: Iterable[Point] = self._points
        if window is not None:
            end = now if now is not None else (
                self._points[-1][0] if self._points else 0.0
            )
            points = self.window(end - window, end)
        count = 0
        total = 0.0
        buckets = [0.0] * (len(self.bounds) + 1)
        for point in points:
            count += int(point[1])
            total += float(point[2])
            for i, c in enumerate(point[3]):
                buckets[i] += c
        return count, total, buckets

    def mean(
        self, *, window: Optional[float] = None, now: Optional[float] = None
    ) -> Optional[float]:
        """Histogram: mean of observations (optionally window-bounded)."""
        count, total, _ = self._dist_window(window, now)
        return total / count if count else None

    def quantile(
        self,
        q: float,
        *,
        window: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Histogram quantile estimate from the bucket counts.

        Prometheus-style: find the bucket the target rank falls into and
        interpolate linearly between its bounds.  Ranks landing in the
        overflow bucket clamp to the last finite bound (the estimate
        cannot exceed what the buckets can resolve).  Returns ``None``
        when the window holds no observations.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        count, _, buckets = self._dist_window(window, now)
        if not count or self.bounds is None:
            return None
        target = q * count
        cumulative = 0.0
        for i, bucket_count in enumerate(buckets):
            previous = cumulative
            cumulative += bucket_count
            if cumulative < target or not bucket_count:
                continue
            if i >= len(self.bounds):
                return self.bounds[-1]  # overflow bucket: clamp
            hi = self.bounds[i]
            lo = self.bounds[i - 1] if i else 0.0
            return lo + (hi - lo) * ((target - previous) / bucket_count)
        return self.bounds[-1]

    # -- transforms --------------------------------------------------------

    def downsample(self, window: float) -> "Series":
        """Fold raw scrapes into ``window``-wide aggregate points.

        Counter deltas and histogram rows *add* within a window; gauges
        keep ``(last, min, max)`` over the window's scrapes.  Points are
        stamped at the end of their window (``ceil(t / window) * window``),
        so downsampling twice with the same window is idempotent.
        """
        if window <= 0:
            raise ValueError("downsample window must be > 0")
        out = Series(
            self.metric,
            self.kind,
            self.labels,
            interval=window,
            bounds=self.bounds,
            capacity=self._points.maxlen or DEFAULT_CAPACITY,
        )
        grouped: Dict[float, List[Point]] = {}
        order: List[float] = []
        for point in self._points:
            slot = -(-point[0] // window) * window  # ceil division
            if slot not in grouped:
                grouped[slot] = []
                order.append(slot)
            grouped[slot].append(point)
        for slot in order:
            bucket = grouped[slot]
            if self.kind == "counter":
                out.append((slot, sum(p[1] for p in bucket)))
            elif self.kind == "gauge":
                out.append(
                    (
                        slot,
                        bucket[-1][1],
                        min(p[2] for p in bucket),
                        max(p[3] for p in bucket),
                    )
                )
            else:
                counts = [0.0] * (len(self.bounds or ()) + 1)
                for p in bucket:
                    for i, c in enumerate(p[3]):
                        counts[i] += c
                out.append(
                    (
                        slot,
                        sum(int(p[1]) for p in bucket),
                        sum(float(p[2]) for p in bucket),
                        counts,
                    )
                )
        return out

    # -- plain-dict round trip ---------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "metric": self.metric,
            "kind": self.kind,
            "labels": self.labels,
            "interval": self.interval,
            "points": [list(p) for p in self._points],
        }
        if self.bounds is not None:
            record["bounds"] = list(self.bounds)
        return record

    @classmethod
    def from_dict(
        cls, record: Dict[str, Any], *, capacity: int = DEFAULT_CAPACITY
    ) -> "Series":
        series = cls(
            record["metric"],
            record["kind"],
            record.get("labels", ""),
            interval=record.get("interval", 1.0),
            bounds=record.get("bounds"),
            capacity=capacity,
        )
        for point in record.get("points", ()):
            series.append(tuple(point))
        return series


# -- bank algebra ------------------------------------------------------------


def bank_series(bank: Dict[str, dict], metric: str, labels: str = "") -> Optional[Series]:
    """Rebuild one :class:`Series` from a plain-dict bank (None if absent)."""
    record = bank.get(series_key(metric, labels))
    return Series.from_dict(record) if record is not None else None


def merge_banks(a: Dict[str, dict], b: Dict[str, dict]) -> Dict[str, dict]:
    """Fold two series banks: the series twin of ``merge_snapshots``.

    At equal timestamps counter deltas and histogram rows add and gauges
    take ``b``'s write (min/max still combine); distinct timestamps
    interleave in time order.  Histogram series with differing bucket
    bounds -- like snapshots -- refuse to merge rather than misalign.
    The fold is deterministic, so any fixed fold order over per-worker
    banks reproduces the serial fold bit for bit.
    """
    out = {key: _copy_series_record(record) for key, record in a.items()}
    for key, record in b.items():
        base = out.get(key)
        if base is None:
            out[key] = _copy_series_record(record)
            continue
        if base["kind"] != record["kind"]:
            raise ValueError(f"series {key!r} changed kind across banks")
        if base.get("bounds") != record.get("bounds"):
            raise ValueError(f"series {key!r} bucket bounds differ across banks")
        base["points"] = _merge_points(
            base["kind"], base["points"], [list(p) for p in record["points"]]
        )
    return out


def _merge_points(
    kind: str, left: List[list], right: List[list]
) -> List[list]:
    """Two-way time-ordered merge with pointwise combination at equal t."""
    out: List[list] = []
    i = j = 0
    while i < len(left) and j < len(right):
        ti, tj = left[i][0], right[j][0]
        if ti < tj:
            out.append(left[i])
            i += 1
        elif tj < ti:
            out.append(right[j])
            j += 1
        else:
            out.append(_combine_point(kind, left[i], right[j]))
            i += 1
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def _combine_point(kind: str, a: list, b: list) -> list:
    if kind == "counter":
        return [a[0], a[1] + b[1]]
    if kind == "gauge":
        return [a[0], b[1], min(a[2], b[2]), max(a[3], b[3])]
    return [
        a[0],
        a[1] + b[1],
        a[2] + b[2],
        [x + y for x, y in zip(a[3], b[3])],
    ]


def _copy_series_record(record: dict) -> dict:
    copied = dict(record)
    copied["points"] = [list(p) for p in record["points"]]
    if "bounds" in record:
        copied["bounds"] = list(record["bounds"])
    return copied


# -- the sampler -------------------------------------------------------------

#: Observers run after every scrape: ``hook(now, sampler)``.
SampleObserver = Callable[[float, "SeriesSampler"], None]


class SeriesSampler:
    """A sim process scraping registry deltas into ring-buffer series.

    Construction is cheap and does nothing; :meth:`install` registers the
    scrape loop as a process on the environment.  The loop parks itself
    when it would be the *only* remaining scheduled activity, so an
    otherwise-starved simulation still drains its queue (and surfaces the
    starvation) instead of being kept alive forever by its own telemetry.

    ``sample()`` can also be called manually -- the federation runtime
    takes one final manual sample at completion time so the tail of a run
    shorter than one interval is never lost.
    """

    def __init__(
        self,
        env: Optional[Any] = None,
        *,
        interval: float = 5.0,
        registry: Optional[_metrics.MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be > 0")
        if env is None and clock is None:
            raise ValueError("need an environment or an explicit clock")
        if clock is None:
            from repro.obs.trace import SimClock

            clock = SimClock(env)
        self.env = env
        self.interval = interval
        self.capacity = capacity
        self._clock = clock
        self._registry = registry if registry is not None else _metrics.registry()
        self._baseline = self._registry.snapshot()
        self._series: Dict[str, Series] = {}
        self._observers: List[SampleObserver] = []
        self._last_time: Optional[float] = None
        self.samples = 0

    # -- wiring ------------------------------------------------------------

    def add_observer(self, hook: SampleObserver) -> None:
        """Run ``hook(now, self)`` after every scrape (SLO engines attach
        here)."""
        self._observers.append(hook)

    @classmethod
    def start(cls, env: Any, interval: Optional[float]) -> "SeriesSampler":
        """A sampler scraping ``env`` every ``interval``, already installed;
        for ``interval=None`` the disabled one (no process, empty bank)."""
        if interval is None:
            return _DisabledSampler()
        sampler = cls(env, interval=interval)
        sampler.install()
        return sampler

    def install(self) -> Any:
        """Register the scrape loop as a process on the environment."""
        if self.env is None:
            raise ValueError("sampler has no environment to install on")
        return self.env.process(self._run())

    def _run(self) -> Any:  # sflow: noqa[SFL015] -- histogram-bounds drift mid-run is registry corruption; failing the scrape loudly is intended
        env = self.env
        while True:
            yield env.timeout(self.interval)
            self.sample()
            if env.peek() == float("inf"):
                # Nothing else is scheduled: scraping an idle simulation
                # forever would keep the event queue alive and mask
                # protocol starvation.  Park; a manual final sample still
                # captures anything a later completion adds.
                return

    # -- scraping ----------------------------------------------------------

    def sample(self) -> float:
        """Scrape once at the current clock time; returns that time."""
        now = self._clock()
        if self._last_time is not None and now == self._last_time:
            return now  # the final manual sample can coincide with a tick
        snapshot = self._registry.snapshot()
        delta = _metrics.diff_snapshots(snapshot, self._baseline)
        self._baseline = snapshot
        self._last_time = now
        self.samples += 1
        for name in sorted(delta):
            record = delta[name]
            kind = record["kind"]
            for labels in sorted(record["values"]):
                value = record["values"][labels]
                series = self._get_series(name, kind, labels, record)
                if kind == "counter":
                    series.append((now, value))
                elif kind == "gauge":
                    series.append((now, value, value, value))
                else:
                    series.append(
                        (
                            now,
                            value["count"],
                            value["sum"],
                            list(value["buckets"]),
                        )
                    )
        for hook in self._observers:
            hook(now, self)
        return now

    def _get_series(
        self, metric: str, kind: str, labels: str, record: dict
    ) -> Series:
        key = series_key(metric, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Series(
                metric,
                kind,
                labels,
                interval=self.interval,
                bounds=record.get("bounds"),
                capacity=self.capacity,
            )
        return series

    # -- reading -----------------------------------------------------------

    def series(self, metric: str, labels: str = "") -> Optional[Series]:
        return self._series.get(series_key(metric, labels))

    def keys(self) -> List[str]:
        return sorted(self._series)

    def bank(self) -> Dict[str, dict]:
        """The whole sampler as a plain-dict bank (JSON/pickle friendly)."""
        return {
            key: self._series[key].as_dict() for key in sorted(self._series)
        }

    def emit(self, sink: Any) -> None:
        """Write this sampler's bank as a ``series`` record to a recorder."""
        sink.emit(
            {
                "type": "series",
                "interval": self.interval,
                "series": self.bank(),
            }
        )

    def finish(self, sink: Optional[Any]) -> Dict[str, dict]:
        """One final manual scrape (the tail after the last tick), the bank
        emitted to ``sink`` when a recorder is attached, and returned."""
        self.sample()
        if sink is not None:
            self.emit(sink)
        return self.bank()


class _DisabledSampler(SeriesSampler):
    """``SeriesSampler.start(env, None)``: no registry baseline, no scrapes."""

    def __init__(self) -> None:
        pass

    def finish(self, sink: Optional[Any]) -> Dict[str, dict]:
        return {}
