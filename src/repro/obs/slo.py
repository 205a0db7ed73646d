"""Declarative SLOs with burn-rate alerting over sim-time series.

The paper's agility claim is conditional: sFlow re-federates *when the
monitor decides service quality has degraded*.  This module gives that
decision a declarative form.  An :class:`SloSpec` names a metric series, a
way to read it (``field``), and an objective (``delivered-bandwidth
fraction >= 0.5``, ``federation latency p95 <= 600``); an
:class:`SloEngine` evaluates every spec each time the
:class:`~repro.obs.timeseries.SeriesSampler` scrapes, using the standard
SRE burn-rate model:

    ``error_rate``  = violating samples / samples in the trailing window
    ``burn_rate``   = ``error_rate / error_budget``
    alert *firing*  = ``burn_rate >= burn_rate_threshold``

Alerts are edge-triggered: one ``slo.alert`` event when a spec starts
firing, one ``slo.alert.resolved`` when it stops, both stamped in sim
time and written to the active flight recording.  The engine also keeps
``slo.*`` metrics (evaluations, burn rates, alert count) so SLO health is
itself observable, and :func:`replay` re-runs any spec set offline over a
recorded series bank -- which is how ``sflow-trace report`` grades
recordings made before (or without) a runtime engine.

Evaluation is pure sim-time arithmetic over series points -- no wall
clock, no RNG -- so serial and parallel campaigns grade identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.obs import metrics as _metrics
from repro.obs.timeseries import Series, series_key

__all__ = [
    "DEFAULT_SLOS",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "replay",
]

#: ``field`` values addressing scalar reads of a series.
_SCALAR_FIELDS = ("value", "delta", "rate", "total")


def _quantile_of(field: str) -> Optional[float]:
    """``"p95" -> 0.95``; ``None`` when the field is not a quantile."""
    if len(field) >= 2 and field[0] == "p" and field[1:].isdigit():
        return int(field[1:]) / 100.0
    return None


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a metric series.

    ``field`` selects how the series is read each evaluation:

    ========= ========== =================================================
    field      series     samples checked against the objective
    ========= ========== =================================================
    ``value``  gauge      each sampled value in the window
    ``delta``  counter    each per-interval delta in the window (0 if none)
    ``rate``   counter    each per-interval delta / interval
    ``total``  counter    the all-time running total (one sample)
    ``mean``   histogram  mean of window observations (one sample)
    ``pNN``    histogram  NN-th percentile of window observations (one)
    ========= ========== =================================================

    A counter series that is absent (nothing ever incremented) reads as a
    single ``0.0`` sample -- absence of errors satisfies an error-budget
    objective.  Absent gauge/histogram series yield no samples and the
    spec simply isn't evaluated yet.
    """

    name: str
    metric: str
    objective: str  # ">=" or "<="
    threshold: float
    field: str = "value"
    labels: str = ""
    window: float = 50.0
    error_budget: float = 0.1
    burn_rate_threshold: float = 2.0
    min_samples: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SloSpec needs a name")
        if self.objective not in (">=", "<="):
            raise ValueError(
                f"SLO {self.name!r}: objective must be '>=' or '<=', "
                f"got {self.objective!r}"
            )
        if self.field not in _SCALAR_FIELDS + ("mean",) and (
            _quantile_of(self.field) is None
        ):
            raise ValueError(f"SLO {self.name!r}: unknown field {self.field!r}")
        if self.window <= 0:
            raise ValueError(f"SLO {self.name!r}: window must be > 0")
        if not (0.0 < self.error_budget <= 1.0):
            raise ValueError(
                f"SLO {self.name!r}: error_budget must be in (0, 1]"
            )
        if self.burn_rate_threshold <= 0:
            raise ValueError(
                f"SLO {self.name!r}: burn_rate_threshold must be > 0"
            )
        if self.min_samples < 1:
            raise ValueError(f"SLO {self.name!r}: min_samples must be >= 1")

    def good(self, value: float) -> bool:
        """Does one sample satisfy the objective?"""
        if self.objective == ">=":
            return value >= self.threshold
        return value <= self.threshold

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "objective": self.objective,
            "threshold": self.threshold,
            "field": self.field,
            "labels": self.labels,
            "window": self.window,
            "error_budget": self.error_budget,
            "burn_rate_threshold": self.burn_rate_threshold,
            "min_samples": self.min_samples,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "SloSpec":
        return cls(**{k: record[k] for k in record if k in cls.__dataclass_fields__})


@dataclass
class SloStatus:
    """The result of evaluating one spec at one sample time."""

    slo: str
    time: float
    samples: int
    value: Optional[float]
    ok: bool
    error_rate: float
    burn_rate: float
    firing: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "time": self.time,
            "samples": self.samples,
            "value": self.value,
            "ok": self.ok,
            "error_rate": self.error_rate,
            "burn_rate": self.burn_rate,
            "firing": self.firing,
        }


class SeriesProvider(Protocol):
    """Anything that can look a series up -- a live sampler or a bank view."""

    def series(self, metric: str, labels: str = "") -> Optional[Series]:
        ...


class _EventClock:
    """A sim-kind clock pinned to the evaluation timestamp."""

    kind = "sim"
    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SloEngine:
    """Evaluates a spec set against a series provider, sample by sample.

    Attach to a sampler with ``sampler.add_observer(engine.observe)``; or
    drive it manually (``engine.observe(now, provider)``) as
    :func:`replay` does.  ``on_alert(spec, status)`` fires once per
    False->True edge -- this is the hook ``repro.core.monitor`` uses as a
    re-federation trigger.
    """

    def __init__(
        self,
        specs: Sequence[SloSpec],
        *,
        registry: Optional[_metrics.MetricsRegistry] = None,
        on_alert: Optional[Callable[[SloSpec, SloStatus], None]] = None,
        emit_metrics: bool = True,
        emit_events: bool = True,
    ) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.specs: Tuple[SloSpec, ...] = tuple(specs)
        self.on_alert = on_alert
        self._emit_metrics = emit_metrics
        self._emit_events = emit_events
        self._clock = _EventClock()
        self._firing: Dict[str, bool] = {spec.name: False for spec in specs}
        self._alert_counts: Dict[str, int] = {spec.name: 0 for spec in specs}
        self._evaluations: Dict[str, int] = {spec.name: 0 for spec in specs}
        self._last: Dict[str, Optional[SloStatus]] = {
            spec.name: None for spec in specs
        }
        self.alerts: List[Dict[str, Any]] = []
        reg = registry if registry is not None else _metrics.registry()
        self._m_evaluations = reg.counter(
            "slo.evaluations", "SLO evaluations by outcome"
        )
        self._m_burn_rate = reg.gauge(
            "slo.burn_rate", "Most recent burn rate per SLO"
        )
        self._m_alerts = reg.counter(
            "slo.alerts", "Burn-rate alert edges (fired) per SLO"
        )

    # -- evaluation --------------------------------------------------------

    def observe(self, now: float, provider: SeriesProvider) -> List[SloStatus]:
        """Evaluate every spec at sample time ``now``.

        Matches the :data:`~repro.obs.timeseries.SampleObserver` signature
        so the engine plugs straight into a sampler.
        """
        statuses: List[SloStatus] = []
        for spec in self.specs:
            status = self._evaluate(spec, now, provider)
            if status is not None:
                statuses.append(status)
        return statuses

    def _evaluate(
        self, spec: SloSpec, now: float, provider: SeriesProvider
    ) -> Optional[SloStatus]:
        values = self._window_values(spec, now, provider)
        if not values:
            return None  # no data yet: not evaluated, not firing
        bad = sum(1 for v in values if not spec.good(v))
        error_rate = bad / len(values)
        burn_rate = error_rate / spec.error_budget
        warmed_up = len(values) >= spec.min_samples
        firing = warmed_up and burn_rate >= spec.burn_rate_threshold
        status = SloStatus(
            slo=spec.name,
            time=now,
            samples=len(values),
            value=values[-1],
            ok=not bad,
            error_rate=error_rate,
            burn_rate=burn_rate,
            firing=firing,
        )
        self._evaluations[spec.name] += 1
        self._last[spec.name] = status
        if self._emit_metrics:
            self._m_evaluations.inc(slo=spec.name, ok=str(status.ok).lower())
            self._m_burn_rate.set(burn_rate, slo=spec.name)
        was_firing = self._firing[spec.name]
        if firing and not was_firing:
            self._firing[spec.name] = True
            self._alert_counts[spec.name] += 1
            self.alerts.append(
                {
                    "slo": spec.name,
                    "time": now,
                    "state": "firing",
                    "burn_rate": burn_rate,
                    "value": status.value,
                }
            )
            if self._emit_metrics:
                self._m_alerts.inc(slo=spec.name)
            self._emit_event("slo.alert", spec, status)
            if self.on_alert is not None:
                self.on_alert(spec, status)
        elif was_firing and not firing:
            self._firing[spec.name] = False
            self.alerts.append(
                {
                    "slo": spec.name,
                    "time": now,
                    "state": "resolved",
                    "burn_rate": burn_rate,
                    "value": status.value,
                }
            )
            self._emit_event("slo.alert.resolved", spec, status)
        return status

    def _window_values(
        self, spec: SloSpec, now: float, provider: SeriesProvider
    ) -> List[float]:
        series = provider.series(spec.metric, spec.labels)
        if series is None:
            # Counters are sparse: an absent error counter reads as zero.
            if spec.field in ("delta", "rate", "total"):
                return [0.0]
            return []
        start = now - spec.window
        if spec.field == "value":
            points = series.window(start, now)
            if points:
                return [float(p[1]) for p in points]
            latest = series.latest()
            return [latest] if latest is not None else []
        if spec.field in ("delta", "rate"):
            points = series.window(start, now)
            if not points:
                return [0.0]
            if spec.field == "delta":
                return [float(p[1]) for p in points]
            return [float(p[1]) / series.interval for p in points]
        if spec.field == "total":
            return [series.total()]
        if spec.field == "mean":
            mean = series.mean(window=spec.window, now=now)
            return [mean] if mean is not None else []
        q = _quantile_of(spec.field)
        assert q is not None  # validated at construction
        quantile = series.quantile(q, window=spec.window, now=now)
        return [quantile] if quantile is not None else []

    def _emit_event(self, name: str, spec: SloSpec, status: SloStatus) -> None:
        if not self._emit_events:
            return
        from repro.obs.trace import tracer

        self._clock.now = status.time
        tracer().event(
            name,
            clock=self._clock,
            slo=spec.name,
            metric=spec.metric,
            objective=f"{spec.field} {spec.objective} {spec.threshold}",
            burn_rate=round(status.burn_rate, 6),
            value=status.value,
        )

    # -- results -----------------------------------------------------------

    def firing(self) -> List[str]:
        """Names of specs currently in the firing state."""
        return sorted(name for name, on in self._firing.items() if on)

    def summary(self) -> List[Dict[str, Any]]:
        """Per-spec verdicts: a spec *passes* if it never fired an alert."""
        out: List[Dict[str, Any]] = []
        for spec in self.specs:
            last = self._last[spec.name]
            out.append(
                {
                    "slo": spec.name,
                    "metric": spec.metric,
                    "objective": (
                        f"{spec.field} {spec.objective} {spec.threshold}"
                    ),
                    "window": spec.window,
                    "evaluations": self._evaluations[spec.name],
                    "alerts": self._alert_counts[spec.name],
                    "pass": self._alert_counts[spec.name] == 0,
                    "last_value": last.value if last is not None else None,
                    "last_burn_rate": (
                        last.burn_rate if last is not None else None
                    ),
                }
            )
        return out

    def emit(self, sink: Any) -> None:
        """Write the engine's verdicts as an ``slo`` record to a recorder."""
        sink.emit(
            {
                "type": "slo",
                "specs": [spec.as_dict() for spec in self.specs],
                "results": self.summary(),
                "alerts": list(self.alerts),
            }
        )


class _BankView:
    """Series lookup over a recorded plain-dict bank (for offline replay)."""

    def __init__(self, bank: Dict[str, dict]) -> None:
        self._series: Dict[str, Series] = {
            key: Series.from_dict(record) for key, record in bank.items()
        }

    def series(self, metric: str, labels: str = "") -> Optional[Series]:
        return self._series.get(series_key(metric, labels))

    def sample_times(self, specs: Sequence[SloSpec]) -> List[float]:
        times: set = set()
        for spec in specs:
            series = self.series(spec.metric, spec.labels)
            if series is not None:
                times.update(series.times())
        return sorted(times)


def replay(
    bank: Dict[str, dict],
    specs: Sequence[SloSpec],
    *,
    on_alert: Optional[Callable[[SloSpec, SloStatus], None]] = None,
) -> SloEngine:
    """Grade a recorded series bank offline against a spec set.

    Re-evaluates every spec at each recorded sample time, exactly as a
    runtime engine attached to the original sampler would have.  Emits no
    metrics and no events (the run is over); the returned engine's
    :meth:`SloEngine.summary` and ``alerts`` carry the verdicts.
    """
    view = _BankView(bank)
    engine = SloEngine(
        specs, on_alert=on_alert, emit_metrics=False, emit_events=False
    )
    for now in view.sample_times(specs):
        engine.observe(now, view)
    return engine


#: The stock objectives ``sflow-trace report`` grades recordings against
#: when the recording carries no runtime ``slo`` record.  Thresholds are
#: calibrated against the seeded chaos-smoke baseline (intensity 0.0): the
#: baseline must pass every one -- CI gates on it.
DEFAULT_SLOS: Tuple[SloSpec, ...] = (
    SloSpec(
        name="federation-latency-p95",
        metric="sflow.federation.sim_time",
        field="p95",
        objective="<=",
        threshold=600.0,
        window=200.0,
        error_budget=0.25,
        burn_rate_threshold=2.0,
        description="95th-percentile federation completion time",
    ),
    SloSpec(
        name="recovery-latency-p95",
        metric="sflow.recovery.sim_time",
        field="p95",
        objective="<=",
        threshold=600.0,
        window=200.0,
        error_budget=0.25,
        burn_rate_threshold=2.0,
        description="95th-percentile failure recovery time",
    ),
    SloSpec(
        name="no-handler-errors",
        metric="engine.handler_error",
        field="delta",
        objective="<=",
        threshold=0.0,
        window=100.0,
        error_budget=0.01,
        burn_rate_threshold=1.0,
        description="simulation handlers never raise",
    ),
    SloSpec(
        name="delivered-bandwidth",
        metric="degrade.delivered_fraction",
        field="mean",
        objective=">=",
        threshold=0.5,
        window=200.0,
        error_budget=0.25,
        burn_rate_threshold=2.0,
        description="mean delivered-bandwidth fraction under degradation",
    ),
)
