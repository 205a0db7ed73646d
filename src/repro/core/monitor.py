"""Runtime QoS monitoring of an established federation.

Closes the agility loop: a federation is only as good as the overlay under
it *right now*.  :class:`MonitoredFederation` keeps a service flow graph
under observation on the simulator:

* a **probe process** periodically re-prices every realised edge against
  the current overlay (a probe is what a real deployment would measure on
  the wire);
* when the observed bottleneck bandwidth falls below
  ``bandwidth_threshold`` x the value at federation time -- or an edge
  breaks outright (instance gone, no route) -- the monitor invokes the
  incremental repair of :mod:`repro.core.repair` against the current
  overlay and re-baselines;
* the run produces a :class:`MonitorReport` with the full quality timeline
  and every violation/repair event, which tests and examples assert on.

Overlay dynamics are injected by the experimenter through
:meth:`MonitoredFederation.schedule_mutation` -- any function from overlay
to overlay (the combinators in :mod:`repro.network.failures` compose
directly).

With :attr:`MonitorConfig.required_bandwidth` unset the monitor runs the
legacy relative-threshold repair loop bit for bit; set, a probe below it
climbs the degradation ladder (in-place repair, hysteresis-bounded
re-federation, serve degraded), the only trigger of re-federation here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.degradation import DegradationRecord, SessionState
from repro.core.reductions import ReductionSolver
from repro.core.repair import repair_flow_graph
from repro.errors import FederationError
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.obs import metrics as obs_metrics
from repro.obs.trace import NULL_SPAN, SimClock, tracer as obs_tracer
from repro.routing.oracle import RouteOracle
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import ServiceRequirement
from repro.sim.engine import Environment

OverlayMutation = Callable[[OverlayGraph], OverlayGraph]

_M_EVENTS = obs_metrics.registry().counter(
    "monitor.events", "monitoring log entries by kind"
)
_G_BOTTLENECK = obs_metrics.registry().gauge(
    "monitor.bottleneck", "last observed bottleneck bandwidth"
)


@dataclass
class MonitorConfig:
    """Probe cadence and repair policy.

    Attributes:
        probe_interval: virtual time between QoS probes.
        bandwidth_threshold: repair triggers when the observed bottleneck
            drops below this fraction of the post-(re)federation baseline.
        max_repairs: hard cap on repairs per run (guards runaway churn).
        required_bandwidth: optional absolute end-to-end requirement.
            When set, the monitor runs the explicit session state machine
            (``COMMITTED -> DEGRADED -> COMMITTED | FAILED``): a probe
            below the requirement degrades the session and climbs the
            ladder (in-place repair, hysteresis-bounded re-federation,
            keep serving degraded); ``None`` (default) preserves the
            legacy relative-threshold repair loop bit for bit.
        recovery_probes: consecutive healthy probes required before a
            DEGRADED session is promoted back to COMMITTED (flap damping
            on the recovery edge).
        refederate_hysteresis: minimum virtual time between two
            degradation-triggered full re-federations.
        max_refederations: budget of full re-federations per run.
    """

    probe_interval: float = 5.0
    bandwidth_threshold: float = 0.7
    max_repairs: int = 10
    required_bandwidth: Optional[float] = None
    recovery_probes: int = 2
    refederate_hysteresis: float = 30.0
    max_refederations: int = 1

    def __post_init__(self) -> None:
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be > 0")
        if not (0 < self.bandwidth_threshold <= 1):
            raise ValueError("bandwidth_threshold must be in (0, 1]")
        if self.max_repairs < 0:
            raise ValueError("max_repairs must be >= 0")
        if self.required_bandwidth is not None and self.required_bandwidth <= 0:
            raise ValueError("required_bandwidth must be > 0 (or None)")
        if self.recovery_probes < 1:
            raise ValueError("recovery_probes must be >= 1")
        if self.refederate_hysteresis < 0:
            raise ValueError("refederate_hysteresis must be >= 0")
        if self.max_refederations < 0:
            raise ValueError("max_refederations must be >= 0")


@dataclass(frozen=True)
class MonitorEvent:
    """One entry of the monitoring log.

    ``seq`` is the log position assigned at append time: several events can
    share one sim timestamp (a mutation firing in the same tick as a probe
    round), and ``(time, seq)`` is the total order the monitor observed
    them in.
    """

    time: float
    #: "probe" | "violation" | "repair" | "repair_failed" | "mutation"
    #: | "degrade" | "recover" | "refederate" | "failed"
    kind: str
    bottleneck: float
    detail: str = ""
    seq: int = 0


@dataclass
class MonitorReport:
    """Outcome of a monitored run.

    ``events`` is normalised to ``(time, seq)`` order on construction, so
    the timeline is stable even when callers assemble a report from events
    collected out of order.
    """

    events: List[MonitorEvent]
    final_graph: ServiceFlowGraph
    repairs: int
    #: Session state machine outputs (requirement-bearing runs only;
    #: legacy runs report COMMITTED with no degradations).
    final_state: SessionState = SessionState.COMMITTED
    degradations: Tuple[DegradationRecord, ...] = ()
    refederations: int = 0

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: (e.time, e.seq))

    @property
    def timeline(self) -> List[Tuple[float, float]]:
        """(time, observed bottleneck bandwidth) per probe."""
        return [
            (e.time, e.bottleneck) for e in self.events if e.kind == "probe"
        ]

    def events_of(self, kind: str) -> List[MonitorEvent]:
        """Events of one kind, in log order; ``[]`` for unknown kinds."""
        return [e for e in self.events if e.kind == kind]


class MonitoredFederation:
    """A flow graph kept healthy against a mutating overlay."""

    def __init__(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        config: Optional[MonitorConfig] = None,
        solver: Optional[ReductionSolver] = None,
    ) -> None:
        self.requirement = requirement
        self.config = config or MonitorConfig()
        self.solver = solver or ReductionSolver()
        self.env = Environment()
        self._overlay = overlay
        self._events: List[MonitorEvent] = []
        self._seq = 0
        self._span = NULL_SPAN
        self._repairs = 0
        self.graph = self.solver.solve(
            requirement, overlay, source_instance=source_instance
        )
        self._baseline = self.graph.bottleneck_bandwidth()
        self._source = self.graph.instance_for(requirement.source)
        #: Session state machine (active when required_bandwidth is set).
        self._state = SessionState.COMMITTED
        self._healthy_streak = 0
        self._degradations: List[DegradationRecord] = []
        self._refederations = 0
        self._last_refederate = -math.inf
        #: The overlay the ladder last tried a repair against -- a retry
        #: on the *same* overlay object cannot find anything new, so the
        #: repair rung re-arms only when a mutation swaps the overlay.
        self._repair_tried_on: Optional[OverlayGraph] = None

    # -- dynamics -------------------------------------------------------------

    @property
    def overlay(self) -> OverlayGraph:
        """The overlay as the monitor currently sees it."""
        return self._overlay

    def schedule_mutation(
        self, time: float, mutation: OverlayMutation, label: str = ""
    ) -> None:
        """Apply ``mutation`` to the live overlay at virtual ``time``."""
        if time < self.env.now:
            raise ValueError(f"cannot schedule mutation in the past ({time})")

        def fire(_event) -> None:
            self._overlay = mutation(self._overlay)
            self._record("mutation", self._probe(), label)

        event = self.env.event()
        event.callbacks.append(fire)
        event.succeed(delay=time - self.env.now)

    # -- logging ---------------------------------------------------------------

    def _record(
        self, kind: str, bottleneck: float, detail: str = ""
    ) -> MonitorEvent:
        """Append one log entry with a stable sequence number, mirroring it
        to the metrics registry and (when recording) the trace stream."""
        event = MonitorEvent(self.env.now, kind, bottleneck, detail, self._seq)
        self._seq += 1
        self._events.append(event)
        _M_EVENTS.inc(kind=kind)
        self._span.event(
            "monitor." + kind, bottleneck=bottleneck, detail=detail
        )
        return event

    # -- probing ---------------------------------------------------------------

    def _probe_edges(self) -> Dict[Tuple[str, str], float]:
        """Observed bandwidth of every realised edge on the current overlay."""
        observations: Dict[Tuple[str, str], float] = {}
        # Probe trees come from the process-wide oracle: repeated probe
        # rounds on an unchanged overlay are cache hits, and mutations
        # produce a new overlay object (its own oracle state), so a stale
        # tree can never be observed.
        oracle = RouteOracle.default()
        for edge in self.graph.edges():
            src, dst = edge.src, edge.dst
            key = edge.requirement_edge
            if src not in self._overlay or dst not in self._overlay:
                observations[key] = 0.0
                continue
            label = oracle.tree(self._overlay, src).get(dst)
            if label is None or not label.quality.reachable:
                observations[key] = 0.0
            else:
                observations[key] = label.quality.bandwidth
        return observations

    def _probe(self) -> float:
        """Observed bottleneck of the current graph on the current overlay."""
        observations = self._probe_edges()
        if not observations:
            return math.inf if not self.graph.edges() else 0.0
        return min(observations.values())

    def _do_repair(self, observed: float, force: set) -> bool:
        """One in-place repair attempt; True when the graph was replaced."""
        try:
            source = (
                self._source if self._source in self._overlay else None
            )
            report = repair_flow_graph(
                self.graph,
                self._overlay,
                source_instance=source,
                solver=self.solver,
                force_repair=force,
            )
        except FederationError as exc:
            self._record("repair_failed", observed, str(exc))
            return False
        self.graph = report.graph
        self._source = self.graph.instance_for(self.requirement.source)
        self._baseline = self.graph.bottleneck_bandwidth()
        self._repairs += 1
        self._record(
            "repair",
            self._baseline,
            f"re-decided {sorted(report.touched)}",
        )
        return True

    def _weak_services(self, floor_of) -> set:
        """Endpoints of degraded-but-working edges: the repair diagnosis
        only sees *broken* edges, so these must be forced."""
        force: set = set()
        observations = self._probe_edges()
        for edge in self.graph.edges():
            seen = observations.get(edge.requirement_edge, 0.0)
            if seen < floor_of(edge):
                force.update(edge.requirement_edge)
        force.discard(self.requirement.source)
        return force

    def _monitor_process(self, until: float):
        while self.env.now < until:
            yield self.env.timeout(self.config.probe_interval)
            observed = self._probe()
            _G_BOTTLENECK.set(observed)
            self._record("probe", observed)
            if self.config.required_bandwidth is not None:
                self._step_state(observed)
                continue
            if observed >= self._baseline * self.config.bandwidth_threshold:
                continue
            self._record(
                "violation",
                observed,
                f"below {self.config.bandwidth_threshold:.0%} of "
                f"baseline {self._baseline:.2f}",
            )
            if self._repairs >= self.config.max_repairs:
                continue
            self._do_repair(
                observed,
                self._weak_services(
                    lambda edge: edge.quality.bandwidth
                    * self.config.bandwidth_threshold
                ),
            )

    # -- session state machine (requirement-bearing runs) ------------------------

    def _step_state(self, observed: float) -> None:
        """One probe's worth of the COMMITTED/DEGRADED/FAILED lifecycle.

        Below-requirement probes degrade the session and climb the ladder:
        in-place repair first, then a full re-federation (hysteresis- and
        budget-bounded), else keep serving degraded.  Recovery back to
        COMMITTED requires ``recovery_probes`` consecutive healthy probes,
        so a flapping overlay cannot flap the session state.
        """
        required = self.config.required_bandwidth
        if observed >= required:
            if self._state is not SessionState.COMMITTED:
                self._healthy_streak += 1
                if self._healthy_streak >= self.config.recovery_probes:
                    self._state = SessionState.COMMITTED
                    self._record(
                        "recover",
                        observed,
                        f"{self._healthy_streak} consecutive healthy probes "
                        f">= {required:g}",
                    )
            return
        self._healthy_streak = 0
        if self._state is SessionState.COMMITTED:
            self._state = SessionState.DEGRADED
            self._degradations.append(
                DegradationRecord(
                    time=self.env.now,
                    required_bandwidth=required,
                    achieved_bandwidth=observed,
                    reason="probe below requirement",
                )
            )
            self._record("degrade", observed, f"below requirement {required:g}")
        # Rung 1: in-place repair against alternative instances -- once
        # per overlay version (retrying on an unchanged overlay cannot
        # find anything new and would just burn the repair budget).
        if (
            self._repairs < self.config.max_repairs
            and self._overlay is not self._repair_tried_on
        ):
            self._repair_tried_on = self._overlay
            if self._do_repair(
                observed, self._weak_services(lambda edge: required)
            ):
                if self._probe() >= required:
                    return  # recovery_probes consecutive probes confirm
        # Rung 2: full re-federation, hysteresis-damped and budget-bounded.
        if self._try_refederate(observed):
            return
        # Rung 3: keep serving at the best achievable bandwidth.  Only a
        # session delivering *nothing* without repair left is FAILED.
        if observed <= 0 and self._probe() <= 0:
            if self._state is not SessionState.FAILED:
                self._state = SessionState.FAILED
                self._record(
                    "failed", 0.0, "no bandwidth deliverable on any edge"
                )

    def _try_refederate(self, observed: float) -> bool:
        """One hysteresis- and budget-bounded full re-federation attempt
        (rung 2 of the ladder); returns True when this rung consumed the
        opportunity (whether or not the re-solve succeeded), False when
        hysteresis or the budget suppressed it.
        """
        if not (
            self.env.now - self._last_refederate
            >= self.config.refederate_hysteresis
            and self._refederations < self.config.max_refederations
        ):
            return False
        self._last_refederate = self.env.now
        try:
            source = (
                self._source if self._source in self._overlay else None
            )
            graph = self.solver.solve(
                self.requirement, self._overlay, source_instance=source
            )
        except FederationError as exc:
            self._record(
                "repair_failed", observed, f"re-federation infeasible: {exc}"
            )
        else:
            self.graph = graph
            self._source = graph.instance_for(self.requirement.source)
            self._baseline = graph.bottleneck_bandwidth()
            self._refederations += 1
            self._record(
                "refederate",
                self._probe(),
                f"round {self._refederations}: full re-solve on the "
                "current overlay",
            )
        return True

    # -- driving -----------------------------------------------------------------

    def run(self, until: float) -> MonitorReport:
        """Run the monitored federation until virtual time ``until``."""
        if until <= 0:
            raise ValueError("until must be > 0")
        self._span = obs_tracer().session(
            "monitor.run",
            clock=SimClock(self.env),
            until=until,
            probe_interval=self.config.probe_interval,
        )
        self.env.process(self._monitor_process(until))
        self.env.run(until=until)
        self._span.end(
            repairs=self._repairs,
            baseline=self._baseline,
            events=len(self._events),
        )
        self._span = NULL_SPAN
        return MonitorReport(
            events=list(self._events),
            final_graph=self.graph,
            repairs=self._repairs,
            final_state=self._state,
            degradations=tuple(self._degradations),
            refederations=self._refederations,
        )
