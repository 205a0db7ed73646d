"""Crash tolerance of one sFlow session (the "agile" half of the paper's
title, carried into the protocol of :mod:`repro.core.sflow` itself).

A :class:`~repro.network.failures.ChaosPlan` can kill service nodes and
degrade channels *while the federation is running*.  The runtime then
behaves like a real distributed system rather than a batch solver:

* a crashed node silently drops traffic; the upstream sender detects it by
  **retry exhaustion** of the acknowledged transport;
* the sender **fails over**: it re-runs its local planning step with every
  suspected-dead instance excluded, re-pins the lost service to its
  next-best candidate, and re-sends -- with exponential backoff between
  attempts.  Re-pins carry a per-service generation so downstream merge
  points deterministically prefer the freshest decision over stale pins
  still in flight;
* failovers that cannot be decided locally (a merge service pinned by a
  remote dominator, an exhausted failover budget, no live alternative)
  escalate to a bounded number of **re-federations**: the consumer restarts
  the protocol for the residual requirement -- everything not safely
  delivered, i.e. the full requirement -- with the suspects excluded;
* the sink side enforces an optional end-to-end **deadline**; each expiry
  burns one re-federation, and exhausting them fails the run;
* a completion short of ``required_bandwidth`` climbs the degradation
  ladder of :mod:`repro.core.degradation`;
* every recovery step lands in a structured :class:`RecoveryEvent` log, and
  an unrecoverable run ends FAILED instead of leaking an exception out of
  :meth:`~repro.sim.engine.Environment.run`.

One :class:`_Recovery` per session, reached by the protocol through
``supervise``, ``send_ack`` / ``acknowledge``, ``observe_peer``,
``live_instance``, ``complete`` and ``fail``.  Optional subsystems are
resolved once, at construction, into collaborators that are always present
(a disabled detector hears nothing, a disabled breaker never opens, an
absent plan is the empty plan), so nothing below tests for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.errors import FederationError
from repro.network.failures import (
    ChaosPlan,
    CrashEvent,
    GrayFaultPlan,
    fail_instances,
)
from repro.network.overlay import ServiceInstance
from repro.obs import metrics as obs_metrics
from repro.services.flowgraph import FlowEdge, ServiceFlowGraph
from repro.services.requirement import Sid
from repro.core.degradation import DegradationRecord
from repro.core.detector import (
    CircuitBreaker,
    PhiAccrualDetector,
    RetryPolicy,
    _NullBreaker,
    _NullDetector,
)
from repro.core.repair import repair_flow_graph
from repro.sim.channels import Envelope, MessageNetwork
from repro.sim.engine import Event

if TYPE_CHECKING:
    from repro.core.sflow import SFederate, _Federation

_REGISTRY = obs_metrics.registry()
_M_ACKS = _REGISTRY.counter("sflow.acks.sent", "acknowledgements sent")
_M_RETRANSMISSIONS = _REGISTRY.counter(
    "sflow.retransmissions", "sfederate retransmissions"
)
_M_SUSPECTS = _REGISTRY.counter(
    "sflow.suspects", "instances declared dead by retry exhaustion"
)
_M_FAILOVERS = _REGISTRY.counter("sflow.failovers", "local re-pins after suspicion")
_M_REFEDERATIONS = _REGISTRY.counter(
    "sflow.refederations", "consumer-side protocol restarts"
)
_M_CRASHES = _REGISTRY.counter("sflow.crashes", "chaos crash-stop events")
_M_RECOVERY = _REGISTRY.counter(
    "sflow.recovery.events", "structured recovery-log entries by kind"
)
_H_RECOVERY_TIME = _REGISTRY.histogram(
    "sflow.recovery.sim_time",
    "first recovery event to completion (virtual time), disturbed runs only",
)
_M_DEGRADE_DETECTED = _REGISTRY.counter(
    "degrade.detected", "completions that fell below the bandwidth requirement"
)
_M_DEGRADE_REPAIRS = _REGISTRY.counter(
    "degrade.repairs", "in-place repairs attempted on degraded sessions"
)
_M_DEGRADE_SESSIONS = _REGISTRY.counter(
    "degrade.sessions", "sessions served below requirement (explicit record)"
)
_M_DEGRADE_RECOVERED = _REGISTRY.counter(
    "degrade.recovered", "degraded sessions restored to full bandwidth"
)
_H_DELIVERED_FRACTION = _REGISTRY.histogram(
    "degrade.delivered_fraction",
    "achieved / required bandwidth at completion (requirement-bearing runs)",
)


@dataclass(frozen=True)
class Ack:
    """Acknowledgement of an ``sfederate`` message under a lossy transport."""

    msg_id: int


@dataclass(frozen=True)
class RecoveryEvent:
    """One structured entry of a run's recovery log.

    ``kind`` is one of: ``crash``, ``revival``, ``retry_exhausted``,
    ``suspect``, ``unsuspect``, ``quarantine``, ``failover``, ``abandon``,
    ``refederate``, ``deadline_expired``, ``degrade_detected``,
    ``degrade_repair``, ``degraded``, ``recovered``, ``failed``.
    ``instance`` names the affected instance when the event concerns one
    (detection-latency accounting keys on it).
    """

    time: float
    kind: str
    detail: str
    instance: str = ""


class _Recovery:
    """Failure handling of one federation session (see the module docs)."""

    def __init__(self, fed: "_Federation", chaos: Optional[ChaosPlan]) -> None:
        self.fed = fed
        self.env = fed.env
        self.config = config = fed.config
        #: No plan is the empty plan (an inactive one already drives nothing).
        self.chaos = chaos if chaos is not None else ChaosPlan()
        self.chaos.schedule.validate_against(fed.overlay)
        self.gray = self.chaos.gray if self.chaos.gray is not None else GrayFaultPlan()
        self.gray.validate_against(fed.overlay)
        #: Acknowledged transport is needed whenever messages can vanish --
        #: seeded loss or a chaos plan; the undisturbed path sends no acks.
        self.reliable = config.loss_rate > 0 or self.chaos.active
        if self.reliable:
            self._loss_rng = random.Random(config.loss_seed)
            self._chaos_rng = random.Random(self.chaos.seed)
            self._jitter_rng = random.Random(self.chaos.seed ^ 0x9E3779B9)
            self._retry_rng = random.Random(config.loss_seed ^ 0x5F3759DF)
            self.network = MessageNetwork(
                self.env, loss_fn=self._lose, jitter_fn=self._jitter
            )
        else:
            # Nothing can lose or delay a message (``chaos.active`` covers
            # loss, jitter, crashes and gray faults): no RNG, no send hook.
            self.network = MessageNetwork(self.env)
        if self.gray.active:
            self.network.install_gray(self.gray.channel_model())
        self.detector = (
            PhiAccrualDetector(config.detector)
            if config.detector is not None
            else _NullDetector()
        )
        self.breaker = (
            CircuitBreaker(config.breaker)
            if config.breaker is not None
            else _NullBreaker()
        )
        #: ``retransmit_timeout`` x ``max_retries`` spells the default.
        self.retry = config.retry_policy or RetryPolicy(
            max_attempts=config.max_retries + 1,
            base=config.retransmit_timeout,
            multiplier=1.0,
            cap=config.retransmit_timeout,
            jitter=0.0,
        )
        #: Instances this run believes are dead (retry exhaustion, phi
        #: silence -- never via global knowledge).
        self.suspected: Set[ServiceInstance] = set()
        #: Suspected by the phi detector alone (cleared on the next
        #: heartbeat -- unlike retry-exhaustion suspects, which stay).
        self._phi_suspects: Set[ServiceInstance] = set()
        self._msg_ids = 0
        self._pending_acks: Dict[int, Event] = {}
        #: The session's ledger (``SFlowResult``): counters, the committed
        #: graph or the failure reason are written straight into it.
        self.result = fed.result
        self.log_entries: List[RecoveryEvent] = []
        self._best_graph: Optional[ServiceFlowGraph] = None
        self._best_bandwidth = 0.0
        self._degrade_seen = False
        self._repair_used = False
        self._last_refederate_at = -float("inf")

    # -- channel faults ----------------------------------------------------------

    def _lose(self, src, dst, envelope: Envelope) -> bool:
        if src == "consumer":
            return False
        lost = False
        if self.config.loss_rate > 0:
            lost |= self._loss_rng.random() < self.config.loss_rate
        if self.chaos.loss_rate > 0:
            lost |= self._chaos_rng.random() < self.chaos.loss_rate
        return lost

    def _jitter(self, src, dst, envelope: Envelope) -> float:
        if src == "consumer" or self.chaos.delay_jitter == 0:
            return 0.0
        return self._jitter_rng.uniform(0.0, self.chaos.delay_jitter)

    # -- bookkeeping -------------------------------------------------------------

    def log(self, kind: str, detail: str, *, instance: str = "") -> None:
        self.log_entries.append(
            RecoveryEvent(self.env.now, kind, detail, instance)
        )
        _M_RECOVERY.inc(kind=kind)
        self.fed.span.event("recovery." + kind, detail=detail)

    def fail(self, reason: str) -> None:
        """End the run as FAILED -- structured, never by raising."""
        if not self.result.failure_reason:
            self.result.failure_reason = reason
            self.log("failed", reason)
        if not self.fed.done.triggered:
            self.fed.done.succeed()

    def _suspect(self, peer: ServiceInstance, kind: str, detail: str) -> None:
        self.suspected.add(peer)
        _M_SUSPECTS.inc()
        self.log(kind, detail, instance=str(peer))

    def live_instance(self, sid: Sid) -> Optional[ServiceInstance]:
        """First directory instance of ``sid`` not currently suspected."""
        for inst in self.fed.directory[sid]:
            if inst not in self.suspected:
                return inst
        return None

    def start(self) -> None:
        """Schedule the session's fault drivers and watchdogs."""
        for event in self.chaos.schedule.events:
            self.env.process(self._chaos_driver(event))
        if self.config.deadline is not None:
            self.env.process(self._watchdog())
        if self.config.detector is not None:
            # Never for the disabled detector: a perpetual timeout would
            # keep the event queue alive and mask protocol starvation.
            self.env.process(self._detector_sweep())

    def settle(self) -> Optional[float]:
        """Close the ledger (a failed run serves no graph); returns the
        sim time from the first recovery event to the end, if any."""
        result = self.result
        if result.failure_reason:
            result.flow_graph = None
        result.recovery_log = tuple(self.log_entries)
        result.suspected = tuple(sorted(str(inst) for inst in self.suspected))
        if result.flow_graph is not None and result.achieved_bandwidth is not None:
            _H_DELIVERED_FRACTION.observe(
                min(1.0, result.achieved_bandwidth / self.config.required_bandwidth)
            )
        recovery_latency: Optional[float] = None
        if self.log_entries:
            recovery_latency = self.env.now - self.log_entries[0].time
            _H_RECOVERY_TIME.observe(recovery_latency)
        return recovery_latency

    # -- adaptive detection ------------------------------------------------------

    def observe_peer(self, peer) -> None:
        """Every received envelope (sfederate or ack) is a liveness proof
        of its sender."""
        if not isinstance(peer, ServiceInstance):
            return
        self.detector.heartbeat(peer, self.env.now)
        if peer in self._phi_suspects:
            # The phi detector was wrong (straggler, healed partition):
            # take the suspicion back so failover planning sees the peer.
            self._phi_suspects.discard(peer)
            self.suspected.discard(peer)
            self.log(
                "unsuspect",
                f"{peer} heartbeated again; phi suspicion withdrawn",
                instance=str(peer),
            )

    def _detector_sweep(self):
        """Periodic phi evaluation over every tracked peer: silence beyond
        the adaptive threshold turns into a suspicion *before* any retry
        budget runs out."""
        interval = self.detector.config.bootstrap_interval
        while True:
            yield self.env.timeout(interval)
            if self.fed.done.triggered:
                return
            for peer, phi in self.detector.poll(self.env.now):
                if peer in self.suspected or peer == self.fed.source_instance:
                    continue
                self._phi_suspects.add(peer)
                self._suspect(
                    peer, "suspect", f"phi-accrual suspects {peer} (phi={phi:.2f})"
                )

    # -- chaos (crash-stop schedule) ---------------------------------------------

    def _chaos_driver(self, event: CrashEvent):
        yield self.env.timeout(event.at)
        self._crash(event.instance)
        if event.revive_at is not None:
            yield self.env.timeout(event.revive_at - event.at)
            self._revive(event.instance)

    def _crash(self, instance: ServiceInstance) -> None:
        self.network.crash(instance)
        node = self.fed.nodes.get(instance)
        if node is not None:  # never addressed: no node, no state to lose
            node.reset()
        self.result.crashes += 1
        _M_CRASHES.inc()
        # A crash-stop is silent: nothing tells the planners (their views
        # are read-only and shared with other sessions); they learn of it
        # only once the victim is in ``suspected``.
        self.log("crash", f"{instance} crashed (crash-stop)")

    def _revive(self, instance: ServiceInstance) -> None:
        self.network.revive(instance)
        self.suspected.discard(instance)
        self._phi_suspects.discard(instance)
        # Pre-crash inter-arrival history would insta-suspect the fresh
        # incarnation; let it bootstrap cleanly.
        self.detector.forget(instance)
        self.log("revival", f"{instance} revived with empty state")

    # -- transport (reliability layer) -------------------------------------------

    def next_msg_id(self) -> int:
        """Fresh ``sfederate`` id; 0 (no reliability) on a safe transport."""
        if not self.reliable:
            return 0
        self._msg_ids += 1
        return self._msg_ids

    def send_ack(self, src: ServiceInstance, dst, msg_id: int) -> None:
        self.result.acks += 1
        _M_ACKS.inc()
        self.network.send(
            src, dst, Ack(msg_id), latency=self.fed.fallback_latency, size=1
        )

    def acknowledge(self, msg_id: int) -> None:
        pending = self._pending_acks.pop(msg_id, None)
        if pending is not None and not pending.triggered:
            pending.succeed()

    def _reliable_send(
        self,
        src: ServiceInstance,
        dst: ServiceInstance,
        message: "SFederate",
        latency: float,
    ):
        """Acknowledged transmission; returns True when acked, False when
        the retry budget went unanswered.  Never raises: retry exhaustion
        is the *caller's* signal to start failing over."""
        ack_event = self._pending_acks[message.msg_id] = self.env.event()
        self.fed.endpoint(dst)
        for attempt in range(self.retry.max_attempts):
            self.network.send(
                src, dst, message, latency=latency, size=message.size
            )
            if attempt > 0:
                self.result.retransmissions += 1
                _M_RETRANSMISSIONS.inc()
            timeout = self.env.timeout(self.retry.delay(attempt, self._retry_rng))
            yield self.env.any_of([ack_event, timeout])
            if ack_event.processed:
                return True
        self._pending_acks.pop(message.msg_id, None)
        return False

    def supervise(
        self,
        src: ServiceInstance,
        dst: ServiceInstance,
        message: "SFederate",
        latency: float,
    ):
        """Drive one ``sfederate`` to *some* live instance of its service.

        The happy path is a single acknowledged send.  On retry exhaustion
        the target is suspected dead and the sender re-runs its local
        planning step (suspects excluded), re-pins the service, and
        re-sends to the next-best candidate -- backing off exponentially
        between attempts.  Everything that cannot be resolved locally
        escalates to a bounded re-federation."""
        fed = self.fed
        target, msg, lat = dst, message, latency
        round_index = 0
        while True:
            quarantined = not self.breaker.allows(target, self.env.now)
            if quarantined:
                # The circuit is open: the target already burned through a
                # retry cycle recently.  Fail over immediately instead of
                # spending another full budget on a suspect peer.
                self.log(
                    "quarantine",
                    f"{target} is quarantined; sfederate {msg.msg_id} from "
                    f"{src} fails over without retrying",
                    instance=str(target),
                )
            else:
                if (yield from self._reliable_send(src, target, msg, lat)):
                    self.breaker.record_success(target, self.env.now)
                    return
            if fed.done.triggered or msg.generation < fed.generation:
                return  # run settled or superseded by a re-federation
            if not quarantined:
                self._phi_suspects.discard(target)
                self._suspect(
                    target,
                    "retry_exhausted",
                    f"{target} never acked sfederate {msg.msg_id} from {src} "
                    f"({self.retry.max_attempts} transmissions)",
                )
                if self.breaker.record_failure(target, self.env.now):
                    self.log(
                        "quarantine",
                        f"circuit opened for {target} after consecutive "
                        "retry exhaustions",
                        instance=str(target),
                    )
            if fed.requirement.in_degree(target.sid) > 1:
                self._escalate(
                    f"{target.sid!r} is a merge service pinned by a remote "
                    f"dominator; local failover at {src} would fork the pin",
                    f"merge service {target.sid!r} lost instance {target}",
                )
                return
            if self.result.failovers >= self.config.max_failovers:
                self._escalate(
                    f"failover budget ({self.config.max_failovers}) exhausted",
                    "failover budget exhausted",
                )
                return
            backoff = self.config.failover_backoff * (2 ** round_index)
            round_index += 1
            yield self.env.timeout(backoff)
            if fed.done.triggered or msg.generation < fed.generation:
                return
            replacement = self._plan_failover(src, target, msg)
            if replacement is None:
                self._escalate(
                    f"no live alternative instance for {target.sid!r}",
                    f"service {target.sid!r} has no live alternative",
                )
                return
            self.result.failovers += 1
            _M_FAILOVERS.inc()
            new_target, msg, lat = replacement
            self.log(
                "failover",
                f"{src} re-pinned {target.sid!r}: {target} -> {new_target} "
                f"(backoff {backoff:g})",
            )
            target = new_target

    def _escalate(self, why: str, reason: str) -> None:
        """Give up local failover (``why``) and ask for a re-federation."""
        self.log("abandon", why)
        self.refederate(reason)

    def _plan_failover(
        self,
        src: ServiceInstance,
        dead: ServiceInstance,
        message: "SFederate",
    ) -> Optional[Tuple[ServiceInstance, "SFederate", float]]:
        """Re-run ``src``'s local planning step with suspects excluded and
        rebuild the sfederate for the next-best instance of ``dead.sid``."""
        fed = self.fed
        pins = {
            sid: inst
            for sid, inst in message.pins
            if inst not in self.suspected
        }
        pins[src.sid] = src
        assignment = fed.plan(src, fed.residual(src.sid), pins)
        replacement = assignment.get(dead.sid) if assignment is not None else None
        if replacement is None or replacement in self.suspected:
            replacement = self.live_instance(dead.sid)
        if replacement is None:
            return None
        new_pins = dict(message.pins)
        new_pins[dead.sid] = replacement
        repins = dict(message.repins)
        repins[dead.sid] = repins.get(dead.sid, 0) + 1
        surviving: Dict[Tuple[Sid, Sid], FlowEdge] = {
            edge.requirement_edge: edge
            for edge in message.edges
            if dead not in (edge.src, edge.dst)
        }
        new_msg, latency = fed.outgoing(
            src, replacement, new_pins, repins, surviving, message.generation
        )
        return replacement, new_msg, latency

    # -- re-federation (consumer-side recovery) ----------------------------------

    def refederate(self, reason: str) -> bool:
        """Restart the protocol for the residual requirement (which, seen
        from the consumer, is the full requirement: partially committed
        branches upstream of a loss cannot be trusted).  Bounded by
        ``max_refederations``; exhaustion fails the run structurally."""
        fed = self.fed
        if fed.done.triggered:
            return False
        dead = [
            sid
            for sid, pool in fed.directory.items()
            if all(inst in self.suspected for inst in pool)
        ]
        verdict = None
        if self.result.refederations >= self.config.max_refederations:
            verdict = f"{reason} (after {self.result.refederations} re-federation(s))"
        elif dead:
            verdict = f"required service {dead[0]!r} has no live instance ({reason})"
        elif fed.source_instance in self.suspected:
            verdict = f"pinned source instance {fed.source_instance} is dead ({reason})"
        if verdict is not None:
            self.fail("unrecoverable: " + verdict)
            return False
        self.result.refederations += 1
        _M_REFEDERATIONS.inc()
        fed.generation += 1
        self.log(
            "refederate",
            f"round {fed.generation}: restarting the residual requirement "
            f"({reason}); {len(self.suspected)} suspect(s) excluded",
        )
        fed.start_round()
        return True

    def _watchdog(self):
        """Sink-side deadline enforcement: every expired window burns one
        re-federation; running out of them fails the run."""
        while True:
            yield self.env.timeout(self.config.deadline)
            if self.fed.done.triggered:
                return
            self.log(
                "deadline_expired",
                f"no complete flow graph by t={self.env.now:g}",
            )
            if not self.refederate("deadline expired"):
                return

    # -- completion: commit, or climb the degradation ladder ---------------------

    def _edge_bandwidth(self, edge: FlowEdge) -> float:
        """What ``edge`` delivers *right now*: its committed bandwidth
        scaled by the gray ramps along its realised overlay path."""
        path = edge.overlay_path if len(edge.overlay_path) >= 2 else (edge.src, edge.dst)
        bandwidth = edge.quality.bandwidth
        for hop_src, hop_dst in zip(path, path[1:]):
            bandwidth *= self.gray.bandwidth_factor(hop_src, hop_dst, self.env.now)
        return bandwidth

    def _delivered_bandwidth(self, graph: Optional[ServiceFlowGraph]) -> float:
        """Bottleneck bandwidth the graph delivers right now."""
        if graph is None:
            return 0.0
        bottleneck = float("inf")
        for edge in graph.edges():
            if not edge.quality.reachable:
                return 0.0
            bottleneck = min(bottleneck, self._edge_bandwidth(edge))
        return 0.0 if bottleneck == float("inf") else bottleneck

    def _attempt_repair(
        self, graph: ServiceFlowGraph, required: float
    ) -> Optional[ServiceFlowGraph]:
        """Rung 1 of the ladder: re-decide only the weak services against
        alternative instances, suspects excluded, survivors pinned.

        Every suspect but the pinned source leaves the overlay through
        :func:`~repro.network.failures.fail_instances`, so the oracle derives
        the suspect-free graph from the session's: trees that avoid every
        suspect carry over, and touched ones repair at first lookup.  A
        removal only takes paths away, so on a session overlay nobody derived
        (a fresh scenario's) the repair routes exactly as on a cold copy; on a
        derived one, carried labels follow the oracle's carried-label
        contract (ROADMAP item 3)."""
        fed = self.fed
        overlay = fed.overlay
        suspects = self.suspected - {fed.source_instance}
        if suspects:
            overlay = fail_instances(overlay, suspects)
        weak: Set[Sid] = set()
        for edge in graph.edges():
            if self._edge_bandwidth(edge) < required:
                weak.update(edge.requirement_edge)
        weak.discard(fed.requirement.source)
        started = fed.stopwatch.read()
        try:
            report = repair_flow_graph(
                graph,
                overlay,
                source_instance=fed.source_instance,
                solver=fed.solver,
                force_repair=weak,
            )
        except FederationError:
            return None
        finally:
            fed.record_compute(
                fed.source_instance, fed.stopwatch.read() - started
            )
        return report.graph

    def _commit(
        self, graph: ServiceFlowGraph, achieved: Optional[float], restored_by: str = ""
    ) -> None:
        if restored_by:
            _M_DEGRADE_RECOVERED.inc()
            self.log(
                "recovered",
                f"{restored_by} restored bandwidth to {achieved:g} "
                f">= {self.config.required_bandwidth:g}",
            )
        self.result.flow_graph = graph
        self.result.achieved_bandwidth = achieved
        self.fed.done.succeed()

    def complete(self) -> None:
        """Every tentative completion (all sinks reported) lands here:
        commit when there is no bandwidth requirement or it is met,
        otherwise climb the ladder -- repair in place, then re-federate
        (hysteresis-bounded), then serve DEGRADED."""
        if self.fed.done.triggered:
            return  # a late duplicate sink completion
        required = self.config.required_bandwidth
        graph: Optional[ServiceFlowGraph] = None
        try:
            graph = self.fed.assemble()
        except FederationError as exc:
            problem = str(exc)
        if required is None:
            if graph is None:
                self.fail(f"assembly failed: {problem}")
            else:
                self._commit(graph, None)
            return
        achieved = self._delivered_bandwidth(graph)
        if graph is not None and achieved > self._best_bandwidth:
            self._best_graph, self._best_bandwidth = graph, achieved
        if graph is not None and achieved >= required:
            self._commit(
                graph, achieved, "re-federation" if self._degrade_seen else ""
            )
            return
        self._degrade_seen = True
        _M_DEGRADE_DETECTED.inc()
        self.log(
            "degrade_detected",
            f"flow graph delivers {achieved:g} < required {required:g}",
        )
        # Rung 1: in-place repair against alternative instances (once).
        if graph is not None and not self._repair_used:
            self._repair_used = True
            _M_DEGRADE_REPAIRS.inc()
            repaired = self._attempt_repair(graph, required)
            if repaired is not None:
                repaired_achieved = self._delivered_bandwidth(repaired)
                self.log(
                    "degrade_repair",
                    f"in-place repair delivers {repaired_achieved:g} "
                    f"(was {achieved:g})",
                )
                if repaired_achieved > achieved:
                    graph, achieved = repaired, repaired_achieved
                    if achieved > self._best_bandwidth:
                        self._best_graph, self._best_bandwidth = graph, achieved
                if repaired_achieved >= required:
                    self._commit(graph, achieved, "repair")
                    return
        # Rung 2: re-federate -- bounded, and hysteresis-damped so a
        # sagging overlay cannot trigger a flap storm of restarts.
        elapsed = self.env.now - self._last_refederate_at
        if (
            elapsed >= self.config.refederate_hysteresis
            and self.result.refederations < self.config.max_refederations
        ):
            self._last_refederate_at = self.env.now
            if self.refederate(
                f"delivered bandwidth {achieved:g} below requirement {required:g}"
            ):
                return  # a fresh round is in flight; its sinks re-evaluate
            if self.fed.done.triggered:
                return  # the attempt was unrecoverable; the run is FAILED
        # Rung 3: serve at the best achievable bandwidth, explicitly.
        graph, achieved = self._best_graph, self._best_bandwidth
        if graph is None:
            self.fail("degraded completion yielded no assemblable flow graph")
            return
        self.result.degradation = record = DegradationRecord(
            time=self.env.now,
            required_bandwidth=required,
            achieved_bandwidth=achieved,
            reason=(
                "re-federation hysteresis window open"
                if elapsed < self.config.refederate_hysteresis
                else "re-federation budget exhausted"
            ),
        )
        _M_DEGRADE_SESSIONS.inc()
        self.log("degraded", f"serving at {achieved:g}/{required:g} ({record.reason})")
        self._commit(graph, achieved)
