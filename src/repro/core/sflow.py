"""sFlow: the fully distributed service federation algorithm (paper Sec. 4).

The federation process is message-driven:

1. The consumer delivers the service requirement to the **source service
   node** in an ``sfederate`` message.
2. Every service node that receives ``sfederate`` messages from *all* of its
   upstream services analyses its **local overlay view** (the two-hop
   vicinity of the paper, generalised to a configurable ``horizon``), runs
   the baseline algorithm plus the reduction heuristics on the residual
   requirement, commits its local decisions, and forwards new ``sfederate``
   messages -- carrying the residual requirement's services, the accumulated
   *pins* (service -> instance decisions) and the partial flow graph -- to
   the chosen instances of its immediate downstream services.
3. The sink service node(s) finalise the complete service flow graph.

Decision responsibility follows the paper's remark that "the tasks of
computing optimal service flow graphs are generally assumed by the
splitting node": the instance of service ``Y`` is pinned by ``Y``'s
**immediate dominator** in the requirement DAG.  For chain segments the
dominator is simply the upstream service (fully local decisions); for merge
services it is the split node where the branches diverged, which guarantees
all branches deliver their streams to the *same* merge instance.  Because a
dominator precedes ``Y`` on every requirement path, its pin is always
embedded in whatever ``sfederate`` message later reaches ``Y`` -- no extra
coordination round is needed.

Local knowledge model: each node plans over its ``horizon``-hop ego view of
the overlay (optionally materialised by the actual link-state protocol of
:mod:`repro.routing.link_state`).  Instances *outside* the view are known
only by directory (SID listings); the planner prices edges to them with an
optimistic uniform prior estimated from the links the node can see.  This
is what makes sFlow degrade gracefully -- but measurably -- as the network
grows, reproducing the downward trend of Fig. 10(a).

What happens when messages or nodes fail mid-protocol -- acknowledged
transport, failover, re-federation, deadlines, the degradation ladder --
lives in :mod:`repro.core.recovery`, behind one object per session.

Everything runs on the discrete-event simulator: ``sfederate`` messages
take the latency of the realised overlay path they travel, so the reported
convergence time and message counts are measured, not modelled.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import FederationError, SimulationError
from repro.network.failures import ChaosPlan
from repro.obs import metrics as obs_metrics
from repro.obs.clock import Stopwatch
from repro.obs.trace import NULL_SPAN, SimClock, tracer as obs_tracer
from repro.network.metrics import PathQuality, UNREACHABLE
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.link_state import collect_local_views
from repro.services.abstract_graph import AbstractGraph, Hop
from repro.services.flowgraph import FlowEdge, ServiceFlowGraph
from repro.services.requirement import ServiceRequirement, Sid
from repro.core.degradation import DegradationRecord, SessionState
from repro.core.detector import BreakerConfig, DetectorConfig, RetryPolicy
from repro.core.recovery import Ack, RecoveryEvent, _Recovery
from repro.core.reductions import AbstractView, ReductionSolver
from repro.sim.channels import Envelope
from repro.sim.engine import Environment, Event

#: Protocol metrics (process-wide, resolved once at import).  Counters are
#: always on; spans/events below additionally feed the flight recorder
#: when one is attached (:mod:`repro.obs`), at zero cost otherwise.
_REGISTRY = obs_metrics.registry()
_M_SESSIONS = _REGISTRY.counter("sflow.sessions", "federation runs by outcome")
_M_SFEDERATE = _REGISTRY.counter("sflow.sfederate.sent", "sfederate dispatches")
_M_ACTIVATIONS = _REGISTRY.counter(
    "sflow.node.activations", "node activations: inboxes completed"
)
_H_FEDERATION_TIME = _REGISTRY.histogram(
    "sflow.federation.sim_time", "per-session federation latency (virtual time)"
)

#: Delay of the consumer's first ``sfederate`` of every round.
_INITIAL_LATENCY = 0.0


@dataclass(frozen=True)
class SFederate:
    """The ``sfederate`` message: the residual's services + decisions so far."""

    #: The receiver's service and everything downstream of it; the residual
    #: requirement is the session's requirement induced on them.
    services: FrozenSet[Sid]
    pins: Tuple[Tuple[Sid, ServiceInstance], ...]
    edges: Tuple[FlowEdge, ...]
    #: Non-zero when the transport is lossy: retransmission/dedup handle.
    msg_id: int = 0
    #: Protocol round: bumped by every re-federation; stale rounds are dropped.
    generation: int = 0
    #: Failover lineage: ``sid -> re-pin generation`` for re-decided services
    #: (absent = 0).  Higher generations win when pins conflict downstream.
    repins: Tuple[Tuple[Sid, int], ...] = ()

    @property
    def size(self) -> int:
        """Abstract wire size used for byte accounting."""
        return (
            1
            + len(self.services)
            + len(self.pins)
            + 3 * len(self.edges)
            + len(self.repins)
        )


class FederationOutcome(enum.Enum):
    """How a federation run ended.

    ``COMMITTED`` is an alias of ``SUCCEEDED``: a session that meets its
    requirement is committed.  ``DEGRADED`` sessions are *served* -- they
    carry a flow graph -- but below their bandwidth requirement, with an
    explicit :class:`~repro.core.degradation.DegradationRecord`.
    """

    SUCCEEDED = "succeeded"
    COMMITTED = "succeeded"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass
class SFlowConfig:
    """Tunables of the distributed algorithm.

    Attributes:
        horizon: overlay-hop radius of each node's local view (paper: 2).
        use_link_state: materialise local views by running the bounded
            link-state protocol on the simulator instead of reading them off
            the overlay directly (slower, but fully distributed end to end;
            rebuilt per run, where the overlay's own views are shared).
            Either kind is read-only: a crash is suspected, never written in.
        loss_rate: probability that the transport loses any one protocol
            message (sfederate or ack).  Non-zero rates switch the protocol
            into reliable mode: receivers acknowledge and deduplicate,
            senders retransmit after ``retransmit_timeout`` up to
            ``max_retries`` times.  The consumer's initial request is
            assumed to use a reliable channel.
        loss_seed: RNG seed of the loss process (runs are reproducible).
        retransmit_timeout: virtual time before an unacknowledged
            ``sfederate`` is resent.
        max_retries: retransmissions before the sender declares the
            receiver dead (suspected) and hands over to failover.
        max_failovers: how many times in one run an upstream node may
            re-pin a suspected-dead downstream instance to its next-best
            candidate (re-running the local reduction step with suspects
            excluded); exhausting the budget escalates to re-federation.
        failover_backoff: base of the exponential virtual-time backoff
            between failover attempts (doubles per attempt of a send).
        deadline: optional end-to-end virtual-time deadline enforced on the
            sink side; every expiry triggers a re-federation until
            ``max_refederations`` is exhausted.
        max_refederations: how many times the consumer may restart the
            protocol for the residual requirement (``k`` in the docs).
        required_bandwidth: optional end-to-end bandwidth requirement.
            When set, a completing run evaluates its delivered bandwidth
            (flow-graph bottleneck, gray degradation ramps applied) and,
            when short, climbs the degradation ladder -- in-place repair,
            hysteresis-bounded re-federation, serve DEGRADED -- instead of
            silently committing a starved graph.  ``None`` (default): a
            completed graph is committed whatever it delivers.
        refederate_hysteresis: minimum virtual time between two
            degradation-triggered re-federations (flap-storm damping).
        detector: optional phi-accrual detector config; when set, every
            message arrival feeds per-peer inter-arrival histories and a
            periodic sweep suspects silent peers *before* retry exhaustion
            does.
        breaker: optional circuit-breaker config; when set, peers that
            exhaust their retries are quarantined and later sends fail
            over immediately instead of burning a full retry cycle.
        retry_policy: optional bounded retry budget with exponential
            backoff + jitter.  ``None`` (default) is the fixed schedule
            ``RetryPolicy(max_attempts=max_retries + 1,
            base=cap=retransmit_timeout, multiplier=1, jitter=0)``.
    """

    horizon: int = 2
    use_link_state: bool = False
    loss_rate: float = 0.0
    loss_seed: int = 0
    retransmit_timeout: float = 30.0
    max_retries: int = 25
    max_failovers: int = 8
    failover_backoff: float = 10.0
    deadline: Optional[float] = None
    max_refederations: int = 2
    required_bandwidth: Optional[float] = None
    refederate_hysteresis: float = 50.0
    detector: Optional[DetectorConfig] = None
    breaker: Optional[BreakerConfig] = None
    retry_policy: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError("loss_rate must be in [0, 1)")
        if self.retransmit_timeout <= 0:
            raise ValueError("retransmit_timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_failovers < 0:
            raise ValueError("max_failovers must be >= 0")
        if self.failover_backoff <= 0:
            raise ValueError("failover_backoff must be > 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be > 0 (or None)")
        if self.max_refederations < 0:
            raise ValueError("max_refederations must be >= 0")
        if self.required_bandwidth is not None and self.required_bandwidth <= 0:
            raise ValueError("required_bandwidth must be > 0 (or None)")
        if self.refederate_hysteresis < 0:
            raise ValueError("refederate_hysteresis must be >= 0")


@dataclass
class SFlowResult:
    """Everything a federation run produced and measured.

    ``flow_graph`` is ``None`` exactly when ``outcome`` is
    :attr:`FederationOutcome.FAILED`; ``failure_reason`` then says why and
    ``recovery_log`` records every step the runtime took trying to save the
    run (crashes observed, failovers, re-federations, abandonments).
    A :attr:`FederationOutcome.DEGRADED` run *does* carry a flow graph --
    served at the best achievable bandwidth -- plus the explicit
    :class:`~repro.core.degradation.DegradationRecord` saying how far
    short it falls.
    """

    flow_graph: Optional[ServiceFlowGraph]
    convergence_time: float
    messages: int
    bytes: int
    local_compute_seconds: float
    node_activations: int
    link_state_messages: int = 0
    per_node_compute: Dict[ServiceInstance, float] = field(default_factory=dict)
    #: Reliability accounting (zero on a lossless transport).
    retransmissions: int = 0
    lost_messages: int = 0
    acks: int = 0
    #: Crash-tolerance accounting (empty/zero on an undisturbed run).
    outcome: FederationOutcome = FederationOutcome.SUCCEEDED
    failure_reason: str = ""
    recovery_log: Tuple[RecoveryEvent, ...] = ()
    crashes: int = 0
    failovers: int = 0
    refederations: int = 0
    #: Graceful-degradation accounting (None/empty on requirement-free runs).
    degradation: Optional[DegradationRecord] = None
    achieved_bandwidth: Optional[float] = None
    suspected: Tuple[str, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.outcome is FederationOutcome.SUCCEEDED

    @property
    def session_state(self) -> SessionState:
        """The run's lifecycle state (served runs are COMMITTED/DEGRADED)."""
        if self.outcome is FederationOutcome.FAILED:
            return SessionState.FAILED
        if self.outcome is FederationOutcome.DEGRADED:
            return SessionState.DEGRADED
        return SessionState.COMMITTED


class _PlanningView(AbstractView):
    """What one node knows when it plans: its local view plus the directory.

    * Instances inside the local view are priced by shortest-widest routing
      *within the view*, read off the view's memoised
      :meth:`~repro.network.overlay.OverlayGraph.hop_row` (one oracle
      lookup per view and source, shared by every step that plans on it).
    * Services invisible from here fall back to the global instance
      directory (SID listings are assumed discoverable, path qualities are
      not).  Edges touching out-of-view instances are priced with the
      per-instance **gossip hints**: a single scalar summary (mean incident
      link quality) each instance publishes alongside its directory entry.
      That is a realistic, cheap aggregate -- constant state per instance,
      propagated like any membership record -- and it gives blind decisions
      a fighting chance without leaking actual topology, so sFlow's
      correctness decays gracefully with network size (Fig. 10(a)) instead
      of collapsing to a coin flip.
    * ``excluded`` removes suspected-dead instances from every candidate
      pool (failover re-planning); pinned decisions are honoured verbatim.
    """

    def __init__(
        self,
        residual: ServiceRequirement,
        local_view: OverlayGraph,
        directory: Dict[Sid, Tuple[ServiceInstance, ...]],
        pins: Dict[Sid, ServiceInstance],
        hints: Callable[[], Mapping[ServiceInstance, PathQuality]],
        excluded: FrozenSet[ServiceInstance] = frozenset(),
    ) -> None:
        self._local = local_view
        self._hints = hints
        self._pools: Dict[Sid, Tuple[ServiceInstance, ...]] = {}
        for sid in residual.services():
            pinned = pins.get(sid)
            if pinned is not None:
                self._pools[sid] = (pinned,)
                continue
            # Instances the view shows, else whatever the directory lists.
            for known in (local_view.instances_of(sid), directory.get(sid, ())):
                pool = tuple(inst for inst in known if inst not in excluded)
                if pool:
                    break
            self._pools[sid] = pool

    def instances_of(self, sid: Sid) -> Tuple[ServiceInstance, ...]:
        return self._pools.get(sid, ())

    def price_row(
        self, src: ServiceInstance, dsts: Sequence[ServiceInstance]
    ) -> List[Hop]:
        # Only an in-view source has a row, read once some destination is
        # in view too, and a row holds only in-view instances: a found hop
        # needs no membership test.  Rows are memoised on the view, which
        # every planning step on an overlay shares.
        local = self._local
        if src in local and any(dst in local for dst in dsts):
            priced = local.hop_row(src)
        else:
            priced = None
        # A pair with an endpoint beyond the horizon combines whatever
        # gossip hints exist, defaulting to an optimistic uniform prior, the
        # local view's mean link quality; both are asked for at the first
        # such pair, so a view that prices everything never computes them.
        hints = hint = prior = None
        row: List[Hop] = []
        for dst in dsts:
            if priced is not None:
                hop = priced.get(dst)
                if hop is not None or dst in local:
                    row.append(hop)
                    continue
            if prior is None:
                prior = local.mean_link_quality() or PathQuality(1.0, 1.0)
                hints = self._hints()
                hint = hints.get(src, prior)
            other = hints.get(dst, prior)
            bandwidth = min(hint.bandwidth, other.bandwidth)
            latency = (hint.latency + other.latency) / 2.0
            row.append(
                (bandwidth, latency) if bandwidth > 0 and latency < math.inf else None
            )
        return row


_Pins = Dict[Sid, ServiceInstance]
_Edges = Dict[Tuple[Sid, Sid], FlowEdge]
#: What a node knows once its inbox is merged: pins, re-pin generations, edges.
_Decisions = Tuple[_Pins, Dict[Sid, int], _Edges]


def _merge_decisions(
    parts: Iterable[
        Tuple[Iterable[Tuple[Sid, ServiceInstance]], Dict[Sid, int], Iterable[FlowEdge]]
    ],
    where: object,
) -> _Decisions:
    """Union of the ``(pins, re-pin generations, flow edges)`` several
    ``sfederate`` branches carry.  A failover re-pin (higher generation)
    supersedes the stale decision, equal generations must agree, and flow
    edges that still reference a superseded pin are dropped."""
    pins: _Pins = {}
    gens: Dict[Sid, int] = {}
    edges: _Edges = {}
    for part_pins, part_gens, part_edges in parts:
        for sid, inst in part_pins:
            gen = part_gens.get(sid, 0)
            if sid not in pins or gen > gens[sid]:
                pins[sid] = inst
                gens[sid] = gen
            elif gen == gens[sid] and pins[sid] != inst:
                raise FederationError(
                    f"inconsistent pins for {sid!r} at {where}: "
                    f"{pins[sid]} vs {inst}"
                )
        for edge in part_edges:
            edges[edge.requirement_edge] = edge
    edges = {
        key: edge
        for key, edge in edges.items()
        if pins.get(edge.src.sid) == edge.src
        and pins.get(edge.dst.sid) == edge.dst
    }
    return pins, gens, edges


class _SFlowNode:
    """The per-instance protocol endpoint: a callback on its mailbox."""

    def __init__(self, me: ServiceInstance, federation: "_Federation") -> None:
        self.me = me
        self.fed = federation
        self.recovery = federation.recovery
        self.inbox: List[SFederate] = []
        self.generation = 0
        self._seen_ids: set = set()
        federation.network.register(me).serve(self.receive)

    def reset(self) -> None:
        """Crash-stop: the node's volatile protocol state is lost."""
        self.inbox.clear()
        self._seen_ids.clear()

    def receive(self, envelope: Envelope) -> None:  # sflow: noqa[SFL015] -- _activate's FederationError surfaces from Environment.step and _Federation.run catches it as "protocol error"
        payload = envelope.payload
        self.recovery.observe_peer(envelope.src)
        if isinstance(payload, Ack):
            self.recovery.acknowledge(payload.msg_id)
            return
        message: SFederate = payload
        if message.msg_id:
            # Reliable mode: always (re-)acknowledge -- the previous ack
            # may have been lost, and a stale round's retransmitter
            # must be silenced too.
            self.recovery.send_ack(self.me, envelope.src, message.msg_id)
        if message.generation < self.generation:
            return  # stale protocol round: never act on it
        if message.generation > self.generation:
            # A re-federation superseded everything this node had.
            self.generation = message.generation
            self.reset()
        if message.msg_id:
            if message.msg_id in self._seen_ids:
                return  # process each message once
            self._seen_ids.add(message.msg_id)
        self.inbox.append(message)
        expected = max(1, self.fed.requirement.in_degree(self.me.sid))
        if len(self.inbox) < expected:
            return
        self._activate(envelope.mid)

    def _activate(self, cause: int = 0) -> None:
        fed = self.fed
        my_sid = self.me.sid
        fed.result.node_activations += 1
        _M_ACTIVATIONS.inc()
        # ``cause`` is the network msg_id of the delivery that completed
        # this node's in-degree -- the causal profiler's join key.
        fed.span.event("node.activate", instance=str(self.me), cause=cause)
        decisions = pins, pin_gens, edges = _merge_decisions(
            (
                (message.pins, dict(message.repins), message.edges)
                for message in self.inbox
            ),
            self.me,
        )
        if pins.get(my_sid) != self.me:
            raise FederationError(
                f"{self.me} received an sfederate pinned to {pins.get(my_sid)}"
            )

        successors = fed.requirement.successors(my_sid)
        if not successors:
            fed.complete_sink(my_sid, self.generation, decisions)
            return

        # Pin every service whose decision responsibility lies here: the
        # node's dominator-tree children not pinned yet.  A plan is read
        # for nothing else, so a node with none of them plans nothing.
        new_pins = dict(pins)
        undecided = [sid for sid in fed.children[my_sid] if sid not in pins]
        if undecided:
            assignment = fed.plan(self.me, fed.residual(my_sid), pins)
            if assignment is None:
                # The local view offers no feasible plan (e.g. a partitioned
                # vicinity); fall back to blind directory choices so the
                # federation still terminates -- with poor quality, as it should.
                assignment = {
                    sid: self.recovery.live_instance(sid) or fed.directory[sid][0]
                    for sid in undecided
                }
            for sid in undecided:
                new_pins[sid] = assignment[sid]

        for succ_sid in successors:
            succ_inst = new_pins.get(succ_sid)
            if succ_inst is None:
                raise FederationError(
                    f"no pin for immediate downstream {succ_sid!r} at {self.me}; "
                    f"dominator {fed.idom[succ_sid]!r} failed to decide"
                )
            message, latency = fed.outgoing(
                self.me, succ_inst, new_pins, pin_gens, edges, self.generation
            )
            fed.dispatch(self.me, succ_inst, message, latency)


class _Federation:
    """Shared state of one distributed federation run; what exists only
    because messages or nodes can fail is behind :attr:`recovery`."""

    def __init__(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        source_instance: ServiceInstance,
        config: SFlowConfig,
        chaos: Optional[ChaosPlan],
        stopwatch: Stopwatch,
    ) -> None:
        self.requirement = requirement
        self.overlay = overlay
        self.source_instance = source_instance
        self.config = config
        #: Host-compute measurements (solver timing, setup cost) go through
        #: an injectable clock; protocol code never reads wall time directly.
        self.stopwatch = stopwatch
        self.env = Environment()
        self.done: Event = self.env.event()
        #: Root span of the session; a real span only while a trace sink is
        #: attached, otherwise the free no-op singleton.
        self.span = NULL_SPAN
        #: The session's ledger: nodes and the recovery layer count into it
        #: as the run goes; :meth:`run` completes and returns it.
        self.result = SFlowResult(
            flow_graph=None, convergence_time=0.0, messages=0, bytes=0,
            local_compute_seconds=0.0, node_activations=0,
        )
        self.recovery = _Recovery(self, chaos)
        self.network = self.recovery.network
        self.idom = requirement.immediate_dominators()
        #: Each service's residual services, as every ``sfederate`` to it carries.
        self.downstream = {sid: requirement.downstream(sid) for sid in requirement.services()}
        #: Each service's dominator-tree children: the services its node pins.
        self.children: Dict[Sid, List[Sid]] = {sid: [] for sid in requirement.services()}
        for sid in requirement.services():
            if self.idom[sid] != sid:
                self.children[self.idom[sid]].append(sid)
        #: Every local planning step (and in-place repair) solves with this.
        self.solver = ReductionSolver()
        _t0 = self.stopwatch.read()
        self.directory: Dict[Sid, Tuple[ServiceInstance, ...]] = {
            sid: overlay.instances_of(sid) for sid in requirement.services()
        }
        _t1 = self.stopwatch.read()
        # Ground-truth abstract graph used only to realise committed edges
        # (established routing state), never for decision making; building
        # it rejects a requirement with an instance-less service.
        self.abstract = AbstractGraph.build(requirement, overlay)
        _t2 = self.stopwatch.read()
        #: The views nodes earned by protocol under link-state; otherwise a
        #: node plans on its ego view, which the overlay memoises.
        self.views: Dict[ServiceInstance, OverlayGraph] = {}
        if config.use_link_state:
            report = collect_local_views(overlay, config.horizon)
            self.views = report.views
            self.result.link_state_messages = report.messages
        _t3 = self.stopwatch.read()
        #: Wall-clock setup cost, reported as zero-length sim-time spans by
        #: :meth:`run` -- setup happens before the DES clock starts ticking.
        self._setup_seconds = {
            "discovery": (_t1 - _t0) + (_t3 - _t2),
            "abstract_graph": _t2 - _t1,
        }
        self._sink_parts: Dict[Sid, _Decisions] = {}
        #: The protocol nodes so far: one per instance ever addressed.
        self.nodes: Dict[ServiceInstance, _SFlowNode] = {}
        #: Protocol round; bumped by every re-federation.
        self.generation = 0
        self._residuals: Dict[Sid, ServiceRequirement] = {}

    # -- services used by nodes (and by failover re-planning) --------------------

    def endpoint(self, inst: ServiceInstance) -> _SFlowNode:
        """The node of ``inst``, created -- its mailbox registered and
        served -- when an ``sfederate`` is first addressed to it.  Arming a
        getter schedules nothing, so a node born at its first send hears
        exactly what one waiting since the start would have."""
        node = self.nodes.get(inst)
        if node is None:
            node = self.nodes[inst] = _SFlowNode(inst, self)
        return node

    @functools.cached_property
    def fallback_latency(self) -> float:
        """Latency assumed for hops no committed route prices (acks, sends
        over an unreachable edge): the overlay's mean link latency, read at
        the first such hop.  Only a running session sends, so it is never
        first read after :meth:`run` lets go of the overlay."""
        return self.overlay.mean_link_latency() or 1.0

    def residual(self, sid: Sid) -> ServiceRequirement:
        """The requirement rooted at ``sid`` -- what its node plans on --
        built once per session, and only for a node that plans."""
        found = self._residuals.get(sid)
        if found is None:
            found = self._residuals[sid] = self.requirement.subrequirement(self.downstream[sid])
        return found

    def plan(
        self, me: ServiceInstance, residual: ServiceRequirement, pins: _Pins
    ) -> Optional[_Pins]:
        """One (timed) local planning step: ``me`` solves ``residual`` on
        its local view, pins honoured and suspects excluded.  ``None`` when
        the view offers no feasible plan."""
        started = self.stopwatch.read()
        view = self.views.get(me)
        if view is None:
            view = self.overlay.ego_view(me, self.config.horizon)
        planning = _PlanningView(
            residual,
            view,
            self.directory,
            pins,
            self.overlay.gossip_hints,
            excluded=frozenset(self.recovery.suspected),
        )
        try:
            assignment, _quality = self.solver.solve_assignment(
                residual, planning, source_instance=me
            )
        except FederationError:
            assignment = None
        self.record_compute(me, self.stopwatch.read() - started)
        return assignment

    def outgoing(
        self,
        src: ServiceInstance,
        dst: ServiceInstance,
        pins: _Pins,
        pin_gens: Dict[Sid, int],
        edges: _Edges,
        generation: int,
    ) -> Tuple[SFederate, float]:
        """The ``sfederate`` ``src`` sends to ``dst`` -- the decisions so
        far plus the edge this hop commits -- and the latency it travels at."""
        route = self.abstract.edge(src, dst)
        if route is None:
            flow_edge = FlowEdge(src, dst, UNREACHABLE, ())
        else:
            flow_edge = FlowEdge(src, dst, route.quality, route.overlay_path)
        out_edges = dict(edges)
        out_edges[flow_edge.requirement_edge] = flow_edge
        message = SFederate(
            services=self.downstream[dst.sid],
            pins=tuple(sorted(pins.items())),
            edges=tuple(out_edges[k] for k in sorted(out_edges)),
            msg_id=self.recovery.next_msg_id(),
            generation=generation,
            repins=tuple(sorted(item for item in pin_gens.items() if item[1] > 0)),
        )
        latency = (
            flow_edge.quality.latency
            if flow_edge.quality.reachable
            else self.fallback_latency
        )
        return message, latency

    def dispatch(
        self,
        src: ServiceInstance,
        dst: ServiceInstance,
        message: SFederate,
        latency: float,
    ) -> None:
        """Send an ``sfederate``: fire-and-forget when the transport is
        safe, supervised (acks, retransmission, failover) otherwise."""
        _M_SFEDERATE.inc()
        if message.msg_id == 0:
            self.endpoint(dst)
            self.network.send(src, dst, message, latency=latency, size=message.size)
            return
        self.env.process(self.recovery.supervise(src, dst, message, latency))

    def record_compute(self, instance: ServiceInstance, seconds: float) -> None:
        self.result.local_compute_seconds += seconds
        per_node = self.result.per_node_compute
        per_node[instance] = per_node.get(instance, 0.0) + seconds

    # -- rounds, sink collection, assembly ---------------------------------------

    def start_round(self) -> None:
        """The consumer hands the requirement to the source node (assumed
        reliable) -- at the start, and again on every re-federation."""
        self._sink_parts.clear()
        initial = SFederate(
            services=self.downstream[self.requirement.source],
            pins=((self.requirement.source, self.source_instance),),
            edges=(),
            generation=self.generation,
        )
        self.endpoint(self.source_instance)
        self.network.send(
            "consumer",
            self.source_instance,
            initial,
            latency=_INITIAL_LATENCY,
            size=initial.size,
        )

    def complete_sink(
        self, sink_sid: Sid, generation: int, decisions: _Decisions
    ) -> None:
        if generation != self.generation:
            return  # a stale round's sink part; the restart superseded it
        self._sink_parts[sink_sid] = decisions
        if len(self._sink_parts) == len(self.requirement.sinks):
            self.recovery.complete()

    def assemble(self) -> ServiceFlowGraph:
        assignment, _gens, edges = _merge_decisions(
            (
                (pins.items(), pin_gens, part_edges.values())
                for pins, pin_gens, part_edges in self._sink_parts.values()
            ),
            "the sinks",
        )
        return ServiceFlowGraph(self.requirement, assignment, edges.values())

    # -- driving -----------------------------------------------------------------

    def run(self) -> SFlowResult:
        recovery = self.recovery
        self.span = obs_tracer().session(
            "sflow.federate",
            clock=SimClock(self.env),
            services=len(self.directory),
            instances=len(self.overlay),
            source=str(self.source_instance),
            chaos=recovery.chaos.active,
        )
        # Causal stamping: while the session span is live, the transport
        # tags every send/deliver with a msg_id so the profiler can join
        # activations back through each hop (repro.obs.causal).
        self.network.set_trace_span(self.span)
        # Setup happened before the DES clock started ticking: report the
        # discovery and abstract-graph phases as zero-length sim-time spans
        # carrying their wall-clock cost.
        for phase in ("discovery", "abstract_graph"):
            self.span.child(phase).end(
                wall_seconds=self._setup_seconds[phase]
            )
        recovery.start()
        negotiate = self.span.child("negotiate")
        self.start_round()
        try:
            self.env.run(until=self.done)
        except FederationError as exc:
            # A node hit a protocol invariant violation mid-simulation;
            # surface it as a structured failure, never as an exception
            # escaping Environment.run().
            recovery.fail(f"protocol error: {exc}")
        except SimulationError as exc:
            # The event queue drained without completing -- e.g. every
            # message path died with no failover/deadline left to drive
            # recovery.  Starvation is a failure, not a crash.
            recovery.fail(f"protocol starved: {exc}")
        negotiate.end(generations=self.generation + 1)
        recovery_latency = recovery.settle()
        result, stats = self.result, self.network.stats
        if result.flow_graph is None:
            result.outcome = FederationOutcome.FAILED
        elif result.degradation is not None:
            result.outcome = FederationOutcome.DEGRADED
        _M_SESSIONS.inc(outcome=result.outcome.value)
        _H_FEDERATION_TIME.observe(self.env.now)
        result.convergence_time = self.env.now
        result.messages, result.bytes = stats.messages, stats.bytes
        result.lost_messages = stats.lost
        self.span.end(
            outcome=result.outcome.value,
            messages=result.messages,
            bytes=result.bytes,
            convergence_time=self.env.now,
            crashes=result.crashes,
            failovers=result.failovers,
            refederations=result.refederations,
            retransmissions=result.retransmissions,
            recovery_latency=recovery_latency,
            failure_reason=result.failure_reason,
        )
        self.network.set_trace_span(None)
        self.span = NULL_SPAN
        # Session over.  The recovery layer and every node created point back
        # at this object (and each node's armed mailbox getter at its node),
        # a reference cycle: let go of the overlay here, or it, its ego views
        # and their trees outlive the caller until a full GC.
        del self.views, self.abstract, self.overlay
        return result


class SFlowAlgorithm:
    """The distributed algorithm behind the
    :class:`~repro.core.types.FederationAlgorithm` interface.

    ``solve`` runs a complete simulated federation and returns the final
    flow graph; the full :class:`SFlowResult` (convergence time, message
    counts, per-node compute, recovery log) of the most recent run is kept
    in :attr:`last_result`.
    """

    name = "sflow"

    def __init__(
        self,
        config: Optional[SFlowConfig] = None,
        *,
        stopwatch: Optional[Stopwatch] = None,
    ):
        self.config = config or SFlowConfig()
        #: Injectable host clock used for the solver-timing measurements
        #: (``local_compute_seconds``); tests pass a scripted fake.
        self.stopwatch = stopwatch if stopwatch is not None else Stopwatch()
        self.last_result: Optional[SFlowResult] = None

    def solve(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        rng: Optional[random.Random] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> ServiceFlowGraph:
        result = self.federate(
            requirement, overlay, source_instance=source_instance, chaos=chaos
        )
        if result.flow_graph is None:
            raise FederationError(
                result.failure_reason or "federation failed"
            )
        return result.flow_graph

    def federate(
        self,
        requirement: ServiceRequirement,
        overlay: OverlayGraph,
        *,
        source_instance: Optional[ServiceInstance] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> SFlowResult:
        """Run the distributed federation and return the full result.

        With a :class:`~repro.network.failures.ChaosPlan` the run is
        disturbed mid-protocol; recovery is attempted per the config and an
        unrecoverable run comes back as a structured
        ``outcome=FederationOutcome.FAILED`` result -- this method never
        raises for in-protocol failures."""
        if source_instance is None:
            pool = overlay.instances_of(requirement.source)
            if not pool:
                raise FederationError(
                    f"source service {requirement.source!r} has no instance"
                )
            source_instance = pool[0]
        self.last_result = _Federation(
            requirement, overlay, source_instance, self.config, chaos, self.stopwatch
        ).run()
        return self.last_result
