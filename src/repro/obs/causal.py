"""Causal profiling of flight recordings: critical paths, blame, slack.

The flight recorder captures two independent causal structures:

* the **span tree** -- ``(trace, span, parent)`` ids on every span record
  (session, discovery, abstract_graph, negotiate, ...);
* **message causality** -- ``channel.send`` / ``channel.deliver`` events
  stamped with a per-network ``msg_id`` (:mod:`repro.sim.channels`), and
  ``node.activate`` events carrying ``cause``: the msg_id whose delivery
  completed the node's in-degree (:mod:`repro.core.sflow`).

This module joins the two into a per-session causal DAG and answers the
question the raw timeline cannot: *why* did a federation take as long as
it did?  Walking backward from the last activation, each hop decomposes
into

* ``transmit`` -- send to deliver on one link (network latency + jitter),
* ``process``  -- deliver to the activation it triggered,
* ``emit``     -- an activation immediately producing the next send,
* ``backoff``  -- sim-time a sender sat waiting before (re)sending:
  retransmission timers, failover backoff, detector sweeps,
* ``initial``  -- the consumer's kick-off message (no prior activation).

On top of the path: top-k blame tables per link and per node, self- vs.
child-time attribution per span name, and **slack** -- how much each
off-path delivery could have grown before it moved the critical path.

Everything here is a pure function of a :class:`~repro.obs.recorder.Recording`
(deterministic: same recording, same blame table) and every aggregate folds
associatively in submission order, so campaign-level aggregation is
bit-identical between serial and parallel evaluation workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.recorder import Recording

__all__ = [
    "CampaignProfile",
    "CriticalStep",
    "SessionProfile",
    "aggregate_profiles",
    "merge_campaigns",
    "profile_recording",
    "profile_session",
]

#: Step kinds in canonical report order.
STEP_KINDS = ("initial", "transmit", "process", "emit", "backoff")


@dataclass(frozen=True)
class _Ev:
    """One point event, keyed for deterministic ordering.

    ``seq`` is the event's position in the recording stream -- the
    recorder writes in arrival order, so ``(time, seq)`` is a total order
    consistent with simulation causality.
    """

    seq: int
    time: float
    attrs: Mapping[str, Any]


@dataclass(frozen=True)
class CriticalStep:
    """One hop of a session's critical path (chronological order)."""

    kind: str  # one of STEP_KINDS
    src: str
    dst: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }


@dataclass
class SessionProfile:
    """The causal profile of one recorded session (root span)."""

    trace: int
    name: str
    outcome: Optional[str]
    start: float
    end: float
    #: Critical path, chronological; empty when the session recorded no
    #: causally-stamped activity (e.g. a monitor session).
    steps: Tuple[CriticalStep, ...] = ()
    #: kind -> (step count, total sim-time) along the critical path.
    kind_blame: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: (src, dst) -> total transmit sim-time on the critical path.
    link_blame: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: instance -> total process/emit/backoff sim-time on the path.
    node_blame: Dict[str, float] = field(default_factory=dict)
    #: span name -> (count, total, self, wall_seconds); ``self`` excludes
    #: child-span time, so blocked-on-children time is the difference.
    span_table: Dict[str, Tuple[int, float, float, float]] = field(
        default_factory=dict
    )
    #: (src, dst) -> minimum slack over off-path deliveries on that link:
    #: the sim-time that link's latency could grow before it moves the
    #: critical path.  Links on the path have slack 0 and are excluded.
    link_slack: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: Messages with a send but no deliver (lost / crashed / partitioned).
    undelivered: int = 0

    @property
    def duration(self) -> float:
        """Sim-time length of the session (root-span interval)."""
        return self.end - self.start

    @property
    def path_duration(self) -> float:
        """Sim-time covered by the critical path (start to last activation)."""
        return sum(step.duration for step in self.steps)

    def top_links(self, k: int = 5) -> List[Tuple[str, str, float]]:
        ranked = sorted(
            self.link_blame.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [(src, dst, total) for (src, dst), total in ranked[:k]]

    def top_nodes(self, k: int = 5) -> List[Tuple[str, float]]:
        ranked = sorted(
            self.node_blame.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:k]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace,
            "name": self.name,
            "outcome": self.outcome,
            "duration": self.duration,
            "path_duration": self.path_duration,
            "steps": [step.as_dict() for step in self.steps],
            "kind_blame": {
                kind: {"count": count, "total": total}
                for kind, (count, total) in sorted(self.kind_blame.items())
            },
            "link_blame": {
                f"{src}->{dst}": total
                for (src, dst), total in sorted(self.link_blame.items())
            },
            "node_blame": dict(sorted(self.node_blame.items())),
            "span_table": {
                name: {
                    "count": count,
                    "total": total,
                    "self": self_time,
                    "wall_seconds": wall,
                }
                for name, (count, total, self_time, wall) in sorted(
                    self.span_table.items()
                )
            },
            "link_slack": {
                f"{src}->{dst}": slack
                for (src, dst), slack in sorted(self.link_slack.items())
            },
            "undelivered": self.undelivered,
        }


def profile_session(recording: Recording, trace: int) -> Optional[SessionProfile]:
    """Profile one session (root span) of a recording.

    Returns ``None`` when ``trace`` has no root span in the recording.
    Sessions without causal events (no ``channel.*`` stamps) yield a
    profile with an empty path but a populated span table.
    """
    root: Optional[Dict[str, Any]] = None
    for span in recording.spans:
        if span.get("trace") == trace and span.get("parent") is None:
            root = span
            break
    if root is None:
        return None
    profile = SessionProfile(
        trace=trace,
        name=str(root.get("name")),
        outcome=(root.get("attrs") or {}).get("outcome"),
        start=float(root.get("start") or 0.0),
        end=float(root.get("end") or 0.0),
    )
    profile.span_table = _span_table(recording.spans_of(trace))

    sends: Dict[int, _Ev] = {}
    send_meta: Dict[int, Tuple[str, str, str]] = {}  # mid -> (src, dst, cls)
    delivers: Dict[int, List[_Ev]] = {}
    acts_by_node: Dict[str, List[_Ev]] = {}
    acts: List[Tuple[str, _Ev]] = []  # (instance, event) in stream order
    for seq, record in enumerate(recording.events_of(trace)):
        name = record.get("name")
        attrs = record.get("attrs") or {}
        ev = _Ev(seq=seq, time=float(record.get("time") or 0.0), attrs=attrs)
        if name == "channel.send":
            mid = int(attrs.get("msg_id") or 0)
            if mid and mid not in sends:
                sends[mid] = ev
                send_meta[mid] = (
                    str(attrs.get("src")),
                    str(attrs.get("dst")),
                    str(attrs.get("cls", "")),
                )
        elif name == "channel.deliver":
            mid = int(attrs.get("msg_id") or 0)
            if mid:
                delivers.setdefault(mid, []).append(ev)
        elif name == "node.activate":
            instance = str(attrs.get("instance"))
            acts_by_node.setdefault(instance, []).append(ev)
            acts.append((instance, ev))
    profile.undelivered = sum(1 for mid in sends if mid not in delivers)
    if not acts:
        return profile

    # Terminal: the last activation in (time, seq) order -- for a
    # successful federation that is the sink completing the flow graph.
    terminal_node, terminal = max(
        acts, key=lambda pair: (pair[1].time, pair[1].seq)
    )
    steps = _walk_critical_path(
        profile.start, terminal_node, terminal,
        sends, send_meta, delivers, acts_by_node,
    )
    profile.steps = tuple(steps)
    for step in steps:
        count, total = profile.kind_blame.get(step.kind, (0, 0.0))
        profile.kind_blame[step.kind] = (count + 1, total + step.duration)
        if step.kind == "transmit":
            link = (step.src, step.dst)
            profile.link_blame[link] = (
                profile.link_blame.get(link, 0.0) + step.duration
            )
        elif step.kind in ("process", "emit", "backoff"):
            profile.node_blame[step.dst] = (
                profile.node_blame.get(step.dst, 0.0) + step.duration
            )
    profile.link_slack = _link_slack(
        steps, terminal, sends, send_meta, delivers, acts_by_node, acts
    )
    return profile


def profile_recording(recording: Recording) -> List[SessionProfile]:
    """Profile every session of a recording, in trace order."""
    profiles: List[SessionProfile] = []
    for session in recording.sessions():
        trace = session.get("trace")
        if trace is None:
            continue
        profile = profile_session(recording, int(trace))
        if profile is not None:
            profiles.append(profile)
    return profiles


# -- critical-path reconstruction -------------------------------------------------


def _latest_at_or_before(
    events: List[_Ev], time: float, seq: int
) -> Optional[_Ev]:
    """Latest event with ``(time, seq)`` at or before the given point."""
    best: Optional[_Ev] = None
    for ev in events:
        if (ev.time, ev.seq) <= (time, seq):
            if best is None or (ev.time, ev.seq) > (best.time, best.seq):
                best = ev
    return best


def _first_at_or_after(
    events: List[_Ev], time: float, seq: int
) -> Optional[_Ev]:
    """Earliest event with ``(time, seq)`` at or after the given point."""
    best: Optional[_Ev] = None
    for ev in events:
        if (ev.time, ev.seq) >= (time, seq):
            if best is None or (ev.time, ev.seq) < (best.time, best.seq):
                best = ev
    return best


def _walk_critical_path(
    session_start: float,
    terminal_node: str,
    terminal: _Ev,
    sends: Dict[int, _Ev],
    send_meta: Dict[int, Tuple[str, str, str]],
    delivers: Dict[int, List[_Ev]],
    acts_by_node: Dict[str, List[_Ev]],
) -> List[CriticalStep]:
    """Backward walk from the terminal activation to the session start.

    Each iteration peels one hop: the activation's ``cause`` message is
    looked up, its deliver and send bracket the transmit step, and the
    emitting side is the latest earlier activation at the send's source
    (or the session start for the consumer's kick-off).  Ties break on
    stream order (``seq``), so the walk is deterministic.
    """
    steps: List[CriticalStep] = []
    node, act = terminal_node, terminal
    visited = 0
    limit = len(sends) + sum(len(evs) for evs in acts_by_node.values()) + 1
    while visited <= limit:
        visited += 1
        cause = int(act.attrs.get("cause") or 0)
        send = sends.get(cause)
        if not cause or send is None:
            # Unstamped activation (pre-causal recording): anchor to start.
            steps.append(
                CriticalStep("initial", "start", node, session_start, act.time)
            )
            break
        deliver = _latest_at_or_before(
            delivers.get(cause, []), act.time, act.seq
        )
        src, dst, _cls = send_meta[cause]
        if deliver is not None:
            steps.append(
                CriticalStep("process", dst, node, deliver.time, act.time)
            )
            steps.append(
                CriticalStep("transmit", src, dst, send.time, deliver.time)
            )
        else:
            # Cause recorded but its deliver was not (truncated recording):
            # collapse transmit+process into one transmit step.
            steps.append(CriticalStep("transmit", src, dst, send.time, act.time))
        previous = _latest_at_or_before(
            acts_by_node.get(src, []), send.time, send.seq
        )
        if previous is None:
            # The consumer's kick-off (or a sender that never activated).
            steps.append(
                CriticalStep("initial", src, src, session_start, send.time)
            )
            break
        kind = "backoff" if send.time > previous.time else "emit"
        steps.append(CriticalStep(kind, src, src, previous.time, send.time))
        node, act = src, previous
    steps.reverse()
    return steps


def _link_slack(
    steps: List[CriticalStep],
    terminal: _Ev,
    sends: Dict[int, _Ev],
    send_meta: Dict[int, Tuple[str, str, str]],
    delivers: Dict[int, List[_Ev]],
    acts_by_node: Dict[str, List[_Ev]],
    acts: List[Tuple[str, _Ev]],
) -> Dict[Tuple[str, str], float]:
    """Minimum slack per off-critical-path link.

    Slack of an activation = how much later it could have fired without
    delaying the terminal: 0 for the terminal, else the minimum over its
    outbound messages of (join float at the consuming activation) + (that
    activation's slack).  The join float of a delivery is the sim-time it
    sat waiting for the consuming node's in-degree to fill.  A delivery's
    slack then caps how much its link latency could grow before the
    critical path moves through it.
    """
    # Consuming activation per delivery: the first activation at the
    # destination at-or-after the delivery (in-degree joins wait there).
    slack_of_act: Dict[int, float] = {terminal.seq: 0.0}
    # Activations in reverse (time, seq) order: every causal successor of
    # an activation is later in that order, so one sweep suffices.
    ordered = sorted(acts, key=lambda pair: (pair[1].time, pair[1].seq))
    link_slack: Dict[Tuple[str, str], float] = {}
    on_path_links = {
        (step.src, step.dst) for step in steps if step.kind == "transmit"
    }
    # Outbound sends per (instance, activation): sends from that instance
    # in the window [activation, next activation at the same instance).
    for node, act in reversed(ordered):
        if act.seq in slack_of_act:
            continue
        window_end = _next_act_point(acts_by_node[node], act)
        best = math.inf
        for mid, send in sends.items():
            src, _dst, cls = send_meta[mid]
            if src != node or cls == "Ack":
                continue
            if not ((send.time, send.seq) >= (act.time, act.seq)):
                continue
            if window_end is not None and (send.time, send.seq) >= window_end:
                continue
            for deliver in delivers.get(mid, []):
                consumer = _first_at_or_after(
                    acts_by_node.get(send_meta[mid][1], []),
                    deliver.time,
                    deliver.seq,
                )
                if consumer is None or consumer.seq not in slack_of_act:
                    continue
                join_float = consumer.time - deliver.time
                best = min(best, join_float + slack_of_act[consumer.seq])
        if best is not math.inf:
            slack_of_act[act.seq] = best
    # Per-delivery slack, folded to a per-link minimum (off-path links).
    for mid, evs in delivers.items():
        src, dst, cls = send_meta.get(mid, ("", "", ""))
        if cls == "Ack" or (src, dst) in on_path_links:
            continue
        for deliver in evs:
            consumer = _first_at_or_after(
                acts_by_node.get(dst, []), deliver.time, deliver.seq
            )
            if consumer is None or consumer.seq not in slack_of_act:
                continue
            slack = (consumer.time - deliver.time) + slack_of_act[consumer.seq]
            key = (src, dst)
            if key not in link_slack or slack < link_slack[key]:
                link_slack[key] = slack
    return link_slack


def _next_act_point(
    events: List[_Ev], act: _Ev
) -> Optional[Tuple[float, int]]:
    """The (time, seq) of the activation after ``act`` at the same node."""
    best: Optional[Tuple[float, int]] = None
    for ev in events:
        point = (ev.time, ev.seq)
        if point > (act.time, act.seq) and (best is None or point < best):
            best = point
    return best


def _span_table(
    spans: List[Dict[str, Any]]
) -> Dict[str, Tuple[int, float, float, float]]:
    """Per-span-name (count, total, self, wall_seconds) over one trace.

    ``self`` subtracts direct-child time from each span, so a phase that
    merely waits on sub-phases shows near-zero self time -- the blocked
    time lives in the children.
    """
    child_time: Dict[Any, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            duration = float(span.get("end") or 0.0) - float(
                span.get("start") or 0.0
            )
            child_time[parent] = child_time.get(parent, 0.0) + duration
    table: Dict[str, Tuple[int, float, float, float]] = {}
    for span in spans:
        name = str(span.get("name"))
        duration = float(span.get("end") or 0.0) - float(
            span.get("start") or 0.0
        )
        self_time = duration - child_time.get(span.get("span"), 0.0)
        wall = float((span.get("attrs") or {}).get("wall_seconds") or 0.0)
        count, total, selfsum, wallsum = table.get(name, (0, 0.0, 0.0, 0.0))
        table[name] = (
            count + 1, total + duration, selfsum + self_time, wallsum + wall
        )
    return table


# -- campaign-level aggregation ---------------------------------------------------


@dataclass
class CampaignProfile:
    """Critical-path aggregates over many sessions.

    Built by folding :class:`SessionProfile` objects **in submission
    order**; the fold is plain float addition in a fixed order, so a
    parallel campaign that merges per-worker results in submission order
    reproduces the serial aggregate bit for bit.
    """

    sessions: int = 0
    path_duration_total: float = 0.0
    duration_total: float = 0.0
    kind_blame: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    link_blame: Dict[Tuple[str, str], float] = field(default_factory=dict)
    node_blame: Dict[str, float] = field(default_factory=dict)
    undelivered: int = 0

    @property
    def mean_path_duration(self) -> float:
        return self.path_duration_total / self.sessions if self.sessions else 0.0

    def add(self, profile: SessionProfile) -> None:
        """Fold one session in, as a one-session campaign."""
        one = CampaignProfile(
            sessions=1, path_duration_total=profile.path_duration,
            duration_total=profile.duration, kind_blame=profile.kind_blame,
            link_blame=profile.link_blame, node_blame=profile.node_blame,
            undelivered=profile.undelivered,
        )
        merge_campaigns(self, one)

    def top_links(self, k: int = 5) -> List[Tuple[str, str, float]]:
        ranked = sorted(
            self.link_blame.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [(src, dst, total) for (src, dst), total in ranked[:k]]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "sessions": self.sessions,
            "path_duration_total": self.path_duration_total,
            "mean_path_duration": self.mean_path_duration,
            "duration_total": self.duration_total,
            "kind_blame": {
                kind: {"count": count, "total": total}
                for kind, (count, total) in sorted(self.kind_blame.items())
            },
            "link_blame": {
                f"{src}->{dst}": total
                for (src, dst), total in sorted(self.link_blame.items())
            },
            "node_blame": dict(sorted(self.node_blame.items())),
            "undelivered": self.undelivered,
        }


def aggregate_profiles(
    profiles: Iterable[SessionProfile],
) -> CampaignProfile:
    """Fold session profiles (in iteration order) into a campaign view."""
    campaign = CampaignProfile()
    for profile in profiles:
        campaign.add(profile)
    return campaign


def merge_campaigns(
    base: CampaignProfile, other: CampaignProfile
) -> CampaignProfile:
    """Fold ``other`` into ``base`` (in place) and return ``base``.

    The one campaign fold: :meth:`CampaignProfile.add` folds a session as
    a one-session campaign, and the evaluation fan-out folds per-worker
    campaign profiles in submission order -- the same order the serial
    path folds sessions, so the merged floats are bit-identical.
    """
    base.sessions += other.sessions
    base.path_duration_total += other.path_duration_total
    base.duration_total += other.duration_total
    base.undelivered += other.undelivered
    for kind, (count, total) in other.kind_blame.items():
        base_count, base_total = base.kind_blame.get(kind, (0, 0.0))
        base.kind_blame[kind] = (base_count + count, base_total + total)
    for link, total in other.link_blame.items():
        base.link_blame[link] = base.link_blame.get(link, 0.0) + total
    for node, total in other.node_blame.items():
        base.node_blame[node] = base.node_blame.get(node, 0.0) + total
    return base

