"""Failure and churn models for service overlay networks.

The paper's title promises *agile* federation; its future-work trajectory
(and the overlay literature it builds on) is recovery from instance and
link failures.  This module provides the failure side of that story --
:mod:`repro.core.repair` provides the recovery side:

* :func:`fail_instances` -- remove service instances (node crash / churn);
* :func:`fail_links` -- remove individual service links;
* :func:`degrade_links` -- scale link bandwidth / inflate latency without
  removing connectivity (congestion, flash crowds);
* :class:`FailureInjector` -- seeded random failure plans over an overlay,
  with the guarantee knobs experiments need (e.g. never kill the pinned
  source instance, keep at least one instance per service);
* :func:`revive_links` -- the inverse of :func:`degrade_links`: restore the
  exact pre-degradation metrics from a reference overlay (congestion
  clearing, flash crowd passing);
* :class:`CrashSchedule` / :class:`ChaosPlan` -- **timed** crash-stop
  failures (with optional revival) plus message-loss and delivery-jitter
  knobs, consumed by the sFlow runtime to kill nodes *while the federation
  protocol is still running* (mid-protocol chaos), not just afterwards;
* the **gray-failure menu** (:class:`GrayFaultPlan` and its parts:
  :class:`ChannelFault`, :class:`StragglerNode`,
  :class:`LinkDegradationRamp`, :class:`LinkFlap`,
  :class:`PartitionEvent`) -- seeded, schedulable faults that degrade
  without killing: lossy/duplicating/reordering channels, straggler
  instances, bandwidth sag ramps, flapping links and partitions that heal.
  All composable inside one :class:`ChaosPlan` and all deterministic under
  a seed.

All overlay operations are **pure**: they return a new
:class:`~repro.network.overlay.OverlayGraph` and leave the input intact, so
an experiment can hold the before/after pair side by side.  Chaos plans are
immutable values; the simulator interprets them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import SFlowError
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.oracle import RouteOracle
from repro.sim.channels import Address, ChannelEffect, Envelope, NO_EFFECT


def fail_instances(
    overlay: OverlayGraph, victims: Iterable[ServiceInstance]
) -> OverlayGraph:
    """A copy of ``overlay`` without ``victims`` (and their links): like
    :func:`fail_links`, a row copy that shares every metrics object
    (:meth:`~repro.network.overlay.OverlayGraph.without`)."""
    victim_set = set(victims)
    for victim in victim_set:
        if victim not in overlay:
            raise KeyError(f"cannot fail unknown instance {victim}")
    result = overlay.without(victim_set)
    RouteOracle.default().derive(
        overlay, result, removed_instances=victim_set
    )
    return result


def fail_links(
    overlay: OverlayGraph,
    victims: Iterable[Tuple[ServiceInstance, ServiceInstance]],
) -> OverlayGraph:
    """A copy of ``overlay`` without the given directed service links."""
    victim_set = set(victims)
    result = overlay.with_links(dict.fromkeys(victim_set))
    RouteOracle.default().derive(overlay, result, removed_links=victim_set)
    return result


def degrade_links(
    overlay: OverlayGraph,
    victims: Iterable[Tuple[ServiceInstance, ServiceInstance]],
    *,
    bandwidth_factor: float = 0.5,
    latency_factor: float = 1.0,
) -> OverlayGraph:
    """Scale the quality of the given links (congestion model).

    ``bandwidth_factor`` multiplies capacity (must be in ``(0, 1]`` -- a
    degradation never *adds* capacity), ``latency_factor`` multiplies delay
    (must be >= 1 -- congestion never speeds links up).
    """
    if not (0 < bandwidth_factor <= 1):
        raise ValueError(
            f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
        )
    if latency_factor < 1:
        raise ValueError(f"latency_factor must be >= 1, got {latency_factor}")
    victim_set = set(victims)
    scaled: Dict[Tuple[ServiceInstance, ServiceInstance], PathQuality] = {}
    for src, dst in victim_set:
        old = overlay.link_quality(src, dst)  # an unknown link: with_links raises below
        scaled[(src, dst)] = PathQuality(
            old.bandwidth * bandwidth_factor, old.latency * latency_factor
        )
    result = overlay.with_links(scaled)
    # Degradation is restrictive (capacity can only shrink, delay only
    # grow), so trees avoiding the victim links carry over to the new
    # graph; only sources routing across them recompute.
    RouteOracle.default().derive(overlay, result, degraded_links=victim_set)
    return result


def revive_links(
    overlay: OverlayGraph,
    reference: OverlayGraph,
    victims: Iterable[Tuple[ServiceInstance, ServiceInstance]],
) -> OverlayGraph:
    """Undo a degradation: restore the victims' **exact** pre-degradation
    metrics from ``reference`` (the overlay as it was before
    :func:`degrade_links`).

    Scaling back up (``degrade_links`` with ``1 / factor``) is neither
    allowed by the validation (factors must shrink capacity) nor exact
    under floating point -- ``(b * f) / f != b`` in general.  Copying the
    reference metrics makes degrade -> revive an *identity* on overlay
    state, which the round-trip property test asserts.

    The result is described to the route oracle as what it also is:
    ``reference``, restricted.  :meth:`OverlayGraph.restriction_of` names
    what ``reference`` has and the result lacks -- nothing after a full
    revive, the links still sagging after a partial one -- so the result
    shares every tree of ``reference`` that avoids those and repairs the
    rest; what was pending on the degraded ``overlay`` goes nowhere.  When
    the result is not a restriction of ``reference`` (some other link is
    better here than there) it starts with no trees at all.
    """
    restored: Dict[Tuple[ServiceInstance, ServiceInstance], PathQuality] = {}
    for src, dst in set(victims):
        original = reference.link_metrics(src, dst)
        if original is None:
            raise KeyError(
                f"reference overlay has no link {src} -> {dst} to restore from"
            )
        restored[(src, dst)] = original
    result = overlay.with_links(restored)
    taken_away = result.restriction_of(reference)
    if taken_away is not None:
        RouteOracle.default().derive(reference, result, **taken_away._asdict())
    return result


@dataclass
class FailurePlan:
    """A concrete set of failures produced by :class:`FailureInjector`."""

    failed_instances: Tuple[ServiceInstance, ...] = ()
    failed_links: Tuple[Tuple[ServiceInstance, ServiceInstance], ...] = ()

    def validate_against(self, overlay: OverlayGraph) -> None:
        """Reject a plan that references anything absent from ``overlay``.

        Raises :class:`~repro.errors.SFlowError` naming *every* unknown
        instance and link, so a mis-built experiment fails loudly instead of
        silently under-injecting failures.
        """
        unknown_instances = [
            inst for inst in self.failed_instances if inst not in overlay
        ]
        unknown_links = [
            (src, dst)
            for src, dst in self.failed_links
            if overlay.link_metrics(src, dst) is None
        ]
        problems = []
        if unknown_instances:
            problems.append(
                "unknown instances: "
                + ", ".join(str(i) for i in unknown_instances)
            )
        if unknown_links:
            problems.append(
                "unknown links: "
                + ", ".join(f"{s} -> {d}" for s, d in unknown_links)
            )
        if problems:
            raise SFlowError(
                "failure plan references elements absent from the overlay ("
                + "; ".join(problems)
                + ")"
            )

    def apply(self, overlay: OverlayGraph) -> OverlayGraph:
        """The post-failure overlay (validates the plan first)."""
        self.validate_against(overlay)
        result = overlay
        if self.failed_links:
            result = fail_links(result, self.failed_links)
        if self.failed_instances:
            result = fail_instances(result, self.failed_instances)
        return result

    @property
    def empty(self) -> bool:
        return not self.failed_instances and not self.failed_links


class FailureInjector:
    """Seeded random failure plans with experiment-friendly guarantees.

    Args:
        rng: the randomness source (pass a seeded ``random.Random``).
        protect: instances that must survive (e.g. the pinned source and
            sink endpoints the consumer talks to).
        keep_service_alive: when True (default), never remove the last
            remaining instance of any service -- failures degrade quality
            but keep the requirement satisfiable.
    """

    def __init__(
        self,
        rng: random.Random,
        *,
        protect: Iterable[ServiceInstance] = (),
        keep_service_alive: bool = True,
    ) -> None:
        self._rng = rng
        self._protect = set(protect)
        self._keep_alive = keep_service_alive

    def instance_failures(
        self, overlay: OverlayGraph, count: int
    ) -> FailurePlan:
        """Kill up to ``count`` eligible instances, chosen uniformly."""
        if count < 0:
            raise ValueError("count must be >= 0")
        remaining: Dict[str, int] = {
            sid: len(overlay.instances_of(sid)) for sid in overlay.sids()
        }
        eligible = [
            inst for inst in overlay.instances() if inst not in self._protect
        ]
        self._rng.shuffle(eligible)
        victims: List[ServiceInstance] = []
        for inst in eligible:
            if len(victims) == count:
                break
            if self._keep_alive and remaining[inst.sid] <= 1:
                continue
            victims.append(inst)
            remaining[inst.sid] -= 1
        return FailurePlan(failed_instances=tuple(sorted(victims)))

    def link_failures(self, overlay: OverlayGraph, count: int) -> FailurePlan:
        """Cut up to ``count`` service links, chosen uniformly."""
        if count < 0:
            raise ValueError("count must be >= 0")
        links = [
            (inst, dst)
            for inst in overlay.instances()
            for dst, _ in overlay.successors(inst)
        ]
        self._rng.shuffle(links)
        return FailurePlan(failed_links=tuple(sorted(links[:count])))

    def targeted_failure(
        self, victims: Sequence[ServiceInstance]
    ) -> FailurePlan:
        """A deterministic plan killing exactly ``victims`` (after checking
        the protection set)."""
        clash = [v for v in victims if v in self._protect]
        if clash:
            raise SFlowError(f"refusing to fail protected instances {clash}")
        return FailurePlan(failed_instances=tuple(sorted(victims)))

    # -- timed (mid-protocol) chaos ---------------------------------------------

    def crash_schedule(
        self,
        overlay: OverlayGraph,
        *,
        count: Optional[int] = None,
        crash_rate: Optional[float] = None,
        window: float = 50.0,
        start: float = 0.0,
        revive_after: Optional[float] = None,
    ) -> "CrashSchedule":
        """Seeded crash-stop times for a federation run in progress.

        Exactly one of ``count`` (absolute victims) or ``crash_rate``
        (fraction of the overlay's instances, rounded) selects how many
        instances crash.  Victims are chosen like
        :meth:`instance_failures` (respecting ``protect`` and
        ``keep_service_alive``); each receives a crash time drawn uniformly
        from ``[start, start + window)`` and, when ``revive_after`` is set,
        a revival ``revive_after`` time units later.
        """
        if (count is None) == (crash_rate is None):
            raise ValueError("pass exactly one of count / crash_rate")
        if crash_rate is not None:
            if not (0.0 <= crash_rate <= 1.0):
                raise ValueError(f"crash_rate must be in [0, 1], got {crash_rate}")
            count = int(round(crash_rate * len(overlay)))
        if count < 0:
            raise ValueError("count must be >= 0")
        if window <= 0:
            raise ValueError("window must be > 0")
        if start < 0:
            raise ValueError("start must be >= 0")
        if revive_after is not None and revive_after <= 0:
            raise ValueError("revive_after must be > 0 (or None)")
        victims = self.instance_failures(overlay, count).failed_instances
        events = []
        for victim in victims:
            at = start + self._rng.uniform(0.0, window)
            events.append(
                CrashEvent(
                    instance=victim,
                    at=at,
                    revive_at=None if revive_after is None else at + revive_after,
                )
            )
        return CrashSchedule(events=tuple(sorted(events, key=lambda e: (e.at, e.instance))))

    def chaos_plan(
        self,
        overlay: OverlayGraph,
        *,
        count: Optional[int] = None,
        crash_rate: Optional[float] = None,
        window: float = 50.0,
        start: float = 0.0,
        revive_after: Optional[float] = None,
        loss_rate: float = 0.0,
        delay_jitter: float = 0.0,
        seed: Optional[int] = None,
    ) -> "ChaosPlan":
        """A full chaos plan: crash schedule plus loss / delay knobs."""
        schedule = self.crash_schedule(
            overlay,
            count=count,
            crash_rate=crash_rate,
            window=window,
            start=start,
            revive_after=revive_after,
        )
        return ChaosPlan(
            schedule=schedule,
            loss_rate=loss_rate,
            delay_jitter=delay_jitter,
            seed=self._rng.randrange(2**31) if seed is None else seed,
        )

    def gray_plan(
        self,
        overlay: OverlayGraph,
        *,
        intensity: float,
        window: float = 50.0,
        start: float = 0.0,
        heal_after: Optional[float] = None,
        crash_fraction: float = 0.0,
        revive_after: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> ChaosPlan:
        """A composed gray-failure campaign scaled by ``intensity``.

        ``intensity`` in ``[0, 1]`` scales everything at once: channel
        loss/duplication/reordering rates, the straggler population and
        slowdown, bandwidth sag depth, flap duty cycle and (when
        ``heal_after`` is set) the size of a partition that heals
        ``heal_after`` time units after it forms.  ``crash_fraction``
        optionally mixes in timed crash-stops (scaled by intensity too) so
        one plan exercises the full binary + gray spectrum.  Protected
        instances never straggle, crash, or land on the partition's
        minority side.  ``intensity == 0`` yields an inactive plan.
        """
        if not (0.0 <= intensity <= 1.0):
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if not (0.0 <= crash_fraction <= 1.0):
            raise ValueError(
                f"crash_fraction must be in [0, 1], got {crash_fraction}"
            )
        plan_seed = self._rng.randrange(2**31) if seed is None else seed
        if intensity == 0.0:
            return ChaosPlan(seed=plan_seed)
        end = start + window

        channel_faults = (
            ChannelFault(
                loss_rate=0.05 * intensity,
                duplicate_rate=0.02 * intensity,
                reorder_rate=0.10 * intensity,
                reorder_spread=3.0,
                start=start,
                end=end,
            ),
        )

        eligible = sorted(
            inst for inst in overlay.instances() if inst not in self._protect
        )
        self._rng.shuffle(eligible)
        straggler_count = min(
            len(eligible), int(math.ceil(0.2 * intensity * len(overlay)))
        )
        stragglers = tuple(
            StragglerNode(
                instance=inst,
                slowdown=1.0 + 4.0 * intensity,
                start=start,
                end=end,
            )
            for inst in sorted(eligible[:straggler_count])
        )

        links = sorted(
            (inst, dst)
            for inst in overlay.instances()
            for dst, _ in overlay.successors(inst)
        )
        self._rng.shuffle(links)
        ramp_count = min(len(links), int(math.ceil(0.15 * intensity * len(links))))
        ramps = tuple(
            LinkDegradationRamp(
                src=src,
                dst=dst,
                start=start,
                duration=window,
                floor_factor=max(0.2, 1.0 - 0.8 * intensity),
            )
            for src, dst in sorted(links[:ramp_count])
        )
        flap_pool = links[ramp_count:]
        flap_count = min(len(flap_pool), int(math.ceil(0.05 * intensity * len(links))))
        flaps = tuple(
            LinkFlap(
                src=src,
                dst=dst,
                period=max(window / 5.0, 1.0),
                down_fraction=0.3 * intensity,
                start=start,
                end=end,
            )
            for src, dst in sorted(flap_pool[:flap_count])
        )

        partitions: Tuple[PartitionEvent, ...] = ()
        if heal_after is not None:
            if heal_after <= 0:
                raise ValueError(f"heal_after must be > 0, got {heal_after}")
            # Minority side: a slice of unprotected instances, so pinned
            # endpoints always stay on the majority side of the cut.
            side_size = min(
                len(eligible), max(1, int(round(0.3 * intensity * len(overlay))))
            )
            members = tuple(sorted(eligible[-side_size:])) if side_size else ()
            if members:
                partition_start = start + 0.2 * window
                partitions = (
                    PartitionEvent(
                        members=members,
                        start=partition_start,
                        heal_at=partition_start + heal_after,
                    ),
                )

        schedule = CrashSchedule()
        if crash_fraction > 0.0:
            schedule = self.crash_schedule(
                overlay,
                crash_rate=crash_fraction * intensity,
                window=window,
                start=start,
                revive_after=revive_after,
            )

        return ChaosPlan(
            schedule=schedule,
            seed=plan_seed,
            gray=GrayFaultPlan(
                channel_faults=channel_faults,
                stragglers=stragglers,
                ramps=ramps,
                flaps=flaps,
                partitions=partitions,
                seed=plan_seed,
            ),
        )


@dataclass(frozen=True)
class CrashEvent:
    """One timed crash-stop: ``instance`` dies at ``at``; if ``revive_at``
    is set the instance comes back (with empty volatile state) then."""

    instance: ServiceInstance
    at: float
    revive_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")
        if self.revive_at is not None and self.revive_at <= self.at:
            raise ValueError(
                f"revival ({self.revive_at}) must come after the crash ({self.at})"
            )


@dataclass(frozen=True)
class CrashSchedule:
    """An ordered set of timed crash-stop events (one per instance)."""

    events: Tuple[CrashEvent, ...] = ()

    def __post_init__(self) -> None:
        seen: Set[ServiceInstance] = set()
        for event in self.events:
            if event.instance in seen:
                raise ValueError(
                    f"duplicate crash event for {event.instance} "
                    "(one timed crash per instance)"
                )
            seen.add(event.instance)

    @property
    def empty(self) -> bool:
        return not self.events

    def instances(self) -> Tuple[ServiceInstance, ...]:
        return tuple(event.instance for event in self.events)

    def validate_against(self, overlay: OverlayGraph) -> None:
        unknown = [e.instance for e in self.events if e.instance not in overlay]
        if unknown:
            raise SFlowError(
                "crash schedule references instances absent from the overlay: "
                + ", ".join(str(i) for i in unknown)
            )


@dataclass(frozen=True)
class ChaosPlan:
    """Everything that can go wrong during one federation run.

    ``schedule`` kills nodes mid-protocol; ``loss_rate`` and
    ``delay_jitter`` apply to every protocol message (seeded by ``seed``,
    independently of any :class:`~repro.core.sflow.SFlowConfig` loss
    process); ``gray`` adds the gray-failure menu (lossy / duplicating /
    reordering channels, stragglers, bandwidth ramps, flaps, healing
    partitions).  An inactive plan (no events, no loss, no jitter, no gray
    faults) leaves the protocol's behaviour bit-for-bit identical to a run
    without one.
    """

    schedule: CrashSchedule = field(default_factory=CrashSchedule)
    loss_rate: float = 0.0
    delay_jitter: float = 0.0
    seed: int = 0
    gray: Optional["GrayFaultPlan"] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.delay_jitter < 0:
            raise ValueError(f"delay_jitter must be >= 0, got {self.delay_jitter}")

    @property
    def active(self) -> bool:
        return (
            not self.schedule.empty
            or self.loss_rate > 0
            or self.delay_jitter > 0
            or (self.gray is not None and self.gray.active)
        )


# -- gray failures -----------------------------------------------------------------
#
# Crash-stop is the easy failure mode; real overlays mostly fail *gray*.
# Each class below is one schedulable, seeded fault kind; GrayFaultPlan
# composes them and compiles the message-visible subset into a channel
# model (`repro.sim.channels.GrayModelFn`) the transport consults per send.


@dataclass(frozen=True)
class ChannelFault:
    """A lossy / duplicating / reordering message channel.

    Applies to every message whose endpoints match ``src`` / ``dst``
    (``None`` = wildcard) while ``start <= now < end``.  ``reorder_spread``
    bounds the extra delay (in sim-time units) injected for reordered
    messages and duplicate deliveries.
    """

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_spread: float = 5.0
    src: Optional[ServiceInstance] = None
    dst: Optional[ServiceInstance] = None
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "reorder_rate"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.reorder_spread <= 0:
            raise ValueError(
                f"reorder_spread must be > 0, got {self.reorder_spread}"
            )
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"end ({self.end}) must come after start ({self.start})"
            )

    def matches(self, src: Address, dst: Address, now: float) -> bool:
        return (
            self.start <= now < self.end
            and (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
        )


@dataclass(frozen=True)
class StragglerNode:
    """A slow-but-alive instance: every message to or from it takes
    ``slowdown`` times its base latency plus ``extra`` flat delay."""

    instance: ServiceInstance
    slowdown: float = 3.0
    extra: float = 0.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(
                f"slowdown must be >= 1 (stragglers never speed up), "
                f"got {self.slowdown}"
            )
        if self.extra < 0:
            raise ValueError(f"extra must be >= 0, got {self.extra}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"end ({self.end}) must come after start ({self.start})"
            )

    def touches(self, src: Address, dst: Address, now: float) -> bool:
        return self.start <= now < self.end and (
            self.instance == src or self.instance == dst
        )

    def extra_delay(self, latency: float) -> float:
        return latency * (self.slowdown - 1.0) + self.extra


@dataclass(frozen=True)
class LinkDegradationRamp:
    """Bandwidth sag on a directed link: capacity ramps linearly from its
    nominal value down to ``floor_factor`` of it over ``duration`` starting
    at ``start``, then stays at the floor.

    Ramps affect *delivered bandwidth* accounting (via
    :meth:`GrayFaultPlan.bandwidth_factor`), not message delivery.
    """

    src: ServiceInstance
    dst: ServiceInstance
    start: float
    duration: float
    floor_factor: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not (0.0 < self.floor_factor <= 1.0):
            raise ValueError(
                f"floor_factor must be in (0, 1], got {self.floor_factor}"
            )

    def factor_at(self, now: float) -> float:
        if now <= self.start:
            return 1.0
        progress = min(1.0, (now - self.start) / self.duration)
        return 1.0 + (self.floor_factor - 1.0) * progress


@dataclass(frozen=True)
class LinkFlap:
    """A link that goes down and comes back on a duty cycle: within each
    ``period`` starting at ``start``, the first ``down_fraction`` of the
    cycle drops every message on the directed pair."""

    src: ServiceInstance
    dst: ServiceInstance
    period: float = 10.0
    down_fraction: float = 0.3
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if not (0.0 <= self.down_fraction < 1.0):
            raise ValueError(
                f"down_fraction must be in [0, 1), got {self.down_fraction}"
            )
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"end ({self.end}) must come after start ({self.start})"
            )

    def down_at(self, src: Address, dst: Address, now: float) -> bool:
        if not (self.start <= now < self.end):
            return False
        if self.src != src or self.dst != dst:
            return False
        return ((now - self.start) % self.period) < self.period * self.down_fraction


@dataclass(frozen=True)
class PartitionEvent:
    """A network partition that heals: from ``start`` until ``heal_at``,
    messages crossing the ``members`` / non-members cut vanish (counted as
    ``channel.partition_blocked``, not loss)."""

    members: Tuple[ServiceInstance, ...]
    start: float
    heal_at: float

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a partition needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("partition members must be unique")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.heal_at <= self.start:
            raise ValueError(
                f"heal_at ({self.heal_at}) must come after start ({self.start})"
            )

    def separates(self, a: Address, b: Address, now: float) -> bool:
        if not (self.start <= now < self.heal_at):
            return False
        return (a in self.members) != (b in self.members)


@dataclass(frozen=True)
class GrayFaultPlan:
    """The composed gray-failure menu for one run, deterministic under
    ``seed``.

    The message-visible faults (channel faults, stragglers, flaps,
    partitions) compile into a channel model via :meth:`channel_model`;
    bandwidth ramps feed delivered-bandwidth accounting via
    :meth:`bandwidth_factor`.
    """

    channel_faults: Tuple[ChannelFault, ...] = ()
    stragglers: Tuple[StragglerNode, ...] = ()
    ramps: Tuple[LinkDegradationRamp, ...] = ()
    flaps: Tuple[LinkFlap, ...] = ()
    partitions: Tuple[PartitionEvent, ...] = ()
    seed: int = 0

    @property
    def active(self) -> bool:
        return bool(
            self.channel_faults
            or self.stragglers
            or self.ramps
            or self.flaps
            or self.partitions
        )

    def validate_against(self, overlay: OverlayGraph) -> None:
        """Reject a plan referencing instances or links the overlay lacks."""
        problems: List[str] = []
        for straggler in self.stragglers:
            if straggler.instance not in overlay:
                problems.append(f"unknown straggler instance {straggler.instance}")
        for fault in self.channel_faults:
            for endpoint in (fault.src, fault.dst):
                if endpoint is not None and endpoint not in overlay:
                    problems.append(f"unknown channel endpoint {endpoint}")
        for ramp in self.ramps:
            if overlay.link_metrics(ramp.src, ramp.dst) is None:
                problems.append(f"unknown ramp link {ramp.src} -> {ramp.dst}")
        for flap in self.flaps:
            if overlay.link_metrics(flap.src, flap.dst) is None:
                problems.append(f"unknown flap link {flap.src} -> {flap.dst}")
        for partition in self.partitions:
            for member in partition.members:
                if member not in overlay:
                    problems.append(f"unknown partition member {member}")
        if problems:
            raise SFlowError(
                "gray fault plan references elements absent from the overlay ("
                + "; ".join(sorted(set(problems)))
                + ")"
            )

    def channel_model(self) -> "_GrayChannelModel":
        """Compile the message-visible faults into a transport-level model."""
        return _GrayChannelModel(self)

    def bandwidth_factor(self, src: Address, dst: Address, now: float) -> float:
        """Product of every matching ramp's capacity factor at ``now``."""
        factor = 1.0
        for ramp in self.ramps:
            if ramp.src == src and ramp.dst == dst:
                factor *= ramp.factor_at(now)
        return factor

    def partition_members(self) -> frozenset:
        return frozenset(
            member for event in self.partitions for member in event.members
        )

    def faulty_instances(self) -> frozenset:
        """Ground truth for false-suspicion accounting: instances a
        detector could *legitimately* suspect (stragglers and partition
        members)."""
        return frozenset(s.instance for s in self.stragglers) | self.partition_members()


class _GrayChannelModel:
    """The per-send interpreter for a :class:`GrayFaultPlan`.

    Seeded once from the plan; because the DES visits sends in a
    deterministic order, every probability draw lands identically across
    runs with the same seed.  Consumer-facing traffic (either endpoint not
    a :class:`~repro.network.overlay.ServiceInstance`) is exempt so final
    delivery and external observation never wedge on injected faults.
    """

    def __init__(self, plan: GrayFaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)

    def __call__(
        self,
        src: Address,
        dst: Address,
        envelope: Envelope,
        now: float,
        latency: float,
    ) -> ChannelEffect:
        plan = self.plan
        if not isinstance(src, ServiceInstance) or not isinstance(
            dst, ServiceInstance
        ):
            return NO_EFFECT
        for partition in plan.partitions:
            if partition.separates(src, dst, now):
                return ChannelEffect(blocked=True)
        for flap in plan.flaps:
            if flap.down_at(src, dst, now):
                return ChannelEffect(drop=True)
        drop = False
        reordered = False
        extra_delay = 0.0
        duplicate_delays: Tuple[float, ...] = ()
        for fault in plan.channel_faults:
            if not fault.matches(src, dst, now):
                continue
            # Always burn one draw per knob so the stream position is a
            # function of the (deterministic) send sequence alone, not of
            # which faults happened to trigger.
            loss_draw = self._rng.random()
            duplicate_draw = self._rng.random()
            reorder_draw = self._rng.random()
            spread_draw = self._rng.uniform(0.0, fault.reorder_spread)
            if loss_draw < fault.loss_rate:
                drop = True
            if duplicate_draw < fault.duplicate_rate:
                duplicate_delays = duplicate_delays + (spread_draw,)
            if reorder_draw < fault.reorder_rate:
                reordered = True
                extra_delay += spread_draw
        if drop:
            return ChannelEffect(drop=True)
        for straggler in plan.stragglers:
            if straggler.touches(src, dst, now):
                extra_delay += straggler.extra_delay(latency)
        if not reordered and extra_delay == 0.0 and not duplicate_delays:
            return NO_EFFECT
        return ChannelEffect(
            extra_delay=extra_delay,
            reordered=reordered,
            duplicate_delays=duplicate_delays,
        )
