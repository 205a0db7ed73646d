"""Agility under churn: federations surviving continuous leave/rejoin.

Overlay networks churn: service instances leave (crashes, departures) and
return.  This experiment drives a :class:`~repro.core.monitor.MonitoredFederation`
with a seeded churn timeline and measures how well the repair loop keeps
the federated service alive:

* every ``churn_interval`` an eligible instance **leaves** (never the
  consumer-facing source, never a service's last instance);
* ``rejoin_delay`` later the same instance **rejoins** -- its service links
  are re-derived from the underlay, exactly as at scenario build time;
* the monitor probes, detects violations, and repairs incrementally.

The report aggregates **availability** (fraction of probes at which the
federation met the floor its monitor enforces: ``required_bandwidth`` when
the monitor config sets one, else ``bandwidth_threshold`` x the initial
bottleneck), repair counts and quality retention -- the numbers behind
``benchmarks/test_churn_agility.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.monitor import MonitorConfig, MonitorReport, MonitoredFederation
from repro.network.failures import fail_instances
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.workloads import Scenario


@dataclass
class ChurnConfig:
    """Churn intensity and observation window.

    Attributes:
        duration: virtual length of the experiment.
        churn_interval: time between departures.
        rejoin_delay: how long a departed instance stays away
            (``None`` -> departures are permanent).
        monitor: probe cadence / repair policy for the underlying
            :class:`~repro.core.monitor.MonitoredFederation`.
        seed: selects the victims (deterministic timelines).
    """

    duration: float = 100.0
    churn_interval: float = 20.0
    rejoin_delay: Optional[float] = 10.0
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.churn_interval <= 0:
            raise ValueError("churn_interval must be > 0")
        if self.rejoin_delay is not None and self.rejoin_delay <= 0:
            raise ValueError("rejoin_delay must be > 0 (or None)")


@dataclass
class ChurnReport:
    """Outcome of a churn run."""

    monitor_report: MonitorReport
    departures: List[Tuple[float, ServiceInstance]]
    rejoins: List[Tuple[float, ServiceInstance]]
    availability: float
    initial_bandwidth: float
    final_bandwidth: float

    @property
    def repairs(self) -> int:
        return self.monitor_report.repairs

    @property
    def bandwidth_retention(self) -> float:
        """Final vs initial bottleneck bandwidth (1.0 = fully retained)."""
        if self.initial_bandwidth == 0:
            return 0.0
        return self.final_bandwidth / self.initial_bandwidth


def run_churn_experiment(
    scenario: Scenario,
    config: Optional[ChurnConfig] = None,
) -> ChurnReport:
    """Run one monitored federation under the configured churn timeline."""
    config = config or ChurnConfig()
    rng = random.Random(config.seed)
    federation = MonitoredFederation(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
        config=config.monitor,
    )
    initial_bandwidth = federation.graph.bottleneck_bandwidth()
    compatible = scenario.catalog.compatible
    underlay = scenario.underlay

    departures: List[Tuple[float, ServiceInstance]] = []
    rejoins: List[Tuple[float, ServiceInstance]] = []
    away: set = set()

    def leave(victim: ServiceInstance):
        def mutation(overlay: OverlayGraph) -> OverlayGraph:
            if victim not in overlay:
                return overlay  # already gone (defensive)
            away.add(victim)
            departures.append((federation.env.now, victim))
            return fail_instances(overlay, [victim])

        return mutation

    def rejoin(victim: ServiceInstance):
        def mutation(overlay: OverlayGraph) -> OverlayGraph:
            if victim in overlay:
                return overlay
            away.discard(victim)
            rejoins.append((federation.env.now, victim))
            instances = list(overlay.instances()) + [victim]
            # Links are re-derived from the (static) underlay -- the same
            # construction the scenario used, so a rejoin fully restores
            # the instance's connectivity.
            return OverlayGraph.build(underlay, instances, compatible)

        return mutation

    time = config.churn_interval
    while time < config.duration:
        victim = _pick_victim(scenario, federation, away, rng)
        if victim is not None:
            federation.schedule_mutation(time, leave(victim), f"leave {victim}")
            if config.rejoin_delay is not None:
                back = time + config.rejoin_delay
                if back < config.duration:
                    federation.schedule_mutation(
                        back, rejoin(victim), f"rejoin {victim}"
                    )
        time += config.churn_interval

    monitor_report = federation.run(until=config.duration)
    threshold = config.monitor.required_bandwidth
    if threshold is None:
        threshold = config.monitor.bandwidth_threshold * initial_bandwidth
    probes = monitor_report.timeline
    availability = (
        sum(1 for _, observed in probes if observed >= threshold) / len(probes)
        if probes
        else 1.0
    )
    return ChurnReport(
        monitor_report=monitor_report,
        departures=departures,
        rejoins=rejoins,
        availability=availability,
        initial_bandwidth=initial_bandwidth,
        final_bandwidth=monitor_report.final_graph.bottleneck_bandwidth(),
    )


def _pick_victim(
    scenario: Scenario,
    federation: MonitoredFederation,
    away: set,
    rng: random.Random,
) -> Optional[ServiceInstance]:
    """An instance that may leave: not the source, not a service's last
    present instance.  Victim selection happens at schedule time against
    the *initial* overlay; the mutation itself re-checks liveness."""
    overlay = scenario.overlay
    candidates = []
    for inst in overlay.instances():
        if inst == scenario.source_instance or inst in away:
            continue
        present = [
            other
            for other in overlay.instances_of(inst.sid)
            if other not in away
        ]
        if len(present) <= 1:
            continue
        candidates.append(inst)
    if not candidates:
        return None
    return rng.choice(sorted(candidates))
