"""Robustness sweep: federation survival under mid-protocol crash-stop chaos.

The `RobustnessExperiment` answers the question the Fig. 10 panels cannot:
what happens when service nodes die *while* the sfederate protocol is
running?  For every ``(network size, crash rate)`` cell it runs ``trials``
seeded scenarios twice -- once undisturbed (the baseline) and once under a
:class:`~repro.network.failures.ChaosPlan` that crashes a ``crash rate``
fraction of the overlay's instances at seeded times inside the federation
window -- and reports:

* **success rate**: fraction of runs that still produced a complete flow
  graph (failover + bounded re-federation doing their job);
* **quality degradation**: bandwidth / latency of the recovered graph
  relative to the crash-free baseline (failing over to the next-best
  instance is allowed to cost quality, not correctness);
* **recovery overhead**: extra protocol messages and extra virtual time
  relative to the baseline run.

At crash rate 0 the sweep degenerates to a determinism check: the run must
reproduce the crash-free baseline **bit-for-bit** (same seeds, same flow
graphs, same message counts), proving the crash-tolerance machinery is
behaviour-preserving on the happy path.  ``identical_to_baseline`` records
exactly that comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.detector import BreakerConfig, DetectorConfig, RetryPolicy
from repro.core.sflow import SFlowAlgorithm, SFlowConfig, SFlowResult
from repro.eval.experiments import (
    SweepConfig,
    SweepFold,
    _trial_seed,
    observe_sweep,
    resolve_workers,
)
from repro.eval.stats import mean
from repro.network.failures import ChaosPlan, FailureInjector
from repro.services.workloads import Scenario, ScenarioConfig, generate_scenario


@dataclass
class ChaosSweepConfig(SweepConfig):
    """What the crash and the gray-failure sweep share.

    The protocol knobs (``retransmit_timeout``, ``max_retries``,
    ``failover_backoff``, ``deadline``) are deliberately tighter than the
    :class:`~repro.core.sflow.SFlowConfig` defaults: a robustness sweep
    measures recovery, so suspicion must be cheap and deadlines must be
    reachable within a short simulated window.  ``workers`` fans the
    (size, trial) cells out like :attr:`SweepConfig.workers`; records are
    bit-identical to the serial sweep (every field is a virtual-time or
    counter measurement, never wall-clock).
    """

    n_services: int = 5
    revive_after: Optional[float] = None
    retransmit_timeout: float = 10.0
    max_retries: int = 2
    failover_backoff: float = 5.0
    max_failovers: int = 8
    deadline: Optional[float] = 600.0
    max_refederations: int = 2

    @property
    def levels(self) -> Tuple[float, ...]:
        """The fault levels every cell runs, besides its baseline."""
        raise NotImplementedError

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.levels:
            raise ValueError("need at least one fault level")
        for level in self.levels:
            if not (0.0 <= level <= 1.0):
                raise ValueError(f"fault levels must be in [0, 1], got {level}")

    def protocol_config(self, **adaptive) -> SFlowConfig:
        """The :class:`SFlowConfig` every run (baseline and chaotic) uses;
        ``adaptive`` are the further fields a requirement-bearing run sets."""
        return SFlowConfig(
            horizon=self.horizon,
            retransmit_timeout=self.retransmit_timeout,
            max_retries=self.max_retries,
            failover_backoff=self.failover_backoff,
            max_failovers=self.max_failovers,
            deadline=self.deadline,
            max_refederations=self.max_refederations,
            **adaptive,
        )


def _chaos_cell(payload: Tuple["ChaosExperiment", int, int]) -> List:
    """Top-level (picklable) worker for one (size, trial) sweep cell."""
    experiment, size, trial = payload
    return experiment._cell(size, trial)


def _reproduces(baseline: SFlowResult, result: SFlowResult) -> bool:
    """True iff ``result`` is the baseline's flow graph, reached with the
    baseline's message count at the baseline's convergence time."""
    return (
        result.flow_graph is not None
        and baseline.flow_graph is not None
        and result.flow_graph.assignment == baseline.flow_graph.assignment
        and result.messages == baseline.messages
        and result.convergence_time == baseline.convergence_time
    )


class ChaosExperiment:
    """A fault level x network size sweep (see the module docstring).

    Every (size, trial) cell federates its seeded scenario once undisturbed
    (the baseline) and once per fault level.  A subclass names its config
    class and the salt of its chaos seeds, draws the :class:`ChaosPlan` of
    a level (``_plan``) and shapes the record (``_record``).
    """

    config_class: type
    chaos_salt: int

    def __init__(self, config: Optional[ChaosSweepConfig] = None) -> None:
        self.config = config or self.config_class()

    def _scenario(self, size: int, trial: int) -> Scenario:
        seed = _trial_seed(self.config.seed, size, trial)
        return generate_scenario(
            ScenarioConfig(
                network_size=size,
                n_services=self.config.n_services,
                instances_per_service=self.config.instance_range(size),
                seed=seed,
            )
        )

    def _chaos(self, scenario: Scenario, level: float) -> Optional[ChaosPlan]:
        if level <= 0:
            return None
        chaos_seed = scenario.seed ^ self.chaos_salt
        injector = FailureInjector(
            random.Random(chaos_seed),
            protect=[scenario.source_instance],
        )
        return self._plan(injector, scenario, level, chaos_seed)

    def _disturbed_protocol(
        self, size: int, trial: int, baseline: SFlowResult
    ) -> SFlowConfig:
        """The protocol of a cell's runs under chaos: the baseline's."""
        return self.config.protocol_config()

    def _cell(self, size: int, trial: int) -> List:
        """One (size, trial) cell's records: the baseline run plus every
        fault level.  Level 0 re-runs the baseline configuration and must
        reproduce it bit for bit."""
        scenario = self._scenario(size, trial)

        def federate(
            protocol: SFlowConfig, chaos: Optional[ChaosPlan] = None
        ) -> SFlowResult:
            return SFlowAlgorithm(protocol).federate(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
                chaos=chaos,
            )

        calm = self.config.protocol_config()
        baseline = federate(calm)
        disturbed = self._disturbed_protocol(size, trial, baseline)
        records = []
        for level in self.config.levels:
            chaos = self._chaos(scenario, level)
            result = federate(calm if chaos is None else disturbed, chaos)
            records.append(
                self._record(size, level, trial, baseline, result, chaos)
            )
        return records

    def run(self) -> List:
        """The sweep; cells fan out over ``config.workers`` processes.

        Cells are fully independent (scenario, chaos and protocol all
        reseed from ``config.seed``) and collected in submission order, so
        the parallel table is bit-identical to the serial one.
        """
        return self.observe().records

    def observe(self, **observation) -> SweepFold:
        """:meth:`run` plus everything observed on the way: the merged
        metric-registry delta and the campaign profile.  The keyword
        arguments are :func:`repro.eval.experiments.observe_sweep`'s."""
        return observe_sweep(_chaos_cell, self, self.config, **observation)


#: Crash times are drawn uniformly from ``[0, CRASH_WINDOW)`` -- inside the
#: federation run, which is the whole point.
CRASH_WINDOW = 40.0


@dataclass
class RobustnessConfig(ChaosSweepConfig):
    """Sweep parameters for the crash-tolerance experiment."""

    network_sizes: Tuple[int, ...] = (10, 20, 30)
    trials: int = 10
    crash_rates: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)

    @property
    def levels(self) -> Tuple[float, ...]:
        return self.crash_rates


@dataclass
class RobustnessRecord:
    """One chaotic run compared against its crash-free baseline."""

    network_size: int
    crash_rate: float
    trial: int
    succeeded: bool
    bandwidth: float
    latency: float
    baseline_bandwidth: float
    baseline_latency: float
    messages: int
    baseline_messages: int
    convergence_time: float
    baseline_convergence: float
    crashes: int
    failovers: int
    refederations: int
    recovery_events: int
    failure_reason: str = ""
    #: True iff the run reproduced the baseline flow graph exactly (same
    #: assignment, same message count, same convergence time) -- the
    #: bit-for-bit check that must hold at crash rate 0.
    identical_to_baseline: bool = False

    @property
    def bandwidth_degradation(self) -> float:
        """Fractional bandwidth lost vs the baseline (0 = none)."""
        if not self.succeeded or self.baseline_bandwidth <= 0:
            return 1.0
        return max(0.0, 1.0 - self.bandwidth / self.baseline_bandwidth)

    @property
    def extra_messages(self) -> int:
        """Recovery overhead in protocol messages."""
        return max(0, self.messages - self.baseline_messages)

    @property
    def extra_time(self) -> float:
        """Recovery overhead in virtual time."""
        return max(0.0, self.convergence_time - self.baseline_convergence)


class RobustnessExperiment(ChaosExperiment):
    """The crash rate x network size sweep (see the module docstring)."""

    config_class = RobustnessConfig
    chaos_salt = 0xC0FFEE

    def _plan(self, injector, scenario, crash_rate, seed) -> ChaosPlan:
        return injector.chaos_plan(
            scenario.overlay,
            crash_rate=crash_rate,
            window=CRASH_WINDOW,
            revive_after=self.config.revive_after,
            seed=seed,
        )

    @staticmethod
    def _record(
        size: int,
        rate: float,
        trial: int,
        baseline: SFlowResult,
        result: SFlowResult,
        chaos: Optional[ChaosPlan],
    ) -> RobustnessRecord:
        succeeded = result.flow_graph is not None
        quality = result.flow_graph.quality() if succeeded else None
        base_quality = (
            baseline.flow_graph.quality()
            if baseline.flow_graph is not None
            else None
        )
        return RobustnessRecord(
            network_size=size,
            crash_rate=rate,
            trial=trial,
            succeeded=succeeded,
            bandwidth=quality.bandwidth if quality else 0.0,
            latency=quality.latency if quality else float("inf"),
            baseline_bandwidth=base_quality.bandwidth if base_quality else 0.0,
            baseline_latency=(
                base_quality.latency if base_quality else float("inf")
            ),
            messages=result.messages,
            baseline_messages=baseline.messages,
            convergence_time=result.convergence_time,
            baseline_convergence=baseline.convergence_time,
            crashes=result.crashes,
            failovers=result.failovers,
            refederations=result.refederations,
            recovery_events=len(result.recovery_log),
            failure_reason=result.failure_reason,
            identical_to_baseline=_reproduces(baseline, result),
        )


def run_robustness(
    config: Optional[RobustnessConfig] = None,
) -> List[RobustnessRecord]:
    """Convenience wrapper mirroring :func:`repro.eval.experiments.run_evaluation`."""
    return RobustnessExperiment(config).run()


@dataclass
class RobustnessCell:
    """Aggregates of one ``(network size, crash rate)`` sweep cell."""

    network_size: int
    crash_rate: float
    trials: int
    success_rate: float
    mean_bandwidth_degradation: float
    mean_extra_messages: float
    mean_extra_time: float
    mean_failovers: float
    mean_refederations: float
    all_identical_to_baseline: bool


def summarize(records: List[RobustnessRecord]) -> List[RobustnessCell]:
    """Collapse trial records into per-cell aggregates, cell-sorted."""
    cells: Dict[Tuple[int, float], List[RobustnessRecord]] = {}
    for record in records:
        cells.setdefault((record.network_size, record.crash_rate), []).append(
            record
        )
    out: List[RobustnessCell] = []
    for (size, rate), bucket in sorted(cells.items()):
        survivors = [r for r in bucket if r.succeeded]
        out.append(
            RobustnessCell(
                network_size=size,
                crash_rate=rate,
                trials=len(bucket),
                success_rate=len(survivors) / len(bucket),
                mean_bandwidth_degradation=(
                    mean([r.bandwidth_degradation for r in survivors])
                    if survivors
                    else 1.0
                ),
                mean_extra_messages=mean(
                    [float(r.extra_messages) for r in bucket]
                ),
                mean_extra_time=mean([r.extra_time for r in bucket]),
                mean_failovers=mean([float(r.failovers) for r in bucket]),
                mean_refederations=mean(
                    [float(r.refederations) for r in bucket]
                ),
                all_identical_to_baseline=all(
                    r.identical_to_baseline for r in bucket
                ),
            )
        )
    return out


# ---------------------------------------------------------------------------
# gray failures: fault intensity x network size
# ---------------------------------------------------------------------------


#: Recovery-log kinds that count as "the runtime noticed this instance".
_DETECTION_KINDS = frozenset({"suspect", "retry_exhausted", "quarantine"})

#: The adaptive-detection stack of a gray run: suspicion threshold and
#: bootstrap heartbeat interval of the detector, failures that open the
#: breaker, and the retry budget (attempts, backoff base).
_DETECTOR = DetectorConfig(threshold=4.0, bootstrap_interval=15.0)
_BREAKER = BreakerConfig(failure_threshold=2)
_RETRY_POLICY = RetryPolicy(max_attempts=3, base=8.0)


@dataclass
class GrayFailureConfig(ChaosSweepConfig):
    """Sweep parameters for the gray-failure experiment.

    Every cell composes the full gray menu (channel loss / duplication /
    reordering, stragglers, bandwidth sag ramps, flapping links, a healing
    partition, plus a few timed crash-stops), scaled by ``intensities``.
    ``required_fraction`` sets each run's bandwidth requirement relative to
    its own crash-free baseline bottleneck, so the delivered-bandwidth
    fraction is comparable across scenarios.
    """

    network_sizes: Tuple[int, ...] = (10, 20)
    trials: int = 5
    intensities: Tuple[float, ...] = (0.0, 0.3, 0.6)
    fault_window: float = 60.0
    heal_after: Optional[float] = 30.0
    crash_fraction: float = 0.2
    required_fraction: float = 0.8
    refederate_hysteresis: float = 50.0

    @property
    def levels(self) -> Tuple[float, ...]:
        return self.intensities

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.required_fraction <= 1.0):
            raise ValueError("required_fraction must be in (0, 1]")

    def protocol_config(
        self, required_bandwidth: Optional[float] = None
    ) -> SFlowConfig:
        """The protocol knobs; the adaptive-detection stack rides along
        only on requirement-bearing (gray) runs, so the intensity-0 run is
        bit-identical to the plain baseline."""
        adaptive = required_bandwidth is not None
        return super().protocol_config(
            required_bandwidth=required_bandwidth,
            refederate_hysteresis=self.refederate_hysteresis,
            detector=_DETECTOR if adaptive else None,
            breaker=_BREAKER if adaptive else None,
            retry_policy=_RETRY_POLICY if adaptive else None,
        )


@dataclass
class GrayFailureRecord:
    """One gray-failure run compared against its fault-free baseline."""

    network_size: int
    intensity: float
    trial: int
    outcome: str  # "succeeded" | "degraded" | "failed"
    required_bandwidth: float
    achieved_bandwidth: float
    #: min(1, achieved / required); 0 for failed runs.
    delivered_fraction: float
    #: Mean sim-time from a crash to the runtime first noticing the victim
    #: (suspect / retry_exhausted / quarantine event); 0 when nothing to
    #: detect, ``detected`` says how many victims were noticed.
    detection_latency: float
    detected: int
    crashed: int
    suspected: int
    false_suspicions: int
    #: Suspected instances that were neither crashed, straggling, nor
    #: partitioned, as a fraction of all suspected; 0 when none suspected.
    false_suspicion_rate: float
    #: First recovery event to completion (0 on undisturbed runs).
    recovery_latency: float
    messages: int
    convergence_time: float
    recovery_events: int
    crashes: int
    failovers: int
    refederations: int
    failure_reason: str = ""
    #: At intensity 0 the run must reproduce the baseline bit for bit.
    identical_to_baseline: bool = False


class GrayFailureExperiment(ChaosExperiment):
    """The fault intensity x network size sweep (see module docstring)."""

    config_class = GrayFailureConfig
    chaos_salt = 0x6B8B4567

    def _plan(self, injector, scenario, intensity, seed) -> ChaosPlan:
        return injector.gray_plan(
            scenario.overlay,
            intensity=intensity,
            window=self.config.fault_window,
            heal_after=self.config.heal_after,
            crash_fraction=self.config.crash_fraction,
            revive_after=self.config.revive_after,
            seed=seed,
        )

    def _required(self, baseline: SFlowResult) -> float:
        return (
            baseline.flow_graph.bottleneck_bandwidth()
            * self.config.required_fraction
        )

    def _disturbed_protocol(
        self, size: int, trial: int, baseline: SFlowResult
    ) -> SFlowConfig:
        if baseline.flow_graph is None:
            raise RuntimeError(
                f"gray-failure baseline failed for size={size} trial={trial}: "
                f"{baseline.failure_reason}"
            )
        return self.config.protocol_config(
            required_bandwidth=self._required(baseline)
        )

    def _record(
        self,
        size: int,
        intensity: float,
        trial: int,
        baseline: SFlowResult,
        result: SFlowResult,
        chaos: Optional[ChaosPlan],
    ) -> GrayFailureRecord:
        required = self._required(baseline)
        served = result.flow_graph is not None
        if result.achieved_bandwidth is not None:
            achieved = result.achieved_bandwidth
        elif served:
            achieved = result.flow_graph.bottleneck_bandwidth()
        else:
            achieved = 0.0
        delivered = min(1.0, achieved / required) if served else 0.0
        crash_times = {
            str(event.instance): event.at
            for event in (chaos.schedule.events if chaos is not None else ())
        }
        latencies: List[float] = []
        for victim, crashed_at in crash_times.items():
            noticed = [
                event.time
                for event in result.recovery_log
                if event.instance == victim
                and event.kind in _DETECTION_KINDS
                and event.time >= crashed_at
            ]
            if noticed:
                latencies.append(min(noticed) - crashed_at)
        faulty: Set[str] = set(crash_times)
        if chaos is not None and chaos.gray is not None:
            faulty |= {str(inst) for inst in chaos.gray.faulty_instances()}
        false_suspects = [
            name for name in result.suspected if name not in faulty
        ]
        recovery_latency = (
            result.convergence_time - result.recovery_log[0].time
            if result.recovery_log
            else 0.0
        )
        return GrayFailureRecord(
            network_size=size,
            intensity=intensity,
            trial=trial,
            outcome=result.outcome.value,
            required_bandwidth=required,
            achieved_bandwidth=achieved,
            delivered_fraction=delivered,
            detection_latency=(
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            detected=len(latencies),
            crashed=len(crash_times),
            suspected=len(result.suspected),
            false_suspicions=len(false_suspects),
            false_suspicion_rate=(
                len(false_suspects) / len(result.suspected)
                if result.suspected
                else 0.0
            ),
            recovery_latency=recovery_latency,
            messages=result.messages,
            convergence_time=result.convergence_time,
            recovery_events=len(result.recovery_log),
            crashes=result.crashes,
            failovers=result.failovers,
            refederations=result.refederations,
            failure_reason=result.failure_reason,
            identical_to_baseline=(
                _reproduces(baseline, result)
                and result.recovery_log == baseline.recovery_log
            ),
        )


@dataclass
class GrayFailureCell:
    """Aggregates of one ``(network size, intensity)`` sweep cell."""

    network_size: int
    intensity: float
    trials: int
    committed_rate: float
    degraded_rate: float
    failed_rate: float
    mean_delivered_fraction: float
    #: Mean over runs that had something to detect and detected it.
    mean_detection_latency: float
    false_suspicion_rate: float
    mean_recovery_latency: float
    all_identical_to_baseline: bool


def summarize_gray(records: List[GrayFailureRecord]) -> List[GrayFailureCell]:
    """Collapse trial records into per-cell aggregates, cell-sorted."""
    cells: Dict[Tuple[int, float], List[GrayFailureRecord]] = {}
    for record in records:
        cells.setdefault(
            (record.network_size, record.intensity), []
        ).append(record)
    out: List[GrayFailureCell] = []
    for (size, intensity), bucket in sorted(cells.items()):
        detections = [
            r.detection_latency for r in bucket if r.detected > 0
        ]
        suspected = sum(r.suspected for r in bucket)
        false_suspicions = sum(r.false_suspicions for r in bucket)
        disturbed = [r for r in bucket if r.recovery_events > 0]
        out.append(
            GrayFailureCell(
                network_size=size,
                intensity=intensity,
                trials=len(bucket),
                committed_rate=(
                    sum(r.outcome == "succeeded" for r in bucket) / len(bucket)
                ),
                degraded_rate=(
                    sum(r.outcome == "degraded" for r in bucket) / len(bucket)
                ),
                failed_rate=(
                    sum(r.outcome == "failed" for r in bucket) / len(bucket)
                ),
                mean_delivered_fraction=mean(
                    [r.delivered_fraction for r in bucket]
                ),
                mean_detection_latency=(
                    mean(detections) if detections else 0.0
                ),
                false_suspicion_rate=(
                    false_suspicions / suspected if suspected else 0.0
                ),
                mean_recovery_latency=(
                    mean([r.recovery_latency for r in disturbed])
                    if disturbed
                    else 0.0
                ),
                all_identical_to_baseline=all(
                    r.identical_to_baseline for r in bucket
                ),
            )
        )
    return out


def run_gray_failure(
    config: Optional[GrayFailureConfig] = None,
) -> List[GrayFailureRecord]:
    """Convenience wrapper mirroring :func:`run_robustness`."""
    return GrayFailureExperiment(config).run()


def write_gray_csv(records: Sequence[GrayFailureRecord], path: Path) -> None:
    """Write one tidy CSV row per :class:`GrayFailureRecord`."""
    names = [f.name for f in dataclasses.fields(GrayFailureRecord)]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=names)
        writer.writeheader()
        for record in records:
            writer.writerow(dataclasses.asdict(record))


def _format_gray_table(cells: Sequence[GrayFailureCell]) -> str:
    header = (
        f"{'size':>4} {'intensity':>9} {'committed':>9} {'degraded':>8} "
        f"{'failed':>6} {'delivered':>9} {'detect_lat':>10} "
        f"{'false_susp':>10} {'recov_lat':>9}"
    )
    lines = [header, "-" * len(header)]
    for cell in cells:
        lines.append(
            f"{cell.network_size:>4} {cell.intensity:>9.2f} "
            f"{cell.committed_rate:>9.2f} {cell.degraded_rate:>8.2f} "
            f"{cell.failed_rate:>6.2f} {cell.mean_delivered_fraction:>9.3f} "
            f"{cell.mean_detection_latency:>10.2f} "
            f"{cell.false_suspicion_rate:>10.3f} "
            f"{cell.mean_recovery_latency:>9.2f}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI for the seeded gray-failure campaign (the CI chaos-smoke job).

    Runs a :class:`GrayFailureExperiment`, optionally under the flight
    recorder, writes the per-trial CSV, and fails loudly if any exception
    escaped a simulation handler (``engine.handler_error``) -- the
    campaign's "no exception escapes the DES" guarantee.
    """
    parser = argparse.ArgumentParser(
        description="Run a seeded gray-failure robustness campaign."
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 20])
    parser.add_argument(
        "--intensities", type=float, nargs="+", default=[0.0, 0.3, 0.6]
    )
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--csv", type=Path, default=None)
    parser.add_argument(
        "--record",
        type=Path,
        default=None,
        help="capture a flight recording (JSONL) of the campaign",
    )
    args = parser.parse_args(argv)
    if args.record is not None and resolve_workers(
        args.workers, len(args.sizes) * args.trials
    ):
        parser.error(
            "--record captures this process only and cannot follow "
            "--workers into a pool; record with --workers 0"
        )

    from repro import obs
    from repro.obs import metrics as obs_metrics

    config = GrayFailureConfig(
        network_sizes=tuple(args.sizes),
        intensities=tuple(args.intensities),
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    errors_before = obs_metrics.registry().counter("engine.handler_error").total
    context = (
        obs.recording(args.record, meta={"campaign": "gray-failure"})
        if args.record is not None
        else contextlib.nullcontext()
    )
    with context:
        records = GrayFailureExperiment(config).run()
    errors_after = obs_metrics.registry().counter("engine.handler_error").total

    if args.csv is not None:
        write_gray_csv(records, args.csv)
        print(f"wrote {len(records)} records to {args.csv}")
    print(_format_gray_table(summarize_gray(records)))
    if args.record is not None:
        print(f"flight recording written to {args.record}")

    leaked = errors_after - errors_before
    if leaked:
        print(
            f"FAIL: {leaked:.0f} exception(s) escaped simulation handlers",
            file=sys.stderr,
        )
        return 1
    print("engine.handler_error: 0 (no exception escaped the DES)")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
