"""Run one workload: set-up, timed passes, checks, metrics.

Method (every workload): closed loop, one client, in-process calls, one
thread, one fresh process per run.  A run sets up (fixed inputs, the op
population, untimed warm-up ops), then makes ``passes`` timed passes over
the population in the arrival order drawn from the run's seed, with
nothing installed.  Every host time is **speed-normalised** against the
reference kernel a :class:`~benchmarks.e2e.calibration.SpeedMeter` ticks
beside the work (the hosts this runs on change speed by up to 2x from one
minute to the next); an op's time is the **median over passes** of its
normalised time, the percentiles are taken over ops and ``ops_per_s`` is
ops / sum of per-op times.

A traced run (``trace=True``) instead makes one plain pass, one pass with
the :mod:`tracing` wrappers installed and one pass under
``repro.obs.recording()``, and reports the per-layer metrics.  In both
kinds of run every pass must produce the same outputs, and every output
is checked after the clock has stopped.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import FederationError
from repro.routing.oracle import RouteOracle

from benchmarks.e2e import fattree, tracing
from benchmarks.e2e.calibration import SpeedMeter
from benchmarks.e2e.workloads import (
    FAILED,
    WORKLOADS,
    Checked,
    CheckFailed,
    Outcome,
    Workload,
)

#: Default length of the timed part of a run (``run_seconds`` in
#: BENCHMARK.json).
RUN_SECONDS = 20
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: ``name -> (unit, better)`` of the end-to-end metrics, in report order.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "served_ratio": ("ratio", "higher"),
    "bandwidth_vs_optimal": ("ratio", "higher"),
    "sim_convergence_p50": ("simtime", "lower"),
    "messages_per_op": ("msgs", "lower"),
}

#: The metrics that are simulated statistics: seeded and sim-time pure,
#: so they repeat exactly and no host-speed change may move them.
EXACT = ("served_ratio", "bandwidth_vs_optimal", "sim_convergence_p50", "messages_per_op")


class DeterminismError(Exception):
    """Two passes over the same ops produced different outputs."""


@dataclass
class Metric:
    value: float
    unit: str
    #: How many samples the value summarises.
    samples: int


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    ops: int
    passes: int
    attempted: int
    failed: int
    correct: bool
    #: SHA-256 over every op's outputs, in population order.
    digest: str
    metrics: Dict[str, Metric]
    #: Untreated wall-clock numbers, for the record only.
    raw: Dict[str, float] = field(default_factory=dict)
    spans: List[tracing.Span] = field(default_factory=list)


# -- set-up -----------------------------------------------------------------------


def set_up(name: str, seed: int, smoke: bool) -> Tuple[Workload, List[int]]:
    """Fixed inputs, the population, its arrival order, the warm-up ops."""
    RouteOracle.reset_default()
    workload = WORKLOADS[name](smoke)
    order = list(range(len(workload.population)))
    random.Random(seed).shuffle(order)
    for op in workload.warm_up_ops():
        workload.run(op)
    return workload, order


# -- passes -------------------------------------------------------------------------


def run_pass(
    workload: Workload,
    order: Sequence[int],
    tracer: Optional[tracing.Tracer] = None,
) -> Tuple[List[Tuple[float, float]], List[Optional[Outcome]]]:
    """One pass over the population; per-op ``(start, end)`` clock reads
    and outcomes, both indexed by population position.  ``tracer`` is
    installed for exactly the ops of the pass."""
    population = workload.population
    intervals = [(0.0, 0.0)] * len(population)
    outcomes: List[Optional[Outcome]] = [None] * len(population)
    workload.begin_pass()
    if tracer is not None:
        tracer.install()
    try:
        for index in order:
            op = population[index]
            started = perf_counter()
            root = tracer.begin_op(index) if tracer is not None else -1
            try:
                outcomes[index] = workload.run(op)
            except FederationError as exc:
                # No feasible flow graph: a failed op, not a broken benchmark.
                print(f"op {index} of {workload.name} failed: {exc}", file=sys.stderr)
            finally:
                if tracer is not None:
                    tracer.end_op(root)
            intervals[index] = (started, perf_counter())
    finally:
        if tracer is not None:
            tracer.remove()
    return intervals, outcomes


def _seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    return math.fsum(end - start for start, end in intervals)


def _signatures(workload: Workload, outcomes: Sequence[Optional[Outcome]]) -> List[str]:
    return ["error" if o is None else workload.signature(o) for o in outcomes]


def _require_same(label: str, reference: List[str], other: List[str]) -> None:
    for index, (a, b) in enumerate(zip(reference, other)):
        if a != b:
            raise DeterminismError(
                f"{label}: op {index} differs from the first pass:\n  {a}\n  {b}"
            )


# -- checks --------------------------------------------------------------------------


def check_all(
    workload: Workload, outcomes: Sequence[Optional[Outcome]]
) -> Tuple[List[Checked], int]:
    """Check every outcome; returns the verdicts and how many outputs
    were *invalid* (as opposed to honestly failed)."""
    verdicts: List[Checked] = []
    invalid = 0
    for index, (op, outcome) in enumerate(zip(workload.population, outcomes)):
        verdict = FAILED
        if outcome is not None:
            try:
                verdict = workload.check(op, outcome)
            except (CheckFailed, FederationError) as exc:
                invalid += 1
                print(f"op {index} of {workload.name} is invalid: {exc}", file=sys.stderr)
        verdicts.append(verdict)
    return verdicts, invalid


def _exact_metrics(
    verdicts: Sequence[Checked], outcomes: Sequence[Optional[Outcome]]
) -> Dict[str, Metric]:
    """The four simulated statistics, summed in population order so the
    floats do not depend on the arrival order."""
    n = len(verdicts)
    done = [o for o in outcomes if o is not None]
    return {
        "served_ratio": Metric(sum(v.served for v in verdicts) / n, "ratio", n),
        "bandwidth_vs_optimal": Metric(
            math.fsum(v.bandwidth_vs_optimal for v in verdicts) / n, "ratio", n
        ),
        "sim_convergence_p50": Metric(
            statistics.median(o.convergence_time for o in done) if done else 0.0,
            "simtime", len(done),
        ),
        "messages_per_op": Metric(
            sum(o.messages for o in done) / n, "msgs", n
        ),
    }


def _digest(signatures: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(signatures).encode()).hexdigest()


# -- the two kinds of run ---------------------------------------------------------------


def run(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    smoke: bool = False,
    meter: Optional[SpeedMeter] = None,
    started: float = 0.0,
) -> RunResult:
    """Run workload ``name``.

    ``meter`` is a speed meter started at the process's first clock read
    ``started``, so that set-up time includes the imports; without one,
    set-up time starts now.
    """
    if meter is None:
        meter, started = SpeedMeter(), perf_counter()
        meter.start()
    try:
        if trace:
            meter.stop()  # the traced run reports raw self times
            return _traced_run(name, seed, smoke)
        return _timed_run(name, seed, seconds, smoke, meter, started)
    finally:
        meter.stop()


def _timed_run(
    name: str, seed: int, seconds: float, smoke: bool,
    meter: SpeedMeter, started: float,
) -> RunResult:
    setups = []
    mark = perf_counter()
    imported = meter.normalised(started, mark)
    for _ in range(1 if smoke else SETUP_REPEATS):
        workload, order = set_up(name, seed, smoke)
        now = perf_counter()
        setups.append(meter.normalised(mark, now))
        mark = now
    setup_s = imported + statistics.median(setups)

    normalised: List[List[float]] = []
    fastest: List[float] = []
    reference: List[str] = []
    first: List[Optional[Outcome]] = []
    longest = 0.0
    timing_began = perf_counter()
    # As many whole passes as fit into ``seconds`` (at least one).
    while not normalised or perf_counter() - timing_began + longest <= seconds:
        pass_began = perf_counter()
        intervals, outcomes = run_pass(workload, order)
        signatures = _signatures(workload, outcomes)
        wall = [end - start for start, end in intervals]
        if not normalised:
            fastest, reference, first = wall, signatures, outcomes
        else:
            _require_same(f"pass {len(normalised) + 1}", reference, signatures)
            fastest = [min(a, b) for a, b in zip(fastest, wall)]
        normalised.append([meter.normalised(start, end) for start, end in intervals])
        longest = max(longest, perf_counter() - pass_began)
        if smoke:
            break

    made = len(normalised)
    best = [statistics.median(times) for times in zip(*normalised)]
    verdicts, invalid = check_all(workload, first)
    n = len(best)
    millis = sorted(t * 1000.0 for t in best)
    metrics = {
        "setup_s": Metric(setup_s, "s", len(setups)),
        "ops_per_s": Metric(n / math.fsum(best), "op/s", n),
        "op_ms_p50": Metric(statistics.median(millis), "ms", n),
        "op_ms_p90": Metric(_percentile(millis, 90), "ms", n),
        "peak_rss_mb": Metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
    }
    metrics.update(_exact_metrics(verdicts, first))
    failed = sum(not v.served for v in verdicts)
    return RunResult(
        workload=name, seed=seed, trace=False, ops=n, passes=made,
        attempted=n * made, failed=failed * made, correct=invalid == 0,
        digest=_digest(reference), metrics=metrics,
        raw={
            "wall_ops_per_s_min_over_passes": n / math.fsum(fastest),
            "kernel_ms_median": meter.median_tick() * 1000.0,
            "kernel_ticks": float(meter.ticks),
        },
    )


def _percentile(ordered: Sequence[float], percent: int) -> float:
    if len(ordered) < 2:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[percent - 1]


def _traced_run(name: str, seed: int, smoke: bool) -> RunResult:
    workload, order = set_up(name, seed, smoke)
    intervals, outcomes = run_pass(workload, order)
    plain = _seconds(intervals)
    reference = _signatures(workload, outcomes)

    tracer = tracing.Tracer()
    intervals, traced_outcomes = run_pass(workload, order, tracer)
    traced = _seconds(intervals)
    _require_same("traced pass", reference, _signatures(workload, traced_outcomes))

    with obs.recording(io.StringIO()):
        intervals, recorded_outcomes = run_pass(workload, order)
    recorded = _seconds(intervals)
    _require_same("recorded pass", reference, _signatures(workload, recorded_outcomes))

    verdicts, invalid = check_all(workload, outcomes)
    n = len(outcomes)
    metrics = per_layer_metrics(tracer, n, traced)
    metrics["harness.trace_overhead_ratio"] = traced / plain
    metrics["obs.recording_overhead_ratio"] = recorded / plain
    metrics["eval.correctness_coefficient_mean"] = (
        math.fsum(v.correctness for v in verdicts) / n
    )
    metrics.update(fattree.kernel_probe())
    failed = sum(not v.served for v in verdicts)
    return RunResult(
        workload=name, seed=seed, trace=True, ops=n, passes=3,
        attempted=n * 3, failed=failed * 3, correct=invalid == 0,
        digest=_digest(reference),
        metrics={k: Metric(v, per_layer_unit(k), n) for k, v in metrics.items()},
        spans=tracer.spans,
    )


# -- per-layer metrics ------------------------------------------------------------------

_ORACLE_PER_OP = (
    "misses", "carried", "dropped", "invalidated", "repaired", "warmed", "evictions",
)
_SFLOW_PER_OP = {
    "activations": "node_activations",
    "retransmissions": "retransmissions",
    "failovers": "failovers",
    "refederations": "refederations",
}


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{p}.{kind}" for p in tracing.SPAN_NAMES for kind in ("self_ms_per_op", "calls_per_op")]
    names.append("routing.oracle.hit_ratio")
    names += [f"routing.oracle.{c}_per_op" for c in _ORACLE_PER_OP]
    names += [
        "sim.engine.events_per_op", "sim.engine.events_per_s",
        "sim.channels.messages_per_s", "sim.channels.lost_per_op",
    ]
    names += [f"core.sflow.{c}_per_op" for c in _SFLOW_PER_OP]
    names += [
        "core.sflow.degraded_ratio", "core.repair.preserved_fraction",
        "eval.correctness_coefficient_mean",
        "harness.trace_overhead_ratio", "harness.untraced_self_ms_per_op",
        "obs.recording_overhead_ratio",
        "routing.kernel.fattree-k8.trees_per_s",
        "routing.kernel.fattree-k8.distinct_bandwidths",
        "routing.kernel.waxman.trees_per_s",
        "routing.kernel.waxman.distinct_bandwidths",
    ]
    return names


def per_layer_unit(name: str) -> str:
    for suffix, unit in (
        ("self_ms_per_op", "ms"), ("_per_op", "count"), ("_per_s", "1/s"),
        ("distinct_bandwidths", "count"),
    ):
        if name.endswith(suffix):
            return unit
    return "ratio"


def _per(count: float, total: float) -> float:
    return count / total if total else 0.0


def per_layer_metrics(
    tracer: tracing.Tracer, ops: int, traced_seconds: float
) -> Dict[str, float]:
    """The span and counter metrics of one traced pass over ``ops`` ops.

    A layer the workload never enters reports 0 calls and 0 ms.
    """
    totals = tracing.self_times(tracer.spans)
    covered = math.fsum(seconds for seconds, _calls in totals.values())
    if abs(covered - traced_seconds) > 0.02 * traced_seconds:
        raise RuntimeError(
            f"span self times cover {covered:.4f}s of a {traced_seconds:.4f}s pass"
        )
    metrics: Dict[str, float] = {}
    for point in tracing.SPAN_NAMES:
        seconds, calls = totals.get(point, (0.0, 0))
        metrics[f"{point}.self_ms_per_op"] = seconds * 1000.0 / ops
        metrics[f"{point}.calls_per_op"] = calls / ops
    metrics["harness.untraced_self_ms_per_op"] = (
        totals.get(tracing.ROOT, (0.0, 0))[0] * 1000.0 / ops
    )
    counts = tracer.counts
    metrics["routing.oracle.hit_ratio"] = _per(
        counts["oracle.hits"], counts["oracle.hits"] + counts["oracle.misses"]
    )
    for counter in _ORACLE_PER_OP:
        metrics[f"routing.oracle.{counter}_per_op"] = counts[f"oracle.{counter}"] / ops
    des_seconds = tracing.inclusive_time(tracer.spans, "sim.engine.run")
    metrics["sim.engine.events_per_op"] = counts["events"] / ops
    metrics["sim.engine.events_per_s"] = _per(counts["events"], des_seconds)
    metrics["sim.channels.messages_per_s"] = _per(counts["messages"], des_seconds)
    metrics["sim.channels.lost_per_op"] = counts["lost_messages"] / ops
    for short, counter in _SFLOW_PER_OP.items():
        metrics[f"core.sflow.{short}_per_op"] = counts[counter] / ops
    metrics["core.sflow.degraded_ratio"] = _per(counts["degraded"], counts["federations"])
    metrics["core.repair.preserved_fraction"] = _per(
        counts["preserved_fraction_sum"], counts["repairs"]
    )
    return metrics
