"""Experiment sweeps behind every panel of the paper's Fig. 10.

One *trial* = one generated scenario (underlay + overlay + requirement) on
which every algorithm runs against the same inputs, plus the global optimal
benchmark used for the correctness coefficient.  A sweep runs ``trials``
trials for every network size in ``network_sizes`` and returns tidy
:class:`TrialRecord` rows; the figure modules aggregate them.

Fig. 10(b) is special: the paper restricts it to *simple* (path)
requirements "since there is no polynomial time algorithm for finding the
optimal service flow graph for non-simple service requirements"; use
:func:`run_scalability` for that sweep.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.alternatives import (
    FixedAlgorithm,
    RandomAlgorithm,
    ServicePathAlgorithm,
)
from repro.core.optimal import GlobalOptimalAlgorithm
from repro.core.sflow import SFlowAlgorithm, SFlowConfig
from repro.errors import FederationError
from repro.obs import active_recorder
from repro.obs import metrics as obs_metrics
from repro.obs.causal import (
    CampaignProfile,
    aggregate_profiles,
    merge_campaigns,
    profile_recording,
)
from repro.obs.clock import Stopwatch
from repro.obs.recorder import Recorder, parse_recording
from repro.obs.trace import tracer as obs_tracer
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import RequirementClass
from repro.services.workloads import Scenario, ScenarioConfig, generate_scenario

#: The algorithm line-up of the evaluation section.
ALGORITHMS = ("sflow", "fixed", "random", "service_path", "optimal")


@dataclass
class SweepConfig:
    """What every campaign is swept over: sizes x trials, seeded, fanned out.

    The base of :class:`EvaluationConfig` and of the crash / gray-failure
    configs in :mod:`repro.eval.robustness` (which override some defaults).
    """

    network_sizes: Tuple[int, ...] = (10, 20, 30, 40, 50)
    trials: int = 20
    n_services: int = 6
    horizon: int = 2
    seed: int = 0
    #: Evaluation parallelism: 0 or 1 runs the sweep serially in-process;
    #: ``n >= 2`` fans the independent (size, trial) cells out over a pool
    #: of ``n`` worker processes; -1 uses every CPU.  Every cell derives
    #: its randomness from ``seed`` alone and results are concatenated in
    #: cell-submission order, so the parallel sweep reproduces the serial
    #: one record for record (wall-clock timing fields aside).
    workers: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.network_sizes:
            raise ValueError("need at least one network size")
        if self.workers < -1:
            raise ValueError("workers must be >= -1")

    def instance_range(self, network_size: int) -> Tuple[int, int]:
        """Instances per service for a given network size.

        In the paper every network node is a service node (Fig. 4), so the
        overlay grows with the network.  We replicate that: instance counts
        are chosen so the total number of service instances roughly fills
        the network.
        """
        per_service = max(1, round(network_size / self.n_services))
        return (max(1, per_service - 1), per_service + 1)


@dataclass
class EvaluationConfig(SweepConfig):
    """Sweep parameters (defaults follow the paper's setup).

    The paper evaluates network sizes 10..50; requirements "of any type"
    (mixed classes) for the quality panels and path requirements for the
    timing panel.  ``trials`` scenarios are generated per size from
    deterministic sub-seeds of ``seed``.
    """

    requirement_class: Optional[RequirementClass] = None


@dataclass
class TrialRecord:
    """One algorithm's outcome on one scenario."""

    network_size: int
    trial: int
    algorithm: str
    requirement_class: str
    feasible: bool
    bandwidth: float
    latency: float
    sequential_latency: float
    correctness: float
    elapsed_seconds: float
    messages: int = 0
    convergence_time: float = 0.0
    assigned_services: int = 0
    total_services: int = 0


def run_trial(
    scenario: Scenario,
    *,
    horizon: int = 2,
    rng: Optional[random.Random] = None,
    stopwatch: Optional[Stopwatch] = None,
) -> List[TrialRecord]:
    """Run the full algorithm line-up on one scenario.

    Returns one record per algorithm.  The optimal benchmark always runs
    (it defines the correctness coefficient); if the scenario is infeasible
    even for it, every record is marked infeasible.  ``stopwatch``
    injects the host clock behind ``elapsed_seconds`` (tests script it).
    """
    rng = rng or random.Random(scenario.seed)
    stopwatch = stopwatch if stopwatch is not None else Stopwatch()
    requirement = scenario.requirement
    overlay = scenario.overlay
    source = scenario.source_instance
    clazz = requirement.classify().value

    def record(
        name: str,
        graph: Optional[ServiceFlowGraph],
        elapsed: float,
        optimal: Optional[ServiceFlowGraph],
        *,
        messages: int = 0,
        convergence: float = 0.0,
    ) -> TrialRecord:
        if graph is None:
            return TrialRecord(
                network_size=scenario.underlay.n,
                trial=scenario.seed,
                algorithm=name,
                requirement_class=clazz,
                feasible=False,
                bandwidth=0.0,
                latency=float("inf"),
                sequential_latency=float("inf"),
                correctness=0.0,
                elapsed_seconds=elapsed,
                messages=messages,
                convergence_time=convergence,
                assigned_services=0,
                total_services=len(requirement),
            )
        quality = graph.quality()
        return TrialRecord(
            network_size=scenario.underlay.n,
            trial=scenario.seed,
            algorithm=name,
            requirement_class=clazz,
            feasible=quality.reachable and graph.is_complete(),
            bandwidth=quality.bandwidth,
            latency=quality.latency,
            sequential_latency=graph.sequential_latency(),
            correctness=(
                graph.correctness_coefficient(optimal) if optimal is not None else 0.0
            ),
            elapsed_seconds=elapsed,
            messages=messages,
            convergence_time=convergence,
            assigned_services=len(graph.assignment),
            total_services=len(requirement),
        )

    records: List[TrialRecord] = []

    optimal_alg = GlobalOptimalAlgorithm()
    started = stopwatch.read()
    try:
        optimal = optimal_alg.solve(requirement, overlay, source_instance=source)
    except FederationError:
        optimal = None
    optimal_elapsed = stopwatch.read() - started

    sflow_alg = SFlowAlgorithm(SFlowConfig(horizon=horizon))
    service_path_alg = ServicePathAlgorithm()
    for name, algorithm in (
        ("sflow", sflow_alg),
        ("fixed", FixedAlgorithm()),
        ("random", RandomAlgorithm()),
        ("service_path", service_path_alg),
    ):
        started = stopwatch.read()
        try:
            graph = algorithm.solve(
                requirement, overlay, source_instance=source, rng=rng
            )
        except FederationError:
            graph = None
        elapsed = stopwatch.read() - started
        messages = 0
        convergence = 0.0
        if name == "sflow" and sflow_alg.last_result is not None:
            messages = sflow_alg.last_result.messages
            convergence = sflow_alg.last_result.convergence_time
        rec = record(
            name,
            graph,
            elapsed,
            optimal,
            messages=messages,
            convergence=convergence,
        )
        if name == "service_path" and graph is not None:
            if service_path_alg.last_serialized is not None:
                # The path system delivers the compound stream hop by hop;
                # its effective latency is the serialized chain's, not the
                # DAG critical path of the realised edges.
                rec.sequential_latency = service_path_alg.last_serialized.latency
            if not service_path_alg.last_native:
                # A serialized delivery moves the bits but violates the
                # requirement's flow relationships: the federation *failed*
                # (paper: "it can only handle the simplest service
                # requirements"), so it scores zero correctness.
                rec.correctness = 0.0
                rec.feasible = False
        records.append(rec)
    records.append(
        record("optimal", optimal, optimal_elapsed, optimal)
    )
    return records


def _trial_cell(payload: Tuple[EvaluationConfig, int, int]) -> List[TrialRecord]:
    """One (size, trial) sweep cell's records.  Self-seeded, so it is safe
    in a worker process."""
    config, size, trial = payload
    scenario_seed = _trial_seed(config.seed, size, trial)
    scenario = generate_scenario(
        ScenarioConfig(
            network_size=size,
            n_services=config.n_services,
            requirement_class=config.requirement_class,
            instances_per_service=config.instance_range(size),
            seed=scenario_seed,
        )
    )
    return run_trial(
        scenario,
        horizon=config.horizon,
        rng=random.Random(scenario_seed ^ 0x5F5F),
    )


def resolve_workers(workers: int, cells: int) -> int:
    """Effective pool size: 0 for serial execution, else >= 2 processes."""
    if workers == -1:
        workers = os.cpu_count() or 1
    if workers <= 1 or cells <= 1:
        return 0
    return min(workers, cells)


def _pool_context():
    """The multiprocessing context evaluation pools run under.

    ``fork`` whenever the platform offers it: workers then inherit the
    parent's memory copy-on-write -- in particular the process-wide
    :class:`~repro.routing.oracle.RouteOracle` with every tree and CSR
    snapshot the parent already warmed, so a fan-out starts from the
    parent's cache instead of five cold ones.  Platforms without fork
    (Windows, macOS spawn default) fall back to the default context and
    start cold; the *results* are identical either way, only the warm-up
    cost differs.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


class _ObservedCell:
    """Picklable wrapper: run one cell and ship what it did to telemetry.

    Each cell snapshots the (per-process) metrics registry before and after
    it runs and returns the delta.  The before/after diff is what makes
    pooled sweeps correct: a forked worker inherits whatever counter values
    the parent had accumulated, and subtracting the entry snapshot leaves
    exactly the increments this cell caused.

    With ``profile`` the cell's federations also trace into a per-cell
    ``StringIO`` recording (the tracer's previous sink is saved and
    restored, so an outer recording -- if any -- is shadowed for the cell,
    never closed), which is causally profiled *inside the cell*.  Only the
    folded :class:`~repro.obs.causal.CampaignProfile` travels back to the
    parent: cheap to pickle, and its submission-order merge is plain float
    addition, so pooled sweeps aggregate bit-identically to serial ones.
    """

    def __init__(self, cell: Callable, profile: bool) -> None:
        self.cell = cell
        self.profile = profile

    def __call__(
        self, payload
    ) -> Tuple[object, Dict[str, dict], Optional[CampaignProfile]]:
        reg = obs_metrics.registry()
        before = reg.snapshot()
        if self.profile:
            result, profile = self._profiled(payload)
        else:
            result, profile = self.cell(payload), None
        delta = obs_metrics.diff_snapshots(reg.snapshot(), before)
        return result, delta, profile

    def _profiled(self, payload) -> Tuple[object, CampaignProfile]:
        buffer = io.StringIO()
        active = obs_tracer()
        previous = active.sink
        recorder = Recorder(buffer)
        active.set_sink(recorder)
        try:
            result = self.cell(payload)
        finally:
            active.set_sink(previous)
            recorder.close()
        recording = parse_recording(buffer.getvalue().splitlines())
        return result, aggregate_profiles(profile_recording(recording))


def sweep(
    cell: Callable, payloads: List, workers: int, *, profile: bool = False
) -> Tuple[List, Dict[str, dict], Optional[CampaignProfile]]:
    """The campaign runner: ``cell`` over every payload, results in
    submission order, plus the folds of what the cells did.

    With a pool, ``Pool.map`` collects results in submission order -- the
    same order the serial loop produces -- so the only difference between
    the two paths is wall-clock time.  Each cell reseeds from its payload,
    never from global state, which makes the fan-out bit-reproducible.
    Pools fork (:func:`_pool_context`).

    The second element is the submission-order merge of every cell's
    metric-registry delta.  When a pool computed the cells, the merge is
    also folded into the parent process's registry -- worker increments
    land in forked copies, and without this fold the parent's counters
    would silently disagree with a serial run of the same sweep.  All
    integer series (counters, histogram counts and buckets) are identical
    either way; float histogram *sums* can differ in the final bits, since
    subtraction-based deltas round differently than a fresh accumulation.
    The third is the folded causal profile of every cell's in-memory
    flight recording (``None`` unless ``profile``), bit-identical between
    ``workers=0`` and any pool size.

    A flight recording is per-process: workers would write none of their
    spans and events to one the parent holds open, so a pooled sweep
    under an active recording is refused rather than silently truncated.
    """
    pool_size = resolve_workers(workers, len(payloads))
    if pool_size != 0 and active_recorder() is not None:
        raise ValueError(
            "a flight recording is active and cannot follow a sweep into "
            f"{pool_size} worker processes; record with workers=0"
        )
    observed = _ObservedCell(cell, profile)
    if pool_size == 0:
        outcomes = [observed(payload) for payload in payloads]
    else:
        with _pool_context().Pool(pool_size) as pool:
            outcomes = pool.map(observed, payloads, chunksize=1)
    metrics: Dict[str, dict] = {}
    campaign = CampaignProfile() if profile else None
    for _, delta, cell_profile in outcomes:
        metrics = obs_metrics.merge_snapshots(metrics, delta)
        if campaign is not None:
            merge_campaigns(campaign, cell_profile)
    if pool_size != 0:
        obs_metrics.registry().apply(metrics)
    return [result for result, _, _ in outcomes], metrics, campaign


@dataclass
class SweepFold:
    """Everything one observed sweep produced, folded in submission order.

    ``metrics`` is the registry delta the whole sweep caused -- protocol
    counters, oracle hit/miss counts, channel histograms (see
    :func:`sweep`), and ``profile`` is the campaign-level causal profile
    (``None`` unless requested).
    """

    records: List = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)
    profile: Optional[CampaignProfile] = None


def observe_sweep(
    cell: Callable,
    subject: object,
    config: SweepConfig,
    *,
    profile: bool = False,
) -> SweepFold:
    """Run one ``(subject, size, trial)`` cell per size and trial of
    ``config`` through :func:`sweep` and flatten the outcome.

    Every cell returns its records.  With ``profile``, every run is
    flight-recorded in memory and reduced to critical-path aggregates
    (:mod:`repro.obs.causal`).  That changes no record -- tracing only
    stamps message ids -- so it is an argument of the observation, not
    of the experiment.
    """
    payloads = [
        (subject, size, trial)
        for size in config.network_sizes
        for trial in range(config.trials)
    ]
    cells, metrics, campaign = sweep(
        cell, payloads, config.workers, profile=profile
    )
    return SweepFold(
        records=[record for records in cells for record in records],
        metrics=metrics,
        profile=campaign,
    )


def observe_evaluation(config: EvaluationConfig, **observation) -> SweepFold:
    """The fully observed quality sweep: :func:`run_evaluation`'s records
    plus merged metrics and causal profile.  The keyword arguments are
    :func:`observe_sweep`'s."""
    return observe_sweep(_trial_cell, config, config, **observation)


def run_evaluation(config: EvaluationConfig) -> List[TrialRecord]:
    """The main quality sweep (Fig. 10 a/c/d): mixed requirements.

    Deterministic: every (size, trial) pair derives its scenario seed from
    ``config.seed``, so re-runs produce identical tables -- including
    across the serial/parallel switch (``config.workers``), which only
    changes who computes each independent cell, not what is computed.
    """
    return observe_evaluation(config).records


def run_scalability(config: EvaluationConfig) -> List[TrialRecord]:
    """The Fig. 10(b) sweep: *path requirements only* (paper's constraint)."""
    return run_evaluation(replace(config, requirement_class=RequirementClass.PATH))


def _trial_seed(base: int, size: int, trial: int) -> int:
    """Stable per-(size, trial) seed derivation."""
    return (base * 1_000_003 + size * 7919 + trial * 104_729) % (2**31)
