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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.alternatives import (
    FixedAlgorithm,
    RandomAlgorithm,
    ServicePathAlgorithm,
)
from repro.core.optimal import GlobalOptimalAlgorithm
from repro.core.sflow import SFlowAlgorithm, SFlowConfig
from repro.errors import FederationError
from repro.obs import metrics as obs_metrics
from repro.obs import timeseries as obs_timeseries
from repro.obs.causal import (
    CampaignProfile,
    aggregate_profiles,
    merge_campaigns,
    profile_recording,
)
from repro.obs.clock import Stopwatch
from repro.obs.recorder import Recorder, parse_recording
from repro.obs.trace import tracer as obs_tracer
from repro.obs.slo import SloSpec, replay as slo_replay
from repro.routing.oracle import RouteOracle
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import RequirementClass
from repro.services.workloads import Scenario, ScenarioConfig, generate_scenario

#: The algorithm line-up of the evaluation section.
ALGORITHMS = ("sflow", "fixed", "random", "service_path", "optimal")


@dataclass
class EvaluationConfig:
    """Sweep parameters (defaults follow the paper's setup).

    The paper evaluates network sizes 10..50; requirements "of any type"
    (mixed classes) for the quality panels and path requirements for the
    timing panel.  ``trials`` scenarios are generated per size from
    deterministic sub-seeds of ``seed``.
    """

    network_sizes: Tuple[int, ...] = (10, 20, 30, 40, 50)
    trials: int = 20
    n_services: int = 6
    requirement_class: Optional[RequirementClass] = None
    instances_per_service: Tuple[int, int] = (1, 3)
    scale_instances: bool = True
    horizon: int = 2
    pareto: bool = True
    use_link_state: bool = False
    seed: int = 0
    #: Evaluation parallelism: 0 or 1 runs the sweep serially in-process;
    #: ``n >= 2`` fans the independent (size, trial) cells out over a pool
    #: of ``n`` worker processes; -1 uses every CPU.  Every cell derives
    #: its randomness from ``seed`` alone and results are concatenated in
    #: cell-submission order, so the parallel sweep reproduces the serial
    #: one record for record (wall-clock timing fields aside).
    workers: int = 0
    #: Optional sim-time metric sampling inside every sflow cell (see
    #: :attr:`repro.core.sflow.SFlowConfig.sample_interval`); ``None``: off.
    sample_interval: Optional[float] = None
    #: SLOs graded over the sweep's folded series bank (needs
    #: ``sample_interval``); verdicts land in :class:`SweepTelemetry`.
    slos: Tuple[SloSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.network_sizes:
            raise ValueError("need at least one network size")
        if self.workers < -1:
            raise ValueError("workers must be >= -1")
        if self.sample_interval is not None and self.sample_interval <= 0:
            raise ValueError("sample_interval must be > 0 (or None)")
        self.slos = tuple(self.slos)
        if self.slos and self.sample_interval is None:
            raise ValueError("slos need sample_interval to be evaluated")

    def instance_range(self, network_size: int) -> Tuple[int, int]:
        """Instances per service for a given network size.

        In the paper every network node is a service node (Fig. 4), so the
        overlay grows with the network.  With ``scale_instances`` (default)
        we replicate that: instance counts are chosen so the total number of
        service instances roughly fills the network; otherwise the static
        ``instances_per_service`` range is used.
        """
        if not self.scale_instances:
            return self.instances_per_service
        per_service = max(1, round(network_size / self.n_services))
        return (max(1, per_service - 1), per_service + 1)


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
    pareto: bool = True,
    use_link_state: bool = False,
    rng: Optional[random.Random] = None,
    stopwatch: Optional[Stopwatch] = None,
) -> List[TrialRecord]:
    """Run the full algorithm line-up on one scenario.

    Returns one record per algorithm.  The optimal benchmark always runs
    (it defines the correctness coefficient); if the scenario is infeasible
    even for it, every record is marked infeasible.  ``stopwatch``
    injects the host clock behind ``elapsed_seconds`` (tests script it).
    """
    records, _ = run_trial_with_series(
        scenario,
        horizon=horizon,
        pareto=pareto,
        use_link_state=use_link_state,
        rng=rng,
        stopwatch=stopwatch,
    )
    return records


def run_trial_with_series(
    scenario: Scenario,
    *,
    horizon: int = 2,
    pareto: bool = True,
    use_link_state: bool = False,
    rng: Optional[random.Random] = None,
    stopwatch: Optional[Stopwatch] = None,
    sample_interval: Optional[float] = None,
) -> Tuple[List[TrialRecord], Dict[str, dict]]:
    """:func:`run_trial` plus the sflow run's sampled series bank.

    With ``sample_interval`` set, the sflow arm of the line-up runs under
    a :class:`~repro.obs.timeseries.SeriesSampler` and the second element
    is its plain-dict bank (empty otherwise -- and empty for the
    centralized baselines, which have no simulation to sample).
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
    series_bank: Dict[str, dict] = {}

    optimal_alg = GlobalOptimalAlgorithm()
    started = stopwatch.read()
    try:
        optimal = optimal_alg.solve(requirement, overlay, source_instance=source)
    except FederationError:
        optimal = None
    optimal_elapsed = stopwatch.read() - started

    sflow_alg = SFlowAlgorithm(
        SFlowConfig(
            horizon=horizon,
            pareto=pareto,
            use_link_state=use_link_state,
            sample_interval=sample_interval,
        )
    )
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
            series_bank = sflow_alg.last_result.series
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
    return records, series_bank


def _evaluate_cell(payload: Tuple[EvaluationConfig, int, int]) -> List[TrialRecord]:
    """One (size, trial) sweep cell; self-seeded, safe in a worker process."""
    records, _ = _observed_cell(payload)
    return records


def _observed_cell(
    payload: Tuple[EvaluationConfig, int, int]
) -> Tuple[List[TrialRecord], Dict[str, dict]]:
    """:func:`_evaluate_cell` plus the cell's sampled series bank."""
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
    return run_trial_with_series(
        scenario,
        horizon=config.horizon,
        pareto=config.pareto,
        use_link_state=config.use_link_state,
        rng=random.Random(scenario_seed ^ 0x5F5F),
        sample_interval=config.sample_interval,
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


def _oracle_handoff() -> Tuple[bool, bool, int, int]:
    """The parent oracle's configuration, shipped to pool initializers."""
    oracle = RouteOracle.default()
    return (
        oracle.enabled,
        oracle.use_kernel,
        oracle.kernel_min_nodes,
        oracle.max_entries,
    )


def _init_worker(handoff: Tuple[bool, bool, int, int]) -> None:
    """Pool initializer: align the worker's oracle with the parent's.

    Under fork the worker already inherits the parent's oracle object
    (cache, snapshots and all); under spawn it starts fresh.  Either way
    the parent's *configuration* -- the enabled/kernel switches the perf
    harness A/Bs -- must override defaults, or a pooled sweep would
    quietly measure the wrong arm while the serial one measured the
    right one.
    """
    enabled, use_kernel, kernel_min_nodes, max_entries = handoff
    oracle = RouteOracle.default()
    oracle.enabled = enabled
    oracle.use_kernel = use_kernel
    oracle.kernel_min_nodes = kernel_min_nodes
    oracle.max_entries = max_entries


def map_cells(worker, payloads: List, workers: int) -> List:
    """Deterministically map ``worker`` over cell payloads.

    With a pool, ``Pool.map`` collects results in submission order -- the
    same order the serial loop produces -- so the only difference between
    the two paths is wall-clock time.  Each cell reseeds from its payload,
    never from global state, which makes the fan-out bit-reproducible.
    Pools fork (:func:`_pool_context`) and re-apply the parent oracle's
    configuration in every worker (:func:`_init_worker`).
    """
    pool_size = resolve_workers(workers, len(payloads))
    if pool_size == 0:
        return [worker(payload) for payload in payloads]
    ctx = _pool_context()
    with ctx.Pool(
        pool_size, initializer=_init_worker, initargs=(_oracle_handoff(),)
    ) as pool:
        return pool.map(worker, payloads, chunksize=1)


class _MeteredCell:
    """Picklable wrapper: run a cell worker and ship its metric delta.

    Each cell snapshots the (per-process) metrics registry before and after
    the worker runs and returns ``(result, delta)``.  The before/after diff
    is what makes pooled sweeps correct: a forked worker inherits whatever
    counter values the parent had accumulated, and subtracting the entry
    snapshot leaves exactly the increments this cell caused.
    """

    def __init__(self, worker) -> None:
        self.worker = worker

    def __call__(self, payload) -> Tuple[object, Dict[str, dict]]:
        reg = obs_metrics.registry()
        before = reg.snapshot()
        result = self.worker(payload)
        delta = obs_metrics.diff_snapshots(reg.snapshot(), before)
        return result, delta


def map_cells_with_metrics(
    worker, payloads: List, workers: int
) -> Tuple[List, Dict[str, dict]]:
    """:func:`map_cells` plus per-cell metric merging.

    Returns ``(cell_results, merged_delta)`` where ``merged_delta`` is the
    submission-order merge of every cell's registry delta.  When a pool
    computed the cells, the merge is also folded into the parent process's
    registry -- worker increments land in forked copies, and without this
    fold the parent's counters would silently disagree with a serial run of
    the same sweep.
    """
    pool_size = resolve_workers(workers, len(payloads))
    metered = _MeteredCell(worker)
    if pool_size == 0:
        results = [metered(payload) for payload in payloads]
    else:
        ctx = _pool_context()
        with ctx.Pool(
            pool_size, initializer=_init_worker, initargs=(_oracle_handoff(),)
        ) as pool:
            results = pool.map(metered, payloads, chunksize=1)
    merged: Dict[str, dict] = {}
    for _, delta in results:
        merged = obs_metrics.merge_snapshots(merged, delta)
    if pool_size != 0:
        obs_metrics.registry().apply(merged)
    return [cell for cell, _ in results], merged


class _ProfiledCell:
    """Picklable wrapper: run a cell under a private in-memory recorder.

    The cell's federations trace into a per-cell ``StringIO`` recording
    (the tracer's previous sink is saved and restored, so an outer
    recording -- if any -- is shadowed for the cell, never closed), which
    is then causally profiled *inside the cell*.  Only the folded
    :class:`~repro.obs.causal.CampaignProfile` travels back to the parent:
    cheap to pickle, and its submission-order merge is plain float
    addition, so pooled sweeps aggregate bit-identically to serial ones.
    """

    def __init__(self, worker) -> None:
        self.worker = worker

    def __call__(self, payload) -> Tuple[object, CampaignProfile]:
        buffer = io.StringIO()
        active = obs_tracer()
        previous = active.sink
        recorder = Recorder(buffer)
        active.set_sink(recorder)
        try:
            result = self.worker(payload)
        finally:
            active.set_sink(previous)
            recorder.close()
        recording = parse_recording(buffer.getvalue().splitlines())
        profile = aggregate_profiles(profile_recording(recording))
        return result, profile


def run_evaluation_with_profiles(
    config: EvaluationConfig,
) -> Tuple[List[TrialRecord], CampaignProfile]:
    """The quality sweep plus a campaign-level causal profile.

    Every cell's sflow runs are flight-recorded in memory and reduced to
    critical-path aggregates (:mod:`repro.obs.causal`); cells fold in
    submission order, so the returned :class:`CampaignProfile` is
    bit-identical between ``workers=0`` and any pool size.  Trial records
    are unchanged from :func:`run_evaluation` -- tracing stamps message
    ids but never alters protocol behaviour.
    """
    payloads = [
        (config, size, trial)
        for size in config.network_sizes
        for trial in range(config.trials)
    ]
    cell_results, _ = map_cells_with_metrics(
        _ProfiledCell(_evaluate_cell), payloads, config.workers
    )
    records: List[TrialRecord] = []
    campaign = CampaignProfile()
    for cell_records, profile in cell_results:
        records.extend(cell_records)
        merge_campaigns(campaign, profile)
    return records, campaign


def run_evaluation(config: EvaluationConfig) -> List[TrialRecord]:
    """The main quality sweep (Fig. 10 a/c/d): mixed requirements.

    Deterministic: every (size, trial) pair derives its scenario seed from
    ``config.seed``, so re-runs produce identical tables -- including
    across the serial/parallel switch (``config.workers``), which only
    changes who computes each independent cell, not what is computed.
    """
    records, _ = run_evaluation_with_metrics(config)
    return records


def run_evaluation_with_metrics(
    config: EvaluationConfig,
) -> Tuple[List[TrialRecord], Dict[str, dict]]:
    """:func:`run_evaluation` plus the sweep's merged metric snapshot.

    The second element is the registry delta the whole sweep caused --
    protocol counters, oracle hit/miss counts, channel histograms.  All
    integer series (counters, histogram counts and buckets) are identical
    whether the cells ran serially or over a worker pool (per-cell deltas
    merge in submission order either way); float histogram *sums* can
    differ in the final bits, since subtraction-based deltas round
    differently than a fresh accumulation.
    """
    records, metrics, _ = run_evaluation_with_observability(config)
    return records, metrics


@dataclass
class SweepTelemetry:
    """Series and SLO outputs of one observed sweep.

    ``series`` is the submission-order fold of every cell's sampled bank
    (:func:`repro.obs.timeseries.merge_banks`): per-sim-time aggregates
    across cells.  All integer series content (sample times, counter
    deltas, histogram counts and buckets) is bit-identical between serial
    and pooled runs; histogram float *sums* carry the same last-bit
    rounding caveat as :func:`run_evaluation_with_metrics`.
    ``slo_results``/``alerts`` come from replaying ``config.slos`` over
    that folded bank (empty when no SLOs were configured).
    """

    series: Dict[str, dict] = field(default_factory=dict)
    slo_results: List[dict] = field(default_factory=list)
    alerts: List[dict] = field(default_factory=list)


def run_evaluation_with_observability(
    config: EvaluationConfig,
) -> Tuple[List[TrialRecord], Dict[str, dict], SweepTelemetry]:
    """The fully observed sweep: records, merged metrics, telemetry.

    With ``config.sample_interval`` unset the telemetry is empty and the
    sweep is exactly :func:`run_evaluation_with_metrics`.  With it set,
    every sflow cell samples series in sim time; the per-cell banks fold
    in submission order, so ``workers`` never changes the folded series
    beyond the histogram-sum rounding caveat (the eval tests assert
    bit-equality of everything integer), and any ``config.slos`` are
    graded over the folded bank.
    """
    payloads = [
        (config, size, trial)
        for size in config.network_sizes
        for trial in range(config.trials)
    ]
    cell_results, metrics = map_cells_with_metrics(
        _observed_cell, payloads, config.workers
    )
    records: List[TrialRecord] = []
    bank: Dict[str, dict] = {}
    for cell_records, cell_bank in cell_results:
        records.extend(cell_records)
        bank = obs_timeseries.merge_banks(bank, cell_bank)
    telemetry = SweepTelemetry(series=bank)
    if config.slos:
        engine = slo_replay(bank, config.slos)
        telemetry.slo_results = engine.summary()
        telemetry.alerts = list(engine.alerts)
    return records, metrics, telemetry


def run_scalability(config: EvaluationConfig) -> List[TrialRecord]:
    """The Fig. 10(b) sweep: *path requirements only* (paper's constraint)."""
    return run_evaluation(replace(config, requirement_class=RequirementClass.PATH))


def _trial_seed(base: int, size: int, trial: int) -> int:
    """Stable per-(size, trial) seed derivation."""
    return (base * 1_000_003 + size * 7919 + trial * 104_729) % (2**31)


def aggregate(
    records: Iterable[TrialRecord],
    metric: str,
    *,
    feasible_only: bool = True,
) -> Dict[Tuple[int, str], float]:
    """Mean of ``metric`` grouped by ``(network_size, algorithm)``.

    ``feasible_only`` drops infeasible trials (e.g. a random pick that broke
    the flow graph) from quality metrics, so a handful of failures do not
    turn a mean latency into infinity.
    """
    from repro.eval.stats import mean

    groups: Dict[Tuple[int, str], List[float]] = {}
    for rec in records:
        if feasible_only and not rec.feasible:
            continue
        groups.setdefault((rec.network_size, rec.algorithm), []).append(
            getattr(rec, metric)
        )
    return {key: mean(values) for key, values in groups.items()}
