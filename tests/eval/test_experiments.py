"""Tests for the experiment sweeps."""

import io
import math
from dataclasses import replace

import pytest

import repro.obs as obs
from repro.eval.experiments import (
    ALGORITHMS,
    EvaluationConfig,
    observe_evaluation,
    resolve_workers,
    run_evaluation,
    run_scalability,
    run_trial,
)
from repro.eval.figures import _series
from repro.obs.trace import tracer as obs_tracer
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.eval.contract import (
    comparable,
    folds,
    same_integer_metrics,
    same_profile,
    same_records,
)

SMALL = EvaluationConfig(network_sizes=(10, 14), trials=2, n_services=5, seed=1)


@pytest.fixture(scope="module")
def records():
    return run_evaluation(SMALL)


class TestConfig:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            EvaluationConfig(trials=0)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            EvaluationConfig(network_sizes=())

    def test_instance_scaling(self):
        config = EvaluationConfig(n_services=5)
        lo, hi = config.instance_range(20)
        assert lo <= 20 / 5 <= hi


class TestRunTrial:
    def test_records_for_all_algorithms(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=0)
        )
        records = run_trial(scenario)
        assert sorted(r.algorithm for r in records) == sorted(ALGORITHMS)

    def test_optimal_scores_perfect_correctness(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=0)
        )
        records = run_trial(scenario)
        optimal = next(r for r in records if r.algorithm == "optimal")
        assert optimal.correctness == 1.0
        assert optimal.feasible

    def test_correctness_bounded(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=1)
        )
        for rec in run_trial(scenario):
            assert 0.0 <= rec.correctness <= 1.0

    def test_sflow_has_message_metrics(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=2)
        )
        records = run_trial(scenario)
        sflow = next(r for r in records if r.algorithm == "sflow")
        assert sflow.messages > 0
        assert sflow.convergence_time > 0

    def test_non_sflow_has_no_message_metrics(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=2)
        )
        records = run_trial(scenario)
        fixed = next(r for r in records if r.algorithm == "fixed")
        assert fixed.messages == 0


class TestSweeps:
    def test_record_count(self, records):
        assert len(records) == 2 * 2 * len(ALGORITHMS)

    def test_deterministic(self, records):
        again = run_evaluation(SMALL)
        key = lambda r: (r.network_size, r.trial, r.algorithm)
        assert sorted(
            (r.network_size, r.algorithm, r.bandwidth, r.correctness)
            for r in records
        ) == sorted(
            (r.network_size, r.algorithm, r.bandwidth, r.correctness)
            for r in again
        )

    def test_all_sizes_present(self, records):
        assert {r.network_size for r in records} == {10, 14}

    def test_scalability_uses_path_requirements(self):
        records = run_scalability(SMALL)
        assert all(
            r.requirement_class in ("path", "single") for r in records
        )

    def test_sflow_never_beats_optimal_bandwidth(self, records):
        by_key = {}
        for rec in records:
            by_key.setdefault((rec.network_size, rec.trial), {})[
                rec.algorithm
            ] = rec
        for group in by_key.values():
            assert group["sflow"].bandwidth <= group["optimal"].bandwidth + 1e-9


class TestAggregate:
    """``figures._series`` is the one aggregator every panel uses."""

    def test_groups_by_size_and_algorithm(self, records):
        table = _series(
            records, (10, 14), ("sflow", "optimal"), "correctness",
            feasible_only=False,
        )
        assert set(table) == {"sflow", "optimal"}
        assert all(len(values) == 2 for values in table.values())
        assert table["optimal"] == (1.0, 1.0)

    def test_feasible_only_drops_failures(self, records):
        sflow = next(r for r in records if r.algorithm == "sflow" and r.feasible)
        failed = replace(sflow, feasible=False, latency=sflow.latency + 100.0)
        lost = replace(sflow, feasible=False, latency=math.inf)
        size = (sflow.network_size,)

        def mean_latency(rows, feasible_only):
            return _series(
                rows, size, ("sflow",), "latency", feasible_only=feasible_only
            )["sflow"][0]

        assert mean_latency([sflow, failed, lost], True) == sflow.latency
        # Loose aggregation keeps the failure; infinities never reach a mean.
        assert mean_latency([sflow, failed, lost], False) == pytest.approx(
            sflow.latency + 50.0
        )


SMALLER = EvaluationConfig(network_sizes=(10,), trials=2, n_services=4, seed=3)


class TestParallelDeterminism:
    """The multiprocessing sweep must reproduce the serial sweep exactly
    (the whole contract, for every sweep family: ``test_sweep_contract``)."""

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            EvaluationConfig(workers=-2)

    def test_parallel_matches_serial(self):
        same_records(*folds("evaluation"))

    def test_parallel_scalability_matches_serial(self):
        serial = run_scalability(SMALLER)
        parallel = run_scalability(replace(SMALLER, workers=2))
        assert comparable(parallel) == comparable(serial)

    def test_all_cpus_sentinel(self):
        assert resolve_workers(0, 10) == 0
        assert resolve_workers(1, 10) == 0
        assert resolve_workers(4, 2) == 2
        assert resolve_workers(-1, 100) >= 0
        assert resolve_workers(8, 1) == 0


class TestMergedMetrics:
    """Per-cell metric deltas merge identically across the worker split."""

    def test_parallel_merged_counters_match_serial(self):
        same_integer_metrics(*folds("evaluation"))

    def test_sweep_counts_protocol_sessions(self):
        fold = observe_evaluation(SMALLER)
        assert fold.profile is None  # profiling is opt-in
        metrics = fold.metrics
        # One sflow federation per (size, trial) cell.
        sessions = sum(metrics["sflow.sessions"]["values"].values())
        assert sessions == 2
        assert sum(metrics["channel.messages"]["values"].values()) > 0

    def test_pooled_sweep_folds_worker_deltas_into_parent_registry(self):
        counter = obs.metrics.registry().counter("sflow.sessions")
        before = counter.total
        metrics = observe_evaluation(replace(SMALLER, workers=2)).metrics
        gained = counter.total - before
        assert gained == sum(metrics["sflow.sessions"]["values"].values())


class TestSweepProfiles:
    """Campaign causal profiles fold identically across the worker split."""

    def test_parallel_campaign_profile_is_bit_identical_to_serial(self):
        serial, pooled = folds("evaluation")
        same_profile(serial, pooled)
        # One traced session per sflow run (the baselines are untraced).
        sflow = [r for r in serial.records if r.algorithm == "sflow"]
        assert serial.profile.sessions == len(sflow)

    def test_profiled_sweep_keeps_trial_records_unchanged(self):
        plain = run_evaluation(SMALLER)
        fold = observe_evaluation(SMALLER, profile=True)
        assert comparable(fold.records) == comparable(plain)
        # The critical path *is* the convergence time, session by session.
        assert fold.profile.path_duration_total == pytest.approx(
            sum(r.convergence_time for r in plain if r.algorithm == "sflow")
        )

    def test_profiling_restores_an_outer_recording_sink(self):
        with obs.recording(io.StringIO()):
            outer = obs_tracer().sink
            observe_evaluation(SMALLER, profile=True)
            assert obs_tracer().sink is outer  # shadowed, never closed
