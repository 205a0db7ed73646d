"""End-to-end integration tests: the paper's claims at miniature scale.

These tests run the complete pipeline (underlay -> overlay -> requirement ->
all five algorithms -> metrics) and assert the *shape* of the paper's
evaluation findings, plus the worked travel-agency example end to end.
They are the executable summary of EXPERIMENTS.md.
"""

import gc
import random

import pytest

from repro import (
    FixedAlgorithm,
    RandomAlgorithm,
    SFlowAlgorithm,
    SFlowConfig,
    ServicePathAlgorithm,
    optimal_flow_graph,
    travel_agency_scenario,
    media_pipeline_scenario,
)
from repro.core.optimal import GlobalOptimalAlgorithm
from repro.core.reductions import ReductionSolver
from repro.eval.experiments import (
    EvaluationConfig,
    _trial_seed,
    run_evaluation,
    run_scalability,
)
from repro.eval.figures import fig10a, fig10b, fig10c, fig10d
from repro.eval.stats import finite, mean
from repro.routing.oracle import RouteOracle
from repro.services.abstract_graph import AbstractGraph
from repro.services.workloads import ScenarioConfig, generate_scenario


CONFIG = EvaluationConfig(
    network_sizes=(10, 18), trials=4, n_services=6, seed=7
)


@pytest.fixture(scope="module")
def sweep():
    return run_evaluation(CONFIG)


@pytest.fixture(scope="module")
def timing_table():
    """Fig. 10(b) sweep with GC pauses excluded from the timed windows.

    Late in a full-suite run a gen-2 collection costs hundreds of ms;
    one landing inside a ~2 ms solver window swamps the measurement.
    The sweep runs as every other does, through the route oracle (the
    committed ``fig10b.csv`` is measured the same way).
    """
    gc.collect()
    gc.disable()
    try:
        return fig10b(CONFIG)
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def work_counts():
    """Per network size, the work the Fig. 10(b) sweep's own scenarios take,
    in counts that repeat exactly: nodes the optimal search explores,
    abstract-graph edges, routing trees a cold sFlow federation builds."""
    counts = {}
    for size in CONFIG.network_sizes:
        nodes = edges = trees = 0
        for trial in range(CONFIG.trials):
            scenario = generate_scenario(
                ScenarioConfig(
                    network_size=size,
                    n_services=CONFIG.n_services,
                    requirement_class=CONFIG.requirement_class,
                    instances_per_service=CONFIG.instance_range(size),
                    seed=_trial_seed(CONFIG.seed, size, trial),
                )
            )
            args = (scenario.requirement, scenario.overlay)
            optimal = GlobalOptimalAlgorithm()
            optimal.solve(*args, source_instance=scenario.source_instance)
            nodes += optimal.last_nodes_explored
            edges += AbstractGraph.build(*args).num_edges()
            oracle = RouteOracle.reset_default()
            SFlowAlgorithm().federate(*args, source_instance=scenario.source_instance)
            trees += oracle.stats().misses + oracle.stats().warmed
        counts[size] = {"nodes": nodes, "edges": edges, "trees": trees}
    return counts


class TestFig10Shapes:
    def test_sflow_correctness_dominates_controls(self, sweep):
        table = fig10a(CONFIG, records=sweep)
        for i in range(len(table.sizes)):
            sflow = table.series["sflow"][i]
            assert sflow >= table.series["random"][i]
            assert sflow >= table.series["service_path"][i]
            assert sflow >= table.series["fixed"][i] - 0.05

    def test_sflow_correctness_high(self, sweep):
        table = fig10a(CONFIG, records=sweep)
        assert all(v >= 0.75 for v in table.series["sflow"])

    def test_computation_time_grows_with_network(self, work_counts):
        """Fig. 10(b)'s upward trend, on work counts instead of the
        milliseconds of four ~5 ms trials."""
        small, large = (work_counts[size] for size in CONFIG.network_sizes)
        for kind in small:
            assert large[kind] > small[kind], (kind, work_counts)
        # The optimal search's walk, node for node (it repeats exactly).
        assert (small["nodes"], large["nodes"]) == (37, 72)

    def test_optimal_computation_cheaper_than_distributed(self, timing_table):
        """The paper: the global optimal 'is computed once at the sink', so
        its time sits slightly below sFlow's distributed re-computations."""
        table = timing_table
        for sflow_t, optimal_t in zip(
            table.series["sflow"], table.series["optimal"]
        ):
            assert optimal_t <= sflow_t

    def test_sflow_latency_beats_controls(self, sweep):
        table = fig10c(CONFIG, records=sweep)
        for i in range(len(table.sizes)):
            assert table.series["sflow"][i] <= table.series["fixed"][i] + 1e-9
            assert table.series["sflow"][i] <= table.series["random"][i] + 1e-9
            assert table.series["sflow"][i] <= table.series["service_path"][i] + 1e-9

    def test_bandwidth_ordering(self, sweep):
        table = fig10d(CONFIG, records=sweep)
        for i in range(len(table.sizes)):
            assert table.series["optimal"][i] >= table.series["sflow"][i] - 1e-9
            assert table.series["sflow"][i] >= table.series["fixed"][i] - 1e-9
            assert table.series["sflow"][i] >= table.series["random"][i] - 1e-9


class TestTravelAgencyWorkedExample:
    """The paper's running example (Figs. 1-9), end to end."""

    def test_all_algorithms_complete(self):
        scenario = travel_agency_scenario()
        args = dict(source_instance=scenario.source_instance)
        sflow = SFlowAlgorithm().solve(
            scenario.requirement, scenario.overlay, **args
        )
        fixed = FixedAlgorithm().solve(
            scenario.requirement, scenario.overlay, **args
        )
        rnd = RandomAlgorithm().solve(
            scenario.requirement, scenario.overlay,
            rng=random.Random(0), **args
        )
        optimal = optimal_flow_graph(
            scenario.requirement, scenario.overlay, **args
        )
        for graph in (sflow, fixed, rnd, optimal):
            assert len(graph.assignment) == 9

    def test_sflow_close_to_optimal(self):
        scenario = travel_agency_scenario()
        sflow = SFlowAlgorithm().solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        optimal = optimal_flow_graph(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert sflow.correctness_coefficient(optimal) >= 0.7
        assert sflow.bottleneck_bandwidth() >= 0.8 * optimal.bottleneck_bandwidth()

    def test_dag_latency_beats_serialized_delivery(self):
        """The paper's core motivation: DAG federation enables parallel
        processing; a serialized service path pays every hop."""
        scenario = travel_agency_scenario()
        sflow = SFlowAlgorithm().solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        chain = ServicePathAlgorithm()
        chain.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert sflow.end_to_end_latency() < chain.last_serialized.latency

    def test_media_pipeline_example(self):
        scenario = media_pipeline_scenario()
        sflow = SFlowAlgorithm().solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        optimal = optimal_flow_graph(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert sflow.is_complete()
        assert not sflow.quality().is_better_than(optimal.quality())


class TestCrossAlgorithmInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_everyone_below_optimal(self, seed):
        from repro.services.workloads import ScenarioConfig, generate_scenario

        scenario = generate_scenario(
            ScenarioConfig(network_size=16, n_services=6, seed=seed)
        )
        optimal = optimal_flow_graph(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        algorithms = [
            SFlowAlgorithm(),
            FixedAlgorithm(),
            RandomAlgorithm(),
            ReductionSolver(),
        ]
        for algorithm in algorithms:
            graph = algorithm.solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
                rng=random.Random(seed),
            )
            assert not graph.quality().is_better_than(optimal.quality())

    def test_sflow_message_complexity_linear_in_requirement(self):
        from repro.services.workloads import ScenarioConfig, generate_scenario

        for n_services in (4, 6, 8):
            scenario = generate_scenario(
                ScenarioConfig(network_size=16, n_services=n_services, seed=11)
            )
            algorithm = SFlowAlgorithm()
            algorithm.solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
            assert algorithm.last_result.messages == (
                len(scenario.requirement.edges()) + 1
            )
