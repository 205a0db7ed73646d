"""Tests for the global optimal branch-and-bound search."""

import collections
import itertools
import math
import random

import pytest

from repro.core.optimal import GlobalOptimalAlgorithm, _Searcher, optimal_flow_graph
from repro.errors import FederationError
from repro.eval.experiments import EvaluationConfig
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.wang_crowcroft import RouteLabel
from repro.services.abstract_graph import AbstractGraph
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import (
    ScenarioConfig,
    generate_scenario,
    random_requirement,
)
from tests.oracles import optimal as oracle


class TestOptimal:
    def test_picks_wide_branch(self, small_overlay):
        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        graph = optimal_flow_graph(req, small_overlay)
        assert graph.instance_for("mid") == ServiceInstance("mid", 1)
        assert graph.quality() == PathQuality(50.0, 10.0)

    def test_infeasible_raises(self):
        overlay = OverlayGraph()
        overlay.add_instance(ServiceInstance("a", 0))
        overlay.add_instance(ServiceInstance("b", 1))
        req = ServiceRequirement(edges=[("a", "b")])
        with pytest.raises(FederationError, match="no feasible"):
            optimal_flow_graph(req, overlay)

    def test_missing_instance_raises(self, small_overlay):
        req = ServiceRequirement.from_path(["src", "ghost"])
        with pytest.raises(FederationError, match="ghost"):
            optimal_flow_graph(req, small_overlay)

    def test_bad_pinned_source_rejected(self, small_overlay):
        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        with pytest.raises(FederationError):
            optimal_flow_graph(
                req, small_overlay, source_instance=ServiceInstance("src", 77)
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_on_random_scenarios(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=12,
                n_services=5,
                seed=seed,
                instances_per_service=(2, 3),
            )
        )
        graph = optimal_flow_graph(scenario.requirement, scenario.overlay)
        assert graph.quality() == oracle.brute_force_best(
            scenario.requirement,
            AbstractGraph.build(scenario.requirement, scenario.overlay),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_pruning_explores_fewer_nodes_than_enumeration(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=14,
                n_services=6,
                seed=seed,
                instances_per_service=(3, 3),
            )
        )
        algorithm = GlobalOptimalAlgorithm()
        algorithm.solve(scenario.requirement, scenario.overlay)
        total_assignments = 1
        for sid in scenario.requirement.services():
            total_assignments *= len(scenario.overlay.instances_of(sid))
        # Interior nodes add overhead, but pruning should still beat the
        # sheer leaf count on these densely-replicated scenarios.
        assert algorithm.last_nodes_explored < 4 * total_assignments

    def test_deterministic(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=7)
        )
        a = optimal_flow_graph(scenario.requirement, scenario.overlay)
        b = optimal_flow_graph(scenario.requirement, scenario.overlay)
        assert a.assignment == b.assignment

    def test_algorithm_wrapper_counts_nodes(self, small_overlay):
        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        algorithm = GlobalOptimalAlgorithm()
        algorithm.solve(req, small_overlay)
        assert algorithm.last_nodes_explored > 0
        assert GlobalOptimalAlgorithm.name == "optimal"

    def test_respects_pinned_source(self, small_overlay):
        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        pinned = ServiceInstance("src", 0)
        graph = optimal_flow_graph(req, small_overlay, source_instance=pinned)
        assert graph.instance_for("src") == pinned


# -- the priced search against its references ---------------------------------

CLASSES = (
    RequirementClass.PATH,
    RequirementClass.DISJOINT_PATHS,
    RequirementClass.SPLIT_MERGE,
    RequirementClass.GENERAL,
)

#: Two sinks, one of them fed by both branches.
TWO_SINKS = ServiceRequirement(
    edges=[("s", "a"), ("s", "b"), ("a", "t1"), ("a", "t2"), ("b", "t2")]
)


class CountingAbstractGraph(AbstractGraph):
    """An abstract graph that counts the ``quality`` questions per pair and
    the priced rows per ``(source instance, destination service)``."""

    def __init__(self, requirement, instances, rows):
        super().__init__(requirement, instances, rows)
        self.asked = collections.Counter()
        self.rows = collections.Counter()

    def quality(self, src, dst):
        self.asked[(src, dst)] += 1
        return super().quality(src, dst)

    def price_row(self, src, dsts):
        self.rows[(src, dsts[0].sid)] += 1
        return super().price_row(src, dsts)


def tie_heavy_view(requirement, seed, pool=(2, 4), dead_edge=None):
    """A seeded abstract graph where ties are the rule: bandwidths from
    {1, 2, 3}, integer latencies 0-4, a quarter of the pairs unreachable
    (every pair of ``dead_edge``)."""
    rng = random.Random(seed)
    instances = {
        sid: tuple(ServiceInstance(sid, nid) for nid in range(rng.randint(*pool)))
        for sid in requirement.services()
    }
    rows = collections.defaultdict(dict)
    for a_sid, b_sid in requirement.edges():
        for a, b in itertools.product(instances[a_sid], instances[b_sid]):
            quality = PathQuality(rng.choice((1.0, 2.0, 3.0)), float(rng.randrange(5)))
            if rng.random() >= 0.25 and (a_sid, b_sid) != dead_edge:
                rows[a][b] = RouteLabel(quality, 1, (a, b))
    return CountingAbstractGraph(requirement, instances, lambda a: rows.get(a, {}))


def outcome(searcher):
    """Everything a search decides, floats as hex, dict order included."""
    assignment = searcher.search()
    quality = searcher.incumbent_quality
    return (
        None if assignment is None else list(assignment.items()),
        None if quality is None else (quality.bandwidth.hex(), quality.latency.hex()),
        searcher.nodes_explored,
    )


def assert_same_walk(requirement, view, source_instance=None):
    args = (requirement, view, source_instance)
    got = outcome(_Searcher(*args))
    assert got == outcome(oracle.ReferenceSearcher(*args))
    return got


class TestPricedSearchEqualsReference:
    """The priced search is the parent's search: same assignment in the same
    dict order, same floats, same number of nodes."""

    @pytest.mark.parametrize("clazz", CLASSES, ids=lambda c: c.value)
    def test_generated_shapes(self, clazz):
        found = pruned = 0
        for seed in range(40):
            requirement = random_requirement(random.Random(seed), 4 + seed % 4, clazz)
            assignment, _, nodes = assert_same_walk(
                requirement, tie_heavy_view(requirement, seed)
            )
            found += assignment is not None
            pruned += nodes > 1 + len(requirement)
        assert found >= 10 and pruned >= 10  # neither trivial nor all dead

    def test_two_sinks(self):
        for seed in range(40):
            assert_same_walk(TWO_SINKS, tie_heavy_view(TWO_SINKS, seed))

    def test_pinned_source(self):
        for seed in range(40):
            requirement = random_requirement(random.Random(seed), 5)
            view = tie_heavy_view(requirement, seed, pool=(3, 4))
            for pinned in view.instances_of(requirement.source):
                assignment, _, _ = assert_same_walk(requirement, view, pinned)
                assert assignment is None or assignment[0][1] == pinned

    def test_pinned_source_outside_the_pool_is_refused_by_both(self):
        requirement = random_requirement(random.Random(0), 4)
        view = tie_heavy_view(requirement, 0)
        for stranger in (ServiceInstance("s0", 99), view.instances_of("s1")[0]):
            for searcher in (_Searcher, oracle.ReferenceSearcher):
                with pytest.raises(FederationError, match="pinned source"):
                    searcher(requirement, view, stranger)

    def test_infeasible_edge(self):
        requirement = random_requirement(random.Random(3), 5, RequirementClass.SPLIT_MERGE)
        for edge in requirement.edges():
            view = tie_heavy_view(requirement, 3, dead_edge=edge)
            assert assert_same_walk(requirement, view) == (None, None, 0)

    def test_single_service(self):
        requirement = ServiceRequirement(nodes=["only"])
        view = tie_heavy_view(requirement, 0, pool=(3, 3))
        assignment, quality, nodes = assert_same_walk(requirement, view)
        assert assignment == [("only", ServiceInstance("only", 0))]
        assert quality == (math.inf.hex(), 0.0.hex()) and nodes == 2


class TestBruteForce:
    """``itertools.product`` and the definition of quality, sharing no code
    with the search: the optimum is exact, not only self-consistent."""

    @pytest.mark.parametrize("clazz", CLASSES, ids=lambda c: c.value)
    def test_generated_scenarios(self, clazz):
        for seed in range(6):
            scenario = generate_scenario(
                ScenarioConfig(
                    network_size=14,
                    n_services=5,
                    requirement_class=clazz,
                    instances_per_service=(2, 4),
                    seed=seed,
                )
            )
            abstract = AbstractGraph.build(scenario.requirement, scenario.overlay)
            for pinned in (None, scenario.source_instance):
                graph = optimal_flow_graph(
                    scenario.requirement, scenario.overlay, source_instance=pinned
                )
                assert graph.quality() == oracle.brute_force_best(
                    scenario.requirement, abstract, pinned
                )

    def test_tie_heavy_views(self):
        for seed in range(60):
            requirement = random_requirement(random.Random(seed), 3 + seed % 4)
            view = tie_heavy_view(requirement, seed)
            best = oracle.brute_force_best(requirement, view)
            searcher = _Searcher(requirement, view, None)
            searcher.search()
            assert searcher.incumbent_quality == best


def fig10_cold_cell(network_size, index):
    """``benchmarks/e2e/workloads.py``'s ``Fig10Cold._cell``."""
    reducible = CLASSES[:3]
    return ScenarioConfig(
        network_size=network_size,
        n_services=6,
        instances_per_service=EvaluationConfig().instance_range(network_size),
        requirement_class=reducible[index % 3],
        seed=200_001 + index,
    )


class TestCountsThatRepeatExactly:
    def test_each_pair_is_priced_once(self):
        requirement = random_requirement(random.Random(5), 6, RequirementClass.GENERAL)
        view = tie_heavy_view(requirement, 5, pool=(4, 4))
        graph = optimal_flow_graph(requirement, None, abstract=view)
        rows = {(src, b) for a, b in requirement.edges() for src in view.instances_of(a)}
        assert set(view.rows) == rows and set(view.rows.values()) == {1}
        assert graph.quality() == oracle.brute_force_best(requirement, view)
        pairs = {
            pair
            for a, b in requirement.edges()
            for pair in itertools.product(view.instances_of(a), view.instances_of(b))
        }
        # The same walk asking per candidate, as it did before the table.
        view.asked.clear()
        oracle.ReferenceSearcher(requirement, view, None).search()
        assert (len(pairs), sum(view.asked.values())) == (112, 668)

    @pytest.mark.parametrize("index, nodes", [(1, 56), (2, 67)])
    def test_nodes_explored_on_the_cold_smoke_cells(self, index, nodes):
        scenario = generate_scenario(fig10_cold_cell(50, index))
        algorithm = GlobalOptimalAlgorithm()
        algorithm.solve(
            scenario.requirement, scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert algorithm.last_nodes_explored == nodes
