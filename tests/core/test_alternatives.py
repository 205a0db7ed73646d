"""Tests for the random, fixed, and service-path control algorithms."""

import random

import pytest

from repro.core.alternatives import (
    FixedAlgorithm,
    RandomAlgorithm,
    ServicePathAlgorithm,
)
from repro.core.baseline import solve_path_requirement
from repro.core.optimal import optimal_flow_graph
from repro.errors import FederationError
from repro.network.failures import degrade_links, fail_links
from repro.network.overlay import ServiceInstance
from repro.routing.oracle import SHORTEST_WIDEST, RouteOracle
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import ScenarioConfig, generate_scenario


class TestRandomAlgorithm:
    def test_produces_complete_assignment(self, travel_scenario):
        graph = RandomAlgorithm().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
            rng=random.Random(0),
        )
        assert len(graph.assignment) == len(travel_scenario.requirement)

    def test_deterministic_given_rng(self, travel_scenario):
        solve = lambda: RandomAlgorithm().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
            rng=random.Random(42),
        )
        assert solve().assignment == solve().assignment

    def test_varies_across_seeds(self, travel_scenario):
        assignments = {
            tuple(
                sorted(
                    RandomAlgorithm()
                    .solve(
                        travel_scenario.requirement,
                        travel_scenario.overlay,
                        source_instance=travel_scenario.source_instance,
                        rng=random.Random(seed),
                    )
                    .assignment.items()
                )
            )
            for seed in range(10)
        }
        assert len(assignments) > 1

    def test_respects_pinned_source(self, travel_scenario):
        graph = RandomAlgorithm().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
            rng=random.Random(3),
        )
        assert graph.instance_for("travel_engine") == travel_scenario.source_instance

    def test_never_better_than_optimal(self):
        for seed in range(8):
            scenario = generate_scenario(
                ScenarioConfig(network_size=12, n_services=5, seed=seed)
            )
            optimal = optimal_flow_graph(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
            graph = RandomAlgorithm().solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
                rng=random.Random(seed),
            )
            assert not graph.quality().is_better_than(optimal.quality())


class TestFixedAlgorithm:
    def test_complete_assignment(self, travel_scenario):
        graph = FixedAlgorithm().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert len(graph.assignment) == len(travel_scenario.requirement)

    def test_deterministic(self, travel_scenario):
        solve = lambda: FixedAlgorithm().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert solve().assignment == solve().assignment

    def test_picks_widest_direct_link(self, small_overlay):
        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        graph = FixedAlgorithm().solve(req, small_overlay)
        # mid/1 has the 50-bandwidth direct link.
        assert graph.instance_for("mid") == ServiceInstance("mid", 1)

    def test_ignores_latency(self):
        """Fixed picks a marginally wider but much slower instance."""
        from repro.network.metrics import PathQuality
        from repro.network.overlay import OverlayGraph

        overlay = OverlayGraph()
        src = ServiceInstance("src", 0)
        slow = ServiceInstance("mid", 1)
        fast = ServiceInstance("mid", 2)
        dst = ServiceInstance("dst", 3)
        overlay.add_link(src, slow, PathQuality(10.1, 100.0))
        overlay.add_link(src, fast, PathQuality(10.0, 1.0))
        overlay.add_link(slow, dst, PathQuality(10.1, 100.0))
        overlay.add_link(fast, dst, PathQuality(10.0, 1.0))
        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        graph = FixedAlgorithm().solve(req, overlay)
        assert graph.instance_for("mid") == slow  # 10.1 > 10.0, latency ignored

    def test_never_better_than_optimal(self):
        for seed in range(8):
            scenario = generate_scenario(
                ScenarioConfig(network_size=12, n_services=5, seed=seed)
            )
            optimal = optimal_flow_graph(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
            graph = FixedAlgorithm().solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
            assert not graph.quality().is_better_than(optimal.quality())


class TestServicePathAlgorithm:
    def test_path_requirement_solved_optimally(self):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=12,
                n_services=5,
                requirement_class=RequirementClass.PATH,
                seed=4,
            )
        )
        algorithm = ServicePathAlgorithm()
        graph = algorithm.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        baseline_graph, _ = solve_path_requirement(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert graph.assignment == baseline_graph.assignment
        assert algorithm.last_native

    def test_dag_requirement_serialized(self, travel_scenario):
        algorithm = ServicePathAlgorithm()
        graph = algorithm.solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert not algorithm.last_native
        assert algorithm.last_serialized is not None
        assert len(graph.assignment) == len(travel_scenario.requirement)

    def test_serialized_chain_pays_per_hop_latency(self, travel_scenario):
        """The serialized chain visits every service one by one, so its
        latency is at least (n_services - 1) times the fastest overlay
        link's latency."""
        algorithm = ServicePathAlgorithm()
        algorithm.solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        overlay = travel_scenario.overlay
        fastest = min(
            metrics.latency
            for inst in overlay.instances()
            for _, metrics in overlay.successors(inst)
        )
        n_hops = len(travel_scenario.requirement) - 1
        assert algorithm.last_serialized.latency >= n_hops * fastest
        assert algorithm.last_serialized.bandwidth > 0

    def test_serialized_chain_deterministic(self, travel_scenario):
        def run():
            algorithm = ServicePathAlgorithm()
            algorithm.solve(
                travel_scenario.requirement,
                travel_scenario.overlay,
                source_instance=travel_scenario.source_instance,
            )
            return algorithm.last_serialized

        assert run() == run()

    def test_serialized_chain_prefetches_its_trees_in_one_batch(
        self, travel_scenario
    ):
        """The DP reads a row from the pinned source and from every pool
        but the last, each at the next pool only: one warm per hop asks for
        exactly that, so no lookup misses, every source's row is fetched
        once, and no label is built that the DP does not read."""
        requirement, overlay = travel_scenario.requirement, travel_scenario.overlay
        oracle = RouteOracle.reset_default()
        ServicePathAlgorithm()._serialize(
            requirement, overlay, travel_scenario.source_instance
        )
        chain = requirement.topological_order()
        sources = {travel_scenario.source_instance} | {
            inst for sid in chain[1:-1] for inst in overlay.instances_of(sid)
        }
        assert oracle.cached_sources(overlay, view="undirected") == sources
        stats = oracle.stats()
        assert (stats.misses, stats.warmed) == (0, len(sources))
        assert stats.hits == len(sources)
        rows = oracle._graphs[overlay].trees
        for source in sources:
            row = rows[("undirected", SHORTEST_WIDEST, source)]
            next_pool = overlay.instances_of(chain[chain.index(source.sid) + 1])
            assert row.covers == frozenset(next_pool)
            assert set(row.labels) <= row.covers | {source}

    @pytest.mark.parametrize("mutate", [degrade_links, fail_links])
    def test_serialized_chain_after_a_mutation_matches_a_cold_solve(self, mutate):
        """The chain is planned over the undirected relaxation, which walks
        links backwards: a row cached for the parent overlay that crosses a
        mutated link against its direction must not be carried, nor its
        stale labels kept by the repair.  (At the parent of the fix this
        overlay's second solve reported the first one's chain.)"""
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=30, n_services=5, instances_per_service=(5, 6),
                requirement_class=RequirementClass.SPLIT_MERGE, seed=0,
            )
        )
        overlay = scenario.overlay
        links = [
            (link.src, link.dst)
            for inst in overlay.instances()
            for link in overlay.out_links(inst)
        ]

        def serialize(graph):
            return ServicePathAlgorithm()._serialize(
                scenario.requirement, graph, scenario.source_instance
            )

        oracle = RouteOracle.reset_default()
        serialize(overlay)
        mutated = mutate(overlay, links[::10])
        warm = serialize(mutated)
        stats = oracle.stats()
        RouteOracle.reset_default()
        assert warm == serialize(mutated)
        assert min(stats.carried, stats.dropped) > 0  # both arms were walked

    def test_bad_pinned_source_rejected(self, travel_scenario):
        with pytest.raises(FederationError):
            ServicePathAlgorithm().solve(
                travel_scenario.requirement,
                travel_scenario.overlay,
                source_instance=ServiceInstance("travel_engine", 999),
            )
