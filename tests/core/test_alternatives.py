"""Tests for the random, fixed, and service-path control algorithms."""

import math
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
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing import kernel
from repro.routing.oracle import RouteOracle
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.routing import undirected_relaxation
from tests.oracles.service_path import TreeServicePath

#: The requirement classes the service-path control serializes (a drawn
#: requirement may still degenerate to a simpler one), and the underlay
#: sizes of the chain cases, one per seed.
SERIALIZED_CLASSES = (
    RequirementClass.TREE,
    RequirementClass.DISJOINT_PATHS,
    RequirementClass.SPLIT_MERGE,
    RequirementClass.GENERAL,
)
CHAIN_SIZES = (10, 14, 18, 22, 26, 30, 35, 40, 45, 50, 55, 60)


def chain_case(clazz, seed):
    """``(requirement, overlay, source instance)`` of one chain case.  An
    odd seed keeps about half of the overlay's links and redraws them from
    three bandwidths and integer latencies, so the DP meets unreachable
    pairs and exact ties."""
    scenario = generate_scenario(
        ScenarioConfig(
            network_size=CHAIN_SIZES[seed], n_services=5 + seed % 3,
            instances_per_service=(2, 5), requirement_class=clazz, seed=seed,
        )
    )
    overlay = scenario.overlay
    if seed % 2:
        rng = random.Random(seed)
        redrawn = OverlayGraph()
        for inst in overlay.instances():
            redrawn.add_instance(inst)
            for link in overlay.out_links(inst):
                if rng.random() < 0.55:
                    redrawn.add_link(
                        link.src, link.dst,
                        PathQuality(rng.choice((2.5, 5.0, 10.0)), float(rng.randrange(4))),
                    )
        overlay = redrawn
    return scenario.requirement, overlay, scenario.source_instance


def assert_same_chain(requirement, overlay, source):
    priced, quality = ServicePathAlgorithm()._serialize(requirement, overlay, source)
    routed, expected = TreeServicePath()._serialize(requirement, overlay, source)
    assert list(priced.items()) == list(routed.items())
    assert (quality.bandwidth, quality.latency) == (expected.bandwidth, expected.latency)


def chain_census(requirement, overlay, source):
    """How many unreachable pairs the chain DP extends, how many of its
    layer entries an exact tie decides, and whether its final ``max`` is
    one -- counted on the priced floats."""
    chain = requirement.topological_order()
    undirected = undirected_relaxation(overlay)
    layer = [(source, math.inf, 0.0)]
    unreachable = ties = 0
    for sid in chain[1:]:
        pool = overlay.instances_of(sid)
        rows = RouteOracle().prices(
            overlay, [entry[0] for entry in layer], targets=frozenset(pool),
            view="undirected", neighbors=undirected,
        )
        nxt = []
        for inst in pool:
            candidates = []
            for (_, bandwidth, latency), row in zip(layer, rows):
                price = row.get(inst, (0.0, math.inf))
                unreachable += inst not in row
                candidates.append((min(bandwidth, price[0]), latency + price[1]))
            best = max(candidates, key=lambda c: (c[0], -c[1]))
            ties += candidates.count(best) > 1
            nxt.append((inst, *best))
        layer = nxt
    finals = [(bandwidth, -latency) for _, bandwidth, latency in layer]
    return unreachable, ties, finals.count(max(finals)) - 1


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
        self, travel_scenario, monkeypatch
    ):
        """The DP reads only the prices of instance pairs between
        consecutive layers, so it asks for those alone: one pathless kernel
        pass per hop, this layer's instances priced at the next pool only,
        on one undirected snapshot -- no tree is looked up, warmed or
        cached.  The undirected snapshot is derived from the overlay's
        ``"successors"`` one, so that is the one snapshot walked, and the
        overlay holds both."""
        requirement, overlay = travel_scenario.requirement, travel_scenario.overlay
        passes, snapshots = [], []
        real_prices, real_snapshot = kernel.batched_prices, kernel.snapshot
        monkeypatch.setattr(
            kernel, "batched_prices",
            lambda csr, sources, targets, **kwargs: passes.append((list(sources), targets))
            or real_prices(csr, sources, targets, **kwargs),
        )
        monkeypatch.setattr(
            kernel, "snapshot",
            lambda *args: snapshots.append(args) or real_snapshot(*args),
        )
        oracle = RouteOracle.reset_default()
        ServicePathAlgorithm()._serialize(
            requirement, overlay, travel_scenario.source_instance
        )
        chain = requirement.topological_order()
        layers = [[travel_scenario.source_instance]] + [
            list(overlay.instances_of(sid)) for sid in chain[1:]
        ]
        assert passes == [
            (sources, frozenset(pool)) for sources, pool in zip(layers, layers[1:])
        ]
        assert [args[0] for args in snapshots] == [overlay]
        assert list(oracle._graphs[overlay].snapshots) == ["successors", "undirected"]
        assert oracle.cached_sources(overlay, view="undirected") == set()
        stats = oracle.stats()
        assert (stats.lookups, stats.warmed, stats.kernel_trees) == (0, 0, 0)

    @pytest.mark.parametrize("mutate", [degrade_links, fail_links])
    def test_serialized_chain_after_a_mutation_matches_a_cold_solve(self, mutate):
        """The chain is planned over the undirected relaxation, which walks
        links backwards: after a mutation of some links, a solve on the
        mutated overlay -- the parent's state still in the oracle -- equals
        one from a fresh oracle.  (The oracle's carry-or-drop of a tree
        crossing a mutated link backwards is
        ``tests/routing/test_oracle.py::TestMutations::
        test_link_crossed_backwards_drops_the_tree``: the control caches
        price rows alone, and a derivation carries none.)"""
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

        RouteOracle.reset_default()
        serialize(overlay)
        mutated = mutate(overlay, links[::10])
        warm = serialize(mutated)
        RouteOracle.reset_default()
        assert warm == serialize(mutated)

    @pytest.mark.parametrize("clazz", SERIALIZED_CLASSES, ids=lambda c: c.value)
    @pytest.mark.parametrize("seed", range(len(CHAIN_SIZES)))
    def test_priced_chain_picks_what_the_tree_chain_picked(self, clazz, seed):
        """The DP on prices equals the DP on routing trees
        (``tests/oracles/service_path.py``): the same assignment, keys in
        the same order, and the same serialized quality, float for float."""
        requirement, overlay, source = chain_case(clazz, seed)
        assert_same_chain(requirement, overlay, source)

    def test_priced_chain_on_the_travel_scenario(self, travel_scenario):
        assert_same_chain(
            travel_scenario.requirement,
            travel_scenario.overlay,
            travel_scenario.source_instance,
        )

    def test_the_chain_cases_reach_every_arm(self):
        """Across the cases: an unreachable pair extended by
        ``UNREACHABLE``, an exact tie inside a layer (the first candidate
        keeps it) and an exact tie in the final ``max``."""
        totals = [0, 0, 0]
        for clazz in SERIALIZED_CLASSES:
            for seed in range(len(CHAIN_SIZES)):
                for i, count in enumerate(chain_census(*chain_case(clazz, seed))):
                    totals[i] += count > 0
        assert totals == [7, 38, 6]

    def test_bad_pinned_source_rejected(self, travel_scenario):
        with pytest.raises(FederationError):
            ServicePathAlgorithm().solve(
                travel_scenario.requirement,
                travel_scenario.overlay,
                source_instance=ServiceInstance("travel_engine", 999),
            )
