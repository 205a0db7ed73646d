"""Tests for the distributed sFlow algorithm.

Covers the protocol mechanics (merge-wait, pin consistency, sink
finalisation), the quality relative to the centralised solvers, the effect
of the knowledge horizon, and the equivalence of ego-view and
link-state-protocol knowledge models.
"""

import gc
import math
import random
import weakref

import pytest

from repro.core.optimal import optimal_flow_graph
from repro.core.reductions import ReductionSolver
from repro.core.sflow import (
    SFederate,
    SFlowAlgorithm,
    SFlowConfig,
    _Federation,
    _PlanningView,
)
from repro.errors import FederationError
from repro.network import overlay as overlay_module
from repro.network.failures import CrashEvent, degrade_links
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.obs.clock import Stopwatch
from repro.routing import kernel
from repro.routing.oracle import RouteOracle
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import (
    ScenarioConfig,
    generate_scenario,
    media_pipeline_scenario,
)
from repro.sim.channels import MessageNetwork
from tests.core import test_sflow_crash as crash


class TestConfig:
    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            SFlowConfig(horizon=-1)

    def test_defaults(self):
        config = SFlowConfig()
        assert config.horizon == 2


class TestProtocol:
    def test_produces_complete_valid_graph(self, travel_scenario):
        algorithm = SFlowAlgorithm()
        graph = algorithm.solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert graph.is_complete()
        graph.validate()

    def test_source_instance_respected(self, travel_scenario):
        graph = SFlowAlgorithm().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert graph.instance_for("travel_engine") == travel_scenario.source_instance

    def test_default_source_is_first_instance(self, travel_scenario):
        graph = SFlowAlgorithm().solve(
            travel_scenario.requirement, travel_scenario.overlay
        )
        assert graph.instance_for("travel_engine") == (
            travel_scenario.overlay.instances_of("travel_engine")[0]
        )

    def test_result_metrics_populated(self, travel_scenario):
        algorithm = SFlowAlgorithm()
        algorithm.solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        result = algorithm.last_result
        assert result.messages >= len(travel_scenario.requirement.edges())
        assert result.bytes > result.messages  # sfederate messages have size
        assert result.convergence_time > 0
        assert result.node_activations >= len(travel_scenario.requirement) - 1
        assert result.local_compute_seconds > 0

    def test_convergence_time_is_critical_message_path(self, travel_scenario):
        """Messages travel realised edges, so the sink finishes exactly when
        the slowest chain of sfederate hops arrives."""
        algorithm = SFlowAlgorithm()
        graph = algorithm.solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert algorithm.last_result.convergence_time == pytest.approx(
            graph.end_to_end_latency()
        )

    def test_deterministic(self, travel_scenario):
        def run():
            return SFlowAlgorithm().solve(
                travel_scenario.requirement,
                travel_scenario.overlay,
                source_instance=travel_scenario.source_instance,
            ).assignment

        assert run() == run()

    def test_message_count_equals_requirement_edges_plus_initial(
        self, travel_scenario
    ):
        algorithm = SFlowAlgorithm()
        algorithm.solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        # One sfederate per requirement edge plus the consumer's initial one.
        assert algorithm.last_result.messages == len(
            travel_scenario.requirement.edges()
        ) + 1

    def test_missing_instance_raises(self, travel_scenario):
        requirement = ServiceRequirement(
            edges=[("travel_engine", "ghost")]
        )
        with pytest.raises(FederationError, match="ghost"):
            SFlowAlgorithm().solve(requirement, travel_scenario.overlay)

    def test_path_requirement_works(self):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=12,
                n_services=5,
                requirement_class=RequirementClass.PATH,
                seed=2,
            )
        )
        graph = SFlowAlgorithm().solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert graph.is_complete()

    def test_multi_sink_requirement_works(self):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=12,
                n_services=6,
                requirement_class=RequirementClass.TREE,
                seed=3,
            )
        )
        graph = SFlowAlgorithm().solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert graph.is_complete()

    def test_single_service_requirement(self, travel_scenario):
        requirement = ServiceRequirement(nodes=["travel_engine"])
        graph = SFlowAlgorithm().solve(
            requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert graph.is_complete()

    def test_merge_services_get_single_consistent_instance(self):
        """All branches must deliver to the same merge instance (pins from
        the dominating split node)."""
        for seed in range(6):
            scenario = generate_scenario(
                ScenarioConfig(
                    network_size=14,
                    n_services=7,
                    requirement_class=RequirementClass.SPLIT_MERGE,
                    seed=seed,
                )
            )
            graph = SFlowAlgorithm().solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
            graph.validate()  # conflicting merges would fail construction


class TestQuality:
    @pytest.mark.parametrize("seed", range(8))
    def test_never_better_than_optimal(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(network_size=13, n_services=6, seed=seed)
        )
        optimal = optimal_flow_graph(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        graph = SFlowAlgorithm().solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert not graph.quality().is_better_than(optimal.quality())

    def test_full_knowledge_matches_centralised_reducer(self):
        """With an unbounded horizon every node sees the whole overlay, so
        the distributed run reaches exactly the centralised reducer's
        bandwidth -- on 96 seeded cells that span every requirement class.

        Latency is not compared: a node that re-plans its residual
        optimises it as if it were the whole flow graph, and the
        shortest-widest order does not compose, so some cells reach the
        same bandwidth at a higher latency (an open item of ROADMAP.md).
        """
        classes = set()
        for size in (10, 20, 30, 50):
            for seed in range(24):
                scenario = generate_scenario(
                    ScenarioConfig(network_size=size, seed=seed)
                )
                classes.add(scenario.requirement.classify())
                args = (scenario.requirement, scenario.overlay)
                source = scenario.source_instance
                graph = SFlowAlgorithm(SFlowConfig(horizon=100)).solve(
                    *args, source_instance=source
                )
                central = ReductionSolver().solve(*args, source_instance=source)
                assert (
                    graph.quality().bandwidth == central.quality().bandwidth
                ), (size, seed)
        assert classes == {
            RequirementClass.PATH,
            RequirementClass.DISJOINT_PATHS,
            RequirementClass.SPLIT_MERGE,
            RequirementClass.GENERAL,
        }

    def test_correctness_reasonable_at_default_horizon(self):
        total = 0.0
        trials = 10
        for seed in range(trials):
            scenario = generate_scenario(
                ScenarioConfig(network_size=15, n_services=6, seed=seed)
            )
            optimal = optimal_flow_graph(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
            graph = SFlowAlgorithm().solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
            total += graph.correctness_coefficient(optimal)
        assert total / trials >= 0.7  # paper reports >= 0.9 on its workloads

    def test_wider_horizon_never_reduces_mean_correctness(self):
        def mean_correctness(horizon):
            total = 0.0
            trials = 8
            for seed in range(trials):
                scenario = generate_scenario(
                    ScenarioConfig(network_size=14, n_services=6, seed=seed)
                )
                optimal = optimal_flow_graph(
                    scenario.requirement,
                    scenario.overlay,
                    source_instance=scenario.source_instance,
                )
                graph = SFlowAlgorithm(SFlowConfig(horizon=horizon)).solve(
                    scenario.requirement,
                    scenario.overlay,
                    source_instance=scenario.source_instance,
                )
                total += graph.correctness_coefficient(optimal)
            return total / trials

        narrow = mean_correctness(1)
        wide = mean_correctness(4)
        assert wide >= narrow - 0.05  # allow small heuristic noise


class TestKnowledgeModels:
    def test_link_state_views_give_same_result(self, media_scenario):
        ego = SFlowAlgorithm(SFlowConfig(horizon=2, use_link_state=False))
        lsa = SFlowAlgorithm(SFlowConfig(horizon=2, use_link_state=True))
        graph_ego = ego.solve(
            media_scenario.requirement,
            media_scenario.overlay,
            source_instance=media_scenario.source_instance,
        )
        graph_lsa = lsa.solve(
            media_scenario.requirement,
            media_scenario.overlay,
            source_instance=media_scenario.source_instance,
        )
        assert graph_ego.assignment == graph_lsa.assignment
        assert lsa.last_result.link_state_messages > 0
        assert ego.last_result.link_state_messages == 0

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_repeat_federation_plans_warm(self, horizon, monkeypatch):
        """Ego views are shared per overlay (``horizon=2`` sees all of this
        one, ``horizon=1`` proper sub-views), so a repeat session finds
        every view, snapshot and routing tree already there."""
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=40, n_services=6, instances_per_service=(4, 6), seed=3
            )
        )
        overlay, source = scenario.overlay, scenario.source_instance
        whole = [
            overlay.ego_view(inst, horizon) is overlay
            for inst in overlay.instances()
        ]
        assert all(whole) if horizon == 2 else not any(whole)
        snapshots = []
        real_snapshot = kernel.snapshot
        monkeypatch.setattr(
            kernel, "snapshot",
            lambda *args: snapshots.append(args) or real_snapshot(*args),
        )
        algorithm = SFlowAlgorithm(SFlowConfig(horizon=horizon))
        oracle = RouteOracle.reset_default()
        first = algorithm.federate(
            scenario.requirement, overlay, source_instance=source
        )
        assert oracle.stats().misses + oracle.stats().warmed > 0
        cold, built = oracle.stats(), len(snapshots)
        again = algorithm.federate(
            scenario.requirement, overlay, source_instance=source
        )
        assert oracle.stats().misses == cold.misses
        assert oracle.stats().warmed == cold.warmed
        assert oracle.stats().hits > cold.hits
        assert len(snapshots) == built
        assert again.flow_graph.assignment == first.flow_graph.assignment
        assert again.convergence_time == first.convergence_time

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_a_planning_step_asks_the_oracle_once_per_source(self, horizon):
        """The first ``plan`` reads all of a source's destinations off one
        memoised row, however many assignments it searches; a repeat on the
        same view reads the rows it left and asks the oracle nothing."""
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=40,
                n_services=6,
                requirement_class=RequirementClass.GENERAL,
                instances_per_service=(4, 6),
                seed=3,
            )
        )
        requirement, source = scenario.requirement, scenario.source_instance
        assert requirement.classify() is RequirementClass.GENERAL
        oracle = RouteOracle.reset_default()
        federation = _Federation(
            requirement, scenario.overlay, source,
            SFlowConfig(horizon=horizon), None, Stopwatch(),
        )
        pins = {requirement.source: source}

        def lookups() -> int:
            stats = oracle.stats()
            return stats.hits + stats.misses

        before = lookups()
        first = federation.plan(source, requirement, pins)
        tails = [
            inst
            for sid in requirement.services()
            if requirement.successors(sid)
            for inst in scenario.overlay.instances_of(sid)
        ]
        assert 0 < lookups() - before <= len(tails)
        warm = lookups()
        assert federation.plan(source, requirement, pins) == first
        assert lookups() == warm

    def test_two_requirements_on_one_overlay_share_rows(self, monkeypatch):
        """Rows are keyed on view and source, not on the request: planning
        the whole requirement after a residual of it looks up only the
        sources the residual never priced."""
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=40, n_services=6, instances_per_service=(4, 6), seed=3
            )
        )
        overlay, source = scenario.overlay, scenario.source_instance
        whole = scenario.requirement
        middle = whole.topological_order()[1]
        residual = whole.downstream_closure(middle)
        assert len(residual) < len(whole)
        first = _Federation(
            residual, overlay, overlay.instances_of(middle)[0], SFlowConfig(),
            None, Stopwatch(),
        )
        second = _Federation(
            whole, overlay, source, SFlowConfig(), None, Stopwatch()
        )
        asked = []
        real_tree = RouteOracle.tree
        monkeypatch.setattr(
            RouteOracle, "tree",
            lambda self, graph, src, **kw: (
                asked.append(src) or real_tree(self, graph, src, **kw)
            ),
        )
        me = first.source_instance
        # Both steps plan on one view: the whole overlay.
        assert overlay.ego_view(me, 2) is overlay is overlay.ego_view(source, 2)
        assert first.plan(me, residual, {middle: me}) is not None
        by_residual, asked[:] = set(asked), []
        assert second.plan(source, whole, {whole.source: source}) is not None
        assert by_residual and asked
        assert by_residual.isdisjoint(asked)
        assert len(asked) == len(set(asked))

    def test_memoised_rows_price_as_the_per_step_conversion(self):
        """As ``float.hex``: a planning view's row equals converting its
        view's routing tree label by label, as one planning step once did --
        in-view pairs, in-view pairs no route joins, and pairs beyond the
        horizon priced from the gossip hints."""
        scenario = generate_scenario(
            ScenarioConfig(network_size=40, n_services=6, seed=12)
        )
        overlay, requirement = scenario.overlay, scenario.requirement
        view = overlay.ego_view(scenario.source_instance, 1)
        directory = {sid: overlay.instances_of(sid) for sid in requirement.services()}
        hints = overlay.gossip_hints()
        prior = view.mean_link_quality()
        planning = _PlanningView(requirement, view, directory, {}, overlay.gossip_hints)
        dsts = list(overlay.instances())
        kinds = {"route": 0, "no route": 0, "hinted": 0}
        for src in view.instances():
            tree = RouteOracle.default().tree(view, src)
            hint = hints.get(src, prior)
            for dst, hop in zip(dsts, planning.price_row(src, dsts)):
                quality = tree[dst].quality if dst in tree else None
                if (
                    quality is not None
                    and quality.bandwidth > 0 and quality.latency < math.inf
                ):
                    kind, pair = "route", (quality.bandwidth, quality.latency)
                    assert hop is view.hop_row(src)[dst]
                elif dst in view:
                    kind, pair = "no route", None
                else:
                    other = hints.get(dst, prior)
                    kind = "hinted"
                    pair = (
                        min(hint.bandwidth, other.bandwidth),
                        (hint.latency + other.latency) / 2.0,
                    )
                kinds[kind] += 1
                expected = None if pair is None else tuple(map(float.hex, pair))
                assert (None if hop is None else tuple(map(float.hex, hop))) == expected
        assert all(kinds.values()), kinds

    def test_blind_edges_are_priced_from_the_overlays_summaries(self):
        """Beyond the horizon a planner has the gossip hints (published
        per overlay) and, for instances without one, its view's prior."""
        scenario = generate_scenario(
            ScenarioConfig(network_size=40, n_services=6, seed=12)
        )
        overlay, requirement = scenario.overlay, scenario.requirement
        root = scenario.source_instance
        view = overlay.ego_view(root, 1)
        outside = next(i for i in overlay.instances() if i not in view)
        directory = {sid: overlay.instances_of(sid) for sid in requirement.services()}
        hints = overlay.gossip_hints()
        planning = _PlanningView(requirement, view, directory, {}, overlay.gossip_hints)
        hint, prior = hints[outside], view.mean_link_quality()
        assert planning.price_row(root, (outside,)) == [(
            min(hints[root].bandwidth, hint.bandwidth),
            (hints[root].latency + hint.latency) / 2.0,
        )]
        without = {inst: other for inst, other in hints.items() if inst != outside}
        unhinted = _PlanningView(requirement, view, directory, {}, lambda: without)
        assert unhinted.price_row(root, (outside,)) == [(
            min(hints[root].bandwidth, prior.bandwidth),
            (hints[root].latency + prior.latency) / 2.0,
        )]

    @pytest.mark.parametrize("horizon", [100, 1], ids=["full-view", "two-hop"])
    def test_summaries_are_computed_only_for_blind_edges(self, horizon, monkeypatch):
        """A session whose every view is the whole overlay prices no edge
        from hints and, fault-free, sends no ack: it computes no gossip hint
        and no link mean at all.  A narrow view reads some."""
        scenario = generate_scenario(
            ScenarioConfig(network_size=40, n_services=6, seed=12)
        )
        means = []
        summary = overlay_module._mean_quality
        monkeypatch.setattr(
            overlay_module, "_mean_quality", lambda links: means.append(1) or summary(links)
        )
        result = SFlowAlgorithm(SFlowConfig(horizon=horizon)).federate(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert result.flow_graph is not None and result.acks == 0
        assert (len(means) == 0) is (horizon == 100), len(means)

    def test_horizon_zero_still_terminates(self, media_scenario):
        graph = SFlowAlgorithm(SFlowConfig(horizon=0)).solve(
            media_scenario.requirement,
            media_scenario.overlay,
            source_instance=media_scenario.source_instance,
        )
        assert len(graph.assignment) == len(media_scenario.requirement)

    def test_per_node_compute_recorded(self, media_scenario):
        algorithm = SFlowAlgorithm()
        algorithm.solve(
            media_scenario.requirement,
            media_scenario.overlay,
            source_instance=media_scenario.source_instance,
        )
        result = algorithm.last_result
        assert result.per_node_compute
        assert all(t >= 0 for t in result.per_node_compute.values())
        assert sum(result.per_node_compute.values()) == pytest.approx(
            result.local_compute_seconds
        )


class TestPlanningWhereTheAnswerIsRead:
    """A node plans only when it has a service to decide: an unpinned
    dominator-tree child.  Every other activation forwards the pins it was
    sent, and the session comes out as before (the golden sessions)."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        real = ReductionSolver.solve_assignment

        def counting(self, requirement, view, **kwargs):
            calls.append(kwargs.get("source_instance"))
            return real(self, requirement, view, **kwargs)

        monkeypatch.setattr(ReductionSolver, "solve_assignment", counting)
        return calls

    @pytest.mark.parametrize(
        "clazz, n_services, seed, planners",
        [
            (RequirementClass.PATH, 5, 0, ["s0", "s1", "s2", "s3"]),
            # s0 -> {s1, s2} -> s3 -> {s4, s5} -> s6: the splits decide.
            (RequirementClass.SPLIT_MERGE, 7, 4, ["s0", "s3"]),
        ],
        ids=["chain", "split-merge"],
    )
    def test_only_nodes_with_a_child_to_pin_plan(
        self, clazz, n_services, seed, planners, monkeypatch
    ):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=14, n_services=n_services, requirement_class=clazz, seed=seed
            )
        )
        requirement = scenario.requirement
        assert requirement.classify() is clazz
        calls = self.counted(monkeypatch)
        algorithm = SFlowAlgorithm()
        graph = algorithm.solve(
            requirement, scenario.overlay, source_instance=scenario.source_instance
        )
        result = algorithm.last_result
        idom = requirement.immediate_dominators()
        # Undisturbed, a service is pinned by its dominator alone, so every
        # node with a dominator-tree child has that child unpinned.
        deciders = {
            graph.instance_for(idom[sid]) for sid in requirement.services() if idom[sid] != sid
        }
        assert {inst.sid for inst in deciders} == set(planners)
        assert result.node_activations == len(requirement)
        assert sorted(calls) == sorted(deciders)
        assert result.per_node_compute.keys() == deciders

    def test_a_node_plans_for_its_one_unpinned_child(self, monkeypatch):
        """``s0`` decides ``s1``, ``s2`` and ``s3``; sent ``s1`` already
        pinned, it still plans for the other two and keeps the pin."""
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=14, n_services=7,
                requirement_class=RequirementClass.SPLIT_MERGE, seed=4,
            )
        )
        requirement, source = scenario.requirement, scenario.source_instance
        federation = _Federation(
            requirement, scenario.overlay, source, SFlowConfig(), None, Stopwatch()
        )
        pinned = federation.directory["s1"][-1]
        sent = []
        monkeypatch.setattr(
            federation, "dispatch", lambda src, dst, message, latency: sent.append(message)
        )
        calls = self.counted(monkeypatch)
        node = federation.endpoint(source)
        node.inbox.append(
            SFederate(
                services=frozenset(requirement.services()),
                pins=(("s0", source), ("s1", pinned)),
                edges=(),
            )
        )
        node._activate()
        assert calls == [source]
        assert federation.result.per_node_compute.keys() == {source}
        pins = [dict(message.pins) for message in sent]
        assert [sorted(p) for p in pins] == [["s0", "s1", "s2", "s3"]] * 2
        assert all(p["s1"] == pinned for p in pins)


class TestWhatAHopCarries:
    """An ``sfederate`` carries its residual's services -- the receiver's
    service and everything downstream of it -- not a built requirement; a
    residual requirement is built only for a node that plans, once."""

    @pytest.mark.parametrize(
        "clazz, n_services, seed",
        [
            (RequirementClass.PATH, 5, 0),
            (RequirementClass.SPLIT_MERGE, 7, 4),
            (RequirementClass.TREE, 6, 3),
        ],
        ids=["chain", "split-merge", "multi-sink"],
    )
    def test_every_hop_carries_the_receivers_downstream(
        self, clazz, n_services, seed, monkeypatch
    ):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=14, n_services=n_services, requirement_class=clazz, seed=seed
            )
        )
        requirement = scenario.requirement
        assert requirement.classify() is clazz
        sent = []
        real_send = MessageNetwork.send

        def recording(self, src, dst, payload, **kwargs):
            sent.append((dst, payload, kwargs["size"]))
            return real_send(self, src, dst, payload, **kwargs)

        monkeypatch.setattr(MessageNetwork, "send", recording)
        built = []
        real_residual = _Federation.residual
        monkeypatch.setattr(
            _Federation, "residual",
            lambda self, sid: built.append(sid) or real_residual(self, sid),
        )
        planned = TestPlanningWhereTheAnswerIsRead.counted(monkeypatch)
        result = SFlowAlgorithm().federate(
            requirement, scenario.overlay, source_instance=scenario.source_instance
        )
        assert result.succeeded
        # The consumer's request plus one message per requirement edge.
        assert len(sent) == len(requirement.edges()) + 1
        for dst, message, size in sent:
            assert message.services == requirement.downstream(dst.sid)
            # The wire size is the one a whole residual requirement gave.
            residual = requirement.downstream_closure(dst.sid)
            assert size == message.size == (
                1
                + len(residual)
                + len(message.pins)
                + 3 * len(message.edges)
                + len(message.repins)
            )
        assert planned and sorted(built) == sorted(inst.sid for inst in planned)


class TestSessionRelease:
    """A finished session lets go of the overlay it ran on.  Its nodes, its
    recovery layer and the suspended DES processes reference each other in
    a cycle; were the overlay part of it, the overlay, its ego views and
    their routing trees would live until the next full collection."""

    @pytest.mark.parametrize("disturbed", [False, True], ids=["calm", "crash"])
    def test_the_overlay_dies_with_the_callers_last_reference(self, disturbed):
        scenario = generate_scenario(crash.SCENARIO)
        requirement, source = scenario.requirement, scenario.source_instance
        algorithm = SFlowAlgorithm(crash.CONFIG)
        chaos = None
        if disturbed:
            victim = crash.pick_victim(scenario, crash.federate(scenario))
            chaos = crash.crash_plan(CrashEvent(victim, at=0.5))
        expected = algorithm.federate(
            requirement, scenario.overlay, source_instance=source, chaos=chaos
        )
        link = scenario.overlay.out_links(source)[0]
        gc.collect()
        gc.disable()
        try:
            # Same link state (factor 1), but an overlay only this test holds.
            derived = degrade_links(
                scenario.overlay, [(link.src, link.dst)], bandwidth_factor=1.0
            )
            alive = weakref.ref(derived)
            result = algorithm.federate(
                requirement, derived, source_instance=source, chaos=chaos
            )
            del derived
            assert alive() is None
        finally:
            gc.enable()
        # The ledger keeps everything it had.
        assert result is algorithm.last_result
        assert result.outcome is expected.outcome
        assert result.flow_graph.assignment == expected.flow_graph.assignment
        assert list(result.flow_graph.edges()) == list(expected.flow_graph.edges())
        result.flow_graph.validate()
        assert (result.messages, result.bytes, result.convergence_time) == (
            expected.messages, expected.bytes, expected.convergence_time,
        )
        assert result.per_node_compute.keys() == expected.per_node_compute.keys()
        assert result.recovery_log == expected.recovery_log
        assert (result.crashes, result.failovers) == (
            (1, expected.failovers) if disturbed else (0, 0)
        )
