"""Tests for the service requirement DAG (validation, classes, dominators)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RequirementError
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import random_requirement, travel_agency_requirement


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(RequirementError):
            ServiceRequirement()

    def test_self_loop_rejected(self):
        with pytest.raises(RequirementError):
            ServiceRequirement(edges=[("a", "a")])

    def test_cycle_rejected(self):
        with pytest.raises(RequirementError):
            ServiceRequirement(edges=[("a", "b"), ("b", "c"), ("c", "a")])

    def test_two_sources_rejected(self):
        with pytest.raises(RequirementError):
            ServiceRequirement(edges=[("a", "c"), ("b", "c")])

    def test_isolated_node_makes_second_source(self):
        with pytest.raises(RequirementError):
            ServiceRequirement(edges=[("a", "b")], nodes=["island"])

    def test_duplicate_edges_deduplicated(self):
        req = ServiceRequirement(edges=[("a", "b"), ("a", "b")])
        assert req.edges() == (("a", "b"),)

    def test_single_service_allowed(self):
        req = ServiceRequirement(nodes=["solo"])
        assert req.source == "solo"
        assert req.sinks == ("solo",)


class TestTopology:
    @pytest.fixture
    def diamond(self, diamond_requirement):
        return diamond_requirement

    def test_source_and_sinks(self, diamond):
        assert diamond.source == "s"
        assert diamond.sinks == ("t",)
        assert diamond.sink == "t"

    def test_sink_property_raises_on_multiple(self):
        req = ServiceRequirement(edges=[("s", "a"), ("s", "b")])
        assert set(req.sinks) == {"a", "b"}
        with pytest.raises(RequirementError):
            req.sink

    def test_successors_predecessors(self, diamond):
        assert diamond.successors("s") == ("a", "b")
        assert diamond.predecessors("t") == ("a", "b")
        assert diamond.in_degree("t") == 2
        assert diamond.out_degree("s") == 2

    def test_unknown_service_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.successors("ghost")

    def test_topological_order_starts_with_source(self, diamond):
        order = diamond.topological_order()
        assert order[0] == "s"
        assert order[-1] == "t"
        position = {sid: i for i, sid in enumerate(order)}
        for a, b in diamond.edges():
            assert position[a] < position[b]

    def test_descendants_ancestors(self, diamond):
        assert diamond.descendants("s") == {"a", "b", "t"}
        assert diamond.ancestors("t") == {"s", "a", "b"}
        assert diamond.descendants("t") == frozenset()
        assert diamond.downstream("a") == {"a", "t"}
        assert diamond.downstream("s") == frozenset(diamond.services())

    def test_contains_and_len(self, diamond):
        assert "a" in diamond
        assert "ghost" not in diamond
        assert len(diamond) == 4

    def test_equality_and_hash(self):
        a = ServiceRequirement(edges=[("x", "y")])
        b = ServiceRequirement(edges=[("x", "y")])
        assert a == b
        assert hash(a) == hash(b)


class TestDerivedRequirements:
    def test_downstream_closure(self, diamond_requirement):
        sub = diamond_requirement.downstream_closure("a")
        assert set(sub.services()) == {"a", "t"}
        assert sub.source == "a"

    def test_downstream_closure_of_source_is_whole(self, diamond_requirement):
        sub = diamond_requirement.downstream_closure("s")
        assert sub == diamond_requirement

    def test_subrequirement_unknown_service(self, diamond_requirement):
        with pytest.raises(RequirementError):
            diamond_requirement.subrequirement(["s", "ghost"])

    def test_subrequirement_must_stay_valid(self, diamond_requirement):
        # {a, b} has two sources once s is removed.
        with pytest.raises(RequirementError):
            diamond_requirement.subrequirement(["a", "b"])


class TestBuilders:
    def test_from_path(self):
        req = ServiceRequirement.from_path(["a", "b", "c"])
        assert req.classify() is RequirementClass.PATH
        assert req.as_path() == ("a", "b", "c")

    def test_from_path_single(self):
        req = ServiceRequirement.from_path(["only"])
        assert req.classify() is RequirementClass.SINGLE

    def test_from_path_empty_rejected(self):
        with pytest.raises(RequirementError):
            ServiceRequirement.from_path([])

    def test_parallel_builder(self):
        req = ServiceRequirement.parallel("s", "t", [["a"], ["b", "c"]])
        assert req.classify() is RequirementClass.DISJOINT_PATHS
        assert req.has_edge("s", "a") and req.has_edge("a", "t")
        assert req.has_edge("b", "c")

    def test_parallel_empty_branches_rejected(self):
        with pytest.raises(RequirementError):
            ServiceRequirement.parallel("s", "t", [])


class TestComposition:
    def test_then_chains_requirements(self):
        first = ServiceRequirement.from_path(["a", "b"])
        second = ServiceRequirement.from_path(["c", "d"])
        combined = first.then(second)
        assert combined.source == "a"
        assert combined.sinks == ("d",)
        assert combined.has_edge("b", "c")
        assert combined.classify() is RequirementClass.PATH

    def test_then_connects_every_sink(self):
        splitter = ServiceRequirement(edges=[("s", "x"), ("s", "y")])
        tail = ServiceRequirement.from_path(["t"])
        combined = splitter.then(tail)
        assert combined.has_edge("x", "t")
        assert combined.has_edge("y", "t")
        assert combined.sinks == ("t",)

    def test_then_rejects_shared_services(self):
        first = ServiceRequirement.from_path(["a", "b"])
        second = ServiceRequirement.from_path(["b", "c"])
        with pytest.raises(RequirementError, match="sharing services"):
            first.then(second)

    def test_fan_out_builds_multi_sink_dag(self):
        head = ServiceRequirement.from_path(["a", "b"])
        left = ServiceRequirement.from_path(["l1", "l2"])
        right = ServiceRequirement.from_path(["r1"])
        combined = head.fan_out([left, right])
        assert combined.source == "a"
        assert set(combined.sinks) == {"l2", "r1"}
        assert combined.has_edge("b", "l1")
        assert combined.has_edge("b", "r1")

    def test_fan_out_rejects_overlapping_branches(self):
        head = ServiceRequirement.from_path(["a"])
        branch = ServiceRequirement.from_path(["x"])
        with pytest.raises(RequirementError):
            head.fan_out([branch, branch])

    def test_fan_out_needs_branches(self):
        head = ServiceRequirement.from_path(["a"])
        with pytest.raises(RequirementError):
            head.fan_out([])

    def test_composed_requirements_are_solvable(self, small_overlay):
        from repro.core.baseline import solve_path_requirement

        combined = ServiceRequirement.from_path(["src"]).then(
            ServiceRequirement.from_path(["mid"])
        ).then(ServiceRequirement.from_path(["dst"]))
        graph, _ = solve_path_requirement(combined, small_overlay)
        assert graph.is_complete()


class TestClassification:
    def test_single(self):
        assert ServiceRequirement(nodes=["x"]).classify() is RequirementClass.SINGLE

    def test_path(self):
        req = ServiceRequirement.from_path(["a", "b", "c", "d"])
        assert req.classify() is RequirementClass.PATH

    def test_tree(self):
        req = ServiceRequirement(edges=[("r", "a"), ("r", "b"), ("a", "c")])
        assert req.classify() is RequirementClass.TREE

    def test_disjoint_paths(self):
        req = ServiceRequirement.parallel("s", "t", [["a"], ["b"]])
        assert req.classify() is RequirementClass.DISJOINT_PATHS

    def test_split_merge(self, diamond_requirement):
        # The diamond has a direct split and merge but an extra chain makes
        # intermediates violate the disjoint-paths shape.
        req = ServiceRequirement(
            edges=[("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
                   ("m", "t")]
        )
        assert req.classify() in (
            RequirementClass.DISJOINT_PATHS,  # s->{a,b}->m is disjoint, m->t chains
            RequirementClass.SPLIT_MERGE,
        )

    def test_general(self):
        # Hotel feeding two downstream merges breaks series-parallel.
        req = travel_agency_requirement()
        assert req.classify() is RequirementClass.GENERAL

    def test_series_parallel_recognition_positive(self):
        req = ServiceRequirement(
            edges=[
                ("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
                ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t"),
            ]
        )
        assert req.is_series_parallel()
        assert req.classify() is RequirementClass.SPLIT_MERGE

    def test_series_parallel_recognition_negative(self):
        # The canonical non-SP "N" pattern inside two terminals.
        req = ServiceRequirement(
            edges=[
                ("s", "a"), ("s", "b"), ("a", "x"), ("a", "y"),
                ("b", "y"), ("x", "t"), ("y", "t"),
            ]
        )
        assert not req.is_series_parallel()
        assert req.classify() is RequirementClass.GENERAL

    def test_multi_sink_never_series_parallel(self):
        req = ServiceRequirement(edges=[("s", "a"), ("s", "b")])
        assert not req.is_series_parallel()

    def test_as_path_rejects_non_path(self, diamond_requirement):
        with pytest.raises(RequirementError):
            diamond_requirement.as_path()


class TestDominators:
    def test_chain_dominators(self):
        req = ServiceRequirement.from_path(["a", "b", "c"])
        assert req.immediate_dominators() == {"a": "a", "b": "a", "c": "b"}

    def test_diamond_merge_dominated_by_split(self, diamond_requirement):
        idom = diamond_requirement.immediate_dominators()
        assert idom["t"] == "s"
        assert idom["a"] == "s"
        assert idom["b"] == "s"

    def test_travel_agency_dominators(self):
        idom = travel_agency_requirement().immediate_dominators()
        # Every merge service is decided by the travel engine.
        assert idom["currency"] == "travel_engine"
        assert idom["map"] == "travel_engine"
        assert idom["agency"] == "travel_engine"
        # Single-parent services are decided by their parent.
        assert idom["translator"] == "attraction"

    def test_dominator_is_ancestor(self):
        rng = random.Random(5)
        for _ in range(20):
            req = random_requirement(rng, 7)
            idom = req.immediate_dominators()
            for sid, dom in idom.items():
                if sid == req.source:
                    assert dom == sid
                else:
                    assert dom in req.ancestors(sid)

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_dominator_blocks_all_paths(self, n, seed):
        """Removing idom(v) must disconnect v from the source."""
        req = random_requirement(random.Random(seed), n)
        idom = req.immediate_dominators()
        for sid, dom in idom.items():
            if sid == req.source or dom == req.source:
                continue
            reachable = {req.source}
            stack = [req.source]
            while stack:
                node = stack.pop()
                for nxt in req.successors(node):
                    if nxt != dom and nxt not in reachable:
                        reachable.add(nxt)
                        stack.append(nxt)
            assert sid not in reachable


class TestRandomRequirements:
    @pytest.mark.parametrize(
        "clazz",
        [
            RequirementClass.PATH,
            RequirementClass.TREE,
            RequirementClass.DISJOINT_PATHS,
            RequirementClass.SPLIT_MERGE,
            RequirementClass.GENERAL,
        ],
    )
    def test_generated_class_valid(self, clazz):
        rng = random.Random(0)
        for _ in range(10):
            req = random_requirement(rng, 7, clazz)
            # Construction validates; also check source/sink invariants.
            assert req.source == "s0"
            assert all(not req.successors(s) for s in req.sinks)

    def test_requested_path_class_is_exact(self):
        rng = random.Random(1)
        req = random_requirement(rng, 6, RequirementClass.PATH)
        assert req.classify() is RequirementClass.PATH

    def test_split_merge_request_yields_series_parallel(self):
        rng = random.Random(2)
        for _ in range(15):
            req = random_requirement(rng, 8, RequirementClass.SPLIT_MERGE)
            assert req.is_series_parallel() or req.classify() in (
                RequirementClass.PATH,
                RequirementClass.DISJOINT_PATHS,
            )

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_any_generated_requirement_is_valid_dag(self, n, seed):
        req = random_requirement(random.Random(seed), n)
        order = req.topological_order()
        position = {sid: i for i, sid in enumerate(order)}
        assert len(order) == n
        for a, b in req.edges():
            assert position[a] < position[b]
