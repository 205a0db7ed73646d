"""Tests for block decomposition and the reduction solver.

Two layers of validation:

* structural -- decomposition trees of hand-built requirements have the
  expected series/parallel/path shapes (the paper's Fig. 8 examples);
* behavioural -- the Pareto solver equals exhaustive search on random
  scenarios of every requirement class, and the non-Pareto (paper
  heuristic) variant is never better.
"""

import collections
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import reductions
from repro.core.optimal import optimal_flow_graph
from repro.core.reductions import (
    VIRTUAL_SINK,
    GeneralBlock,
    ParallelBlock,
    PathBlock,
    ReductionSolver,
    SeriesBlock,
    _PricedEdges,
    decompose,
    pareto_prune,
    spell,
)
from repro.errors import FederationError
from repro.network.metrics import PathQuality, UNREACHABLE
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import (
    ScenarioConfig,
    generate_scenario,
    random_requirement,
    travel_agency_requirement,
)
from tests.oracles.reductions import (
    EagerSolver,
    ExhaustiveSolver,
    cut_services_by_removal,
)


class TestDecompose:
    def test_chain_is_path_block(self):
        req = ServiceRequirement.from_path(["a", "b", "c"])
        block = decompose(req)
        assert isinstance(block, PathBlock)
        assert block.chain == ("a", "b", "c")

    def test_diamond_is_parallel_of_paths(self, diamond_requirement):
        block = decompose(diamond_requirement)
        assert isinstance(block, ParallelBlock)
        assert len(block.children) == 2
        assert all(isinstance(child, PathBlock) for child in block.children)
        assert {child.chain[1] for child in block.children} == {"a", "b"}

    def test_series_of_split_merge(self):
        # s -> {a,b} -> m -> t : series(parallel, path) or path at the tail.
        req = ServiceRequirement(
            edges=[("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"), ("m", "t")]
        )
        block = decompose(req)
        assert isinstance(block, SeriesBlock)
        kinds = [type(child).__name__ for child in block.children]
        assert "ParallelBlock" in kinds

    def test_direct_edge_becomes_own_branch(self):
        req = ServiceRequirement(edges=[("s", "t"), ("s", "a"), ("a", "t")])
        block = decompose(req)
        assert isinstance(block, ParallelBlock)
        chains = sorted(child.chain for child in block.children)
        assert chains == [("s", "a", "t"), ("s", "t")]

    def test_non_series_parallel_is_general(self):
        req = ServiceRequirement(
            edges=[
                ("s", "a"), ("s", "b"), ("a", "x"), ("a", "y"),
                ("b", "y"), ("x", "t"), ("y", "t"),
            ]
        )
        block = decompose(req)
        assert isinstance(block, GeneralBlock)

    def test_travel_agency_is_general_block(self):
        block = decompose(travel_agency_requirement())
        assert isinstance(block, GeneralBlock)

    def test_nested_decomposition(self):
        # Two split-merge lobes in series.
        req = ServiceRequirement(
            edges=[
                ("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
                ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t"),
            ]
        )
        block = decompose(req)
        assert isinstance(block, SeriesBlock)
        assert all(
            isinstance(child, ParallelBlock) for child in block.children
        )

    def test_describe_renders_tree(self, diamond_requirement):
        text = decompose(diamond_requirement).describe()
        assert "Parallel" in text
        assert "Path" in text

    def test_services_cover_requirement(self):
        rng = random.Random(3)
        from repro.services.workloads import random_requirement

        for _ in range(20):
            req = random_requirement(rng, 8)
            if len(req.sinks) != 1:
                continue
            block = decompose(req)
            assert set(block.services()) == set(req.services())

    @pytest.mark.parametrize("clazz", list(RequirementClass), ids=lambda c: c.value)
    def test_cuts_are_the_sinks_dominator_chain(self, clazz, monkeypatch):
        """Reading ``v``'s dominators finds the cuts the removal test did,
        so every block tree is the one ``decompose`` built before."""
        rng = random.Random(31)
        shapes = [
            ReductionSolver()._two_terminal(random_requirement(rng, n, clazz), None)[0]
            for n in [*range(1, 9)] * 3
        ]
        trees = [decompose(req).describe() for req in shapes]
        monkeypatch.setattr(reductions, "_cut_services", cut_services_by_removal)
        assert trees == [decompose(req).describe() for req in shapes]
        if clazz is RequirementClass.TREE:
            assert any(VIRTUAL_SINK in tree for tree in trees)
        if clazz is RequirementClass.SPLIT_MERGE:
            assert any("Series" in tree for tree in trees)


class TestParetoPrune:
    def entry(self, bw, lat):
        return (float(bw), float(lat), {})

    def test_keeps_frontier(self):
        entries = [self.entry(10, 10), self.entry(5, 1), self.entry(7, 3)]
        frontier = pareto_prune(entries, keep_all=True)
        assert [e[:2] for e in frontier] == [(10.0, 10.0), (7.0, 3.0), (5.0, 1.0)]

    def test_drops_dominated(self):
        entries = [self.entry(10, 1), self.entry(5, 5), self.entry(10, 2)]
        frontier = pareto_prune(entries, keep_all=True)
        assert [e[:2] for e in frontier] == [(10.0, 1.0)]

    def test_single_best_mode(self):
        entries = [self.entry(10, 10), self.entry(5, 1)]
        assert [e[:2] for e in pareto_prune(entries, keep_all=False)] == [
            (10.0, 10.0)
        ]

    def test_unreachable_dropped(self):
        # No route (infinite latency) and no capacity (zero bandwidth).
        for unreachable in [(0.0, math.inf, {}), (0.0, 5.0, {})]:
            assert pareto_prune([unreachable], keep_all=True) == []
            assert pareto_prune([unreachable], keep_all=False) == []

    def test_empty_input(self):
        assert pareto_prune([], keep_all=True) == []

    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf]),
                st.sampled_from([0.0, 1.0, 2.0, math.inf]),
            ),
            max_size=12,
        ),
        keep_all=st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_two_key_sorts_order_as_the_composite_key(self, entries, keep_all):
        """Ties, infinite bandwidths and unreachable entries included, the
        survivors are the same entry objects in the same order."""
        entries = [(bw, lat, {"id": i}) for i, (bw, lat) in enumerate(entries)]
        reachable = [e for e in entries if e[0] > 0 and e[1] < math.inf]
        reachable.sort(key=lambda e: (-e[0], e[1]))
        expected = reachable[:1]
        if keep_all:
            expected = [
                e
                for k, e in enumerate(reachable)
                if all(e[1] < f[1] for f in reachable[:k])
            ]
        found = pareto_prune(entries, keep_all=keep_all)
        assert [id(e) for e in found] == [id(e) for e in expected]


class TestSolver:
    def test_picks_wide_branch_on_chain(self, small_overlay):
        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        graph = ReductionSolver().solve(req, small_overlay)
        assert graph.instance_for("mid") == ServiceInstance("mid", 1)

    def test_infeasible_raises(self):
        overlay = OverlayGraph()
        overlay.add_instance(ServiceInstance("a", 0))
        overlay.add_instance(ServiceInstance("b", 1))
        req = ServiceRequirement(edges=[("a", "b")])
        with pytest.raises(FederationError, match="no feasible"):
            ReductionSolver().solve(req, overlay)

    def test_pinned_source_respected(self, travel_scenario):
        graph = ReductionSolver().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert graph.instance_for("travel_engine") == travel_scenario.source_instance

    def test_bad_pinned_source_rejected(self, travel_scenario):
        with pytest.raises(FederationError):
            ReductionSolver().solve(
                travel_scenario.requirement,
                travel_scenario.overlay,
                source_instance=ServiceInstance("travel_engine", 999),
            )

    def test_multi_sink_requirements_supported(self):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=12,
                n_services=6,
                requirement_class=RequirementClass.TREE,
                seed=5,
            )
        )
        graph = ReductionSolver().solve(
            scenario.requirement, scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert graph.is_complete()
        assert "__virtual_sink__" not in graph.assignment

    @pytest.mark.parametrize(
        "clazz",
        [
            RequirementClass.PATH,
            RequirementClass.DISJOINT_PATHS,
            RequirementClass.SPLIT_MERGE,
            RequirementClass.GENERAL,
            RequirementClass.TREE,
        ],
    )
    @pytest.mark.parametrize("seed", range(8))
    def test_pareto_solver_matches_optimal(self, clazz, seed):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=13,
                n_services=6,
                requirement_class=clazz,
                seed=seed,
            )
        )
        optimal = optimal_flow_graph(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        solved = ReductionSolver(pareto=True).solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert solved.quality() == optimal.quality()

    @pytest.mark.parametrize("seed", range(8))
    def test_heuristic_never_beats_pareto(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(network_size=13, n_services=6, seed=seed)
        )
        pareto = ReductionSolver(pareto=True).solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        heuristic = ReductionSolver(pareto=False).solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert not heuristic.quality().is_better_than(pareto.quality())

    def test_enumeration_limit_falls_back_to_greedy(self, travel_scenario):
        solver = ReductionSolver(enumeration_limit=1)
        graph = solver.solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert graph.is_complete()

    def test_greedy_fallback_not_better_than_exact(self, travel_scenario):
        exact = ReductionSolver().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        greedy = ReductionSolver(enumeration_limit=1).solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        assert not greedy.quality().is_better_than(exact.quality())

    def test_solve_assignment_returns_quality(self, small_overlay):
        from repro.services.abstract_graph import AbstractGraph

        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        abstract = AbstractGraph.build(req, small_overlay)
        assignment, quality = ReductionSolver().solve_assignment(req, abstract)
        assert set(assignment) == {"src", "mid", "dst"}
        assert quality == PathQuality(50.0, 10.0)


class TestLatencyBound:
    """The QoS-constrained variant: max bandwidth s.t. latency <= bound."""

    @pytest.fixture
    def req(self):
        return ServiceRequirement.from_path(["src", "mid", "dst"])

    def test_loose_bound_equals_unbounded(self, req, small_overlay):
        unbounded = ReductionSolver().solve(req, small_overlay)
        bounded = ReductionSolver().solve(
            req, small_overlay, latency_bound=1e9
        )
        assert bounded.assignment == unbounded.assignment

    def test_tight_bound_switches_to_fast_lane(self, req, small_overlay):
        # The wide lane (mid/1) takes 10 latency; the narrow (mid/2) takes 2.
        graph = ReductionSolver().solve(req, small_overlay, latency_bound=5.0)
        assert graph.instance_for("mid") == ServiceInstance("mid", 2)
        assert graph.end_to_end_latency() <= 5.0

    def test_infeasible_bound_raises(self, req, small_overlay):
        with pytest.raises(FederationError, match="within latency bound"):
            ReductionSolver().solve(req, small_overlay, latency_bound=0.5)

    def test_negative_bound_rejected(self, req, small_overlay):
        with pytest.raises(ValueError):
            ReductionSolver().solve(req, small_overlay, latency_bound=-1.0)

    def test_requires_pareto_mode(self, req, small_overlay):
        with pytest.raises(FederationError, match="pareto=True"):
            ReductionSolver(pareto=False).solve(
                req, small_overlay, latency_bound=5.0
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_is_respected_and_bandwidth_maximal(self, seed):
        """Cross-check against brute force on random scenarios."""
        import itertools

        from repro.services.abstract_graph import AbstractGraph
        from repro.services.flowgraph import ServiceFlowGraph

        scenario = generate_scenario(
            ScenarioConfig(
                network_size=12,
                n_services=5,
                seed=seed,
                instances_per_service=(2, 3),
            )
        )
        requirement, overlay = scenario.requirement, scenario.overlay
        unbounded = ReductionSolver().solve(
            requirement, overlay, source_instance=scenario.source_instance
        )
        bound = unbounded.end_to_end_latency() * 0.9  # force a real trade
        abstract = AbstractGraph.build(requirement, overlay)
        pools = [abstract.instances_of(s) for s in requirement.services()]
        best_bw = None
        for combo in itertools.product(*pools):
            assignment = dict(zip(requirement.services(), combo))
            if assignment[requirement.source] != scenario.source_instance:
                continue
            try:
                graph = ServiceFlowGraph.realize(abstract, assignment)
            except FederationError:
                continue
            if graph.end_to_end_latency() > bound:
                continue
            bw = graph.bottleneck_bandwidth()
            if best_bw is None or bw > best_bw:
                best_bw = bw
        try:
            bounded = ReductionSolver().solve(
                requirement,
                overlay,
                source_instance=scenario.source_instance,
                latency_bound=bound,
            )
        except FederationError:
            assert best_bw is None
            return
        assert bounded.end_to_end_latency() <= bound + 1e-9
        assert bounded.bottleneck_bandwidth() == pytest.approx(best_bw)


# -- the general-block search against the exhaustive walk it replaced ------------


class TableView:
    """An ``AbstractView`` read off two dicts; counts the rows it prices
    per ``(source instance, destination service)``."""

    def __init__(self, pools, prices):
        self.pools = pools
        self.prices = prices
        self.rows = collections.Counter()

    def instances_of(self, sid):
        return self.pools[sid]

    def price_row(self, src, dsts):
        self.rows[(src, dsts[0].sid)] += 1
        qualities = [self.prices.get((src, dst), UNREACHABLE) for dst in dsts]
        return [(q.bandwidth, q.latency) if q.reachable else None for q in qualities]


#: A requirement no reduction applies to (TestDecompose pins it GENERAL).
_N_SHAPE = [
    ("s", "a"), ("s", "b"), ("a", "x"), ("a", "y"), ("b", "y"), ("x", "t"), ("y", "t"),
]


def _general_shapes():
    shapes = {
        "n-shape": ServiceRequirement(edges=_N_SHAPE),
        # Two sinks: the virtual sink becomes the block's ``v``.
        "multi-sink": ServiceRequirement(edges=_N_SHAPE[:5]),
        # Series(Path, General, Path): the block's keys feed _solve_series.
        "nested": ServiceRequirement(
            edges=[("p", "s"), *_N_SHAPE, ("t", "z")]
        ),
        "two-blocks": ServiceRequirement(
            edges=_N_SHAPE + [(a + "2", b + "2") for a, b in _N_SHAPE] + [("t", "s2")]
        ),
    }
    rng = random.Random(17)
    while len(shapes) < 8:
        shape = random_requirement(rng, rng.randint(5, 7), RequirementClass.GENERAL)
        if shape.classify() is RequirementClass.GENERAL:
            shapes[f"random-{len(shapes)}"] = shape
    return shapes


GENERAL_SHAPES = _general_shapes()

#: Tie-heavy prices: three bandwidths, five latencies, a quarter unreachable.
_hops = st.tuples(st.integers(0, 3), st.integers(0, 4))


@st.composite
def priced_views(draw, requirement):
    pools = {
        sid: tuple(
            ServiceInstance(sid, nid) for nid in range(draw(st.integers(1, 3)))
        )
        for sid in requirement.services()
    }
    prices = {}
    for a, b in requirement.edges():
        for src in pools[a]:
            for dst in pools[b]:
                bandwidth, latency = draw(_hops)
                if bandwidth:
                    prices[(src, dst)] = PathQuality(float(bandwidth), float(latency))
    return TableView(pools, prices)


general_cases = st.sampled_from(sorted(GENERAL_SHAPES)).flatmap(
    lambda name: st.tuples(
        st.just(GENERAL_SHAPES[name]), priced_views(GENERAL_SHAPES[name])
    )
)


def _pinned_table(table):
    """A block table with nothing left to tolerance or dict equality; each
    entry's trail spelled out into its assignment."""
    return [
        (
            (str(src), str(dst)),
            [
                (
                    bandwidth.hex(),
                    latency.hex(),
                    [(sid, str(inst)) for sid, inst in spell(trail).items()],
                )
                for bandwidth, latency, trail in entries
            ],
        )
        for (src, dst), entries in table.items()
    ]


def _outcome(solver, requirement, view, **kwargs):
    try:
        assignment, quality = solver.solve_assignment(requirement, view, **kwargs)
    except FederationError:
        return None
    return (
        quality.bandwidth.hex(),
        quality.latency.hex(),
        [(sid, str(inst)) for sid, inst in assignment.items()],
    )


class TestGeneralSearchEqualsExhaustive:
    """``_solve_general`` returns the exhaustive walk's table: keys in
    order, every float bit for bit, the same winner on every tie."""

    def test_shapes_hold_a_general_block(self):
        def kinds(block):
            yield type(block).__name__
            for child in getattr(block, "children", ()):
                yield from kinds(child)

        solver = ReductionSolver()
        blocks = {}
        for name, shape in GENERAL_SHAPES.items():
            pools = {sid: () for sid in shape.services()}
            work_req, _ = solver._two_terminal(shape, TableView(pools, {}))
            blocks[name] = decompose(work_req)
            assert "GeneralBlock" in kinds(blocks[name]), name
        assert list(kinds(blocks["nested"])) == [
            "SeriesBlock", "PathBlock", "GeneralBlock", "PathBlock"
        ]
        assert list(kinds(blocks["two-blocks"])).count("GeneralBlock") == 2
        assert blocks["multi-sink"].v == VIRTUAL_SINK

    @pytest.mark.parametrize("pareto", [True, False])
    @given(case=general_cases)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_block_tables_are_identical(self, pareto, case):
        requirement, view = case
        reference = ExhaustiveSolver(pareto=pareto)
        work_req, priced = reference.work(requirement, view)
        block = decompose(work_req)
        expected = reference._solve_block(block, priced)
        found = ReductionSolver(pareto=pareto)._solve_block(block, priced)
        assert _pinned_table(found) == _pinned_table(expected)

    @given(case=general_cases, bound=st.integers(0, 10), pin=st.integers(0, 2))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_solutions_are_identical(self, case, bound, pin):
        requirement, view = case
        sources = view.instances_of(requirement.source)
        variants = [{}, {"source_instance": sources[pin % len(sources)]}]
        for pareto in (True, False):
            bounded = [{"latency_bound": float(bound)}] if pareto else []
            for kwargs in variants + bounded:
                assert _outcome(
                    ReductionSolver(pareto=pareto), requirement, view, **kwargs
                ) == _outcome(
                    ExhaustiveSolver(pareto=pareto), requirement, view, **kwargs
                )

    @given(view=priced_views(ServiceRequirement(edges=_N_SHAPE + [("s", "t")])))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_block_with_a_direct_terminal_edge(self, view):
        """``decompose`` splits a direct ``u -> v`` edge off as its own
        branch; a block built by hand may still carry one."""
        requirement = ServiceRequirement(edges=_N_SHAPE + [("s", "t")])
        block = GeneralBlock("s", "t", requirement)
        reference = ExhaustiveSolver()
        _, priced = reference.work(requirement, view)
        assert _pinned_table(
            ReductionSolver()._solve_general(block, priced)
        ) == _pinned_table(reference._solve_general(block, priced))


#: Shapes every other block kind decomposes into: a path, parallel paths
#: with a direct edge, split-merge lobes in series, and a multi-sink tree.
REDUCIBLE_SHAPES = {
    "path": ServiceRequirement.from_path(["s", "a", "b", "t"]),
    "parallel": ServiceRequirement(
        edges=[("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "t")]
    ),
    "lobes": ServiceRequirement(
        edges=[
            ("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
            ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t"),
        ]
    ),
    "tree": ServiceRequirement(edges=[("s", "a"), ("a", "b"), ("a", "c"), ("s", "d")]),
}

reducible_cases = st.sampled_from(sorted(REDUCIBLE_SHAPES)).flatmap(
    lambda name: st.tuples(
        st.just(REDUCIBLE_SHAPES[name]), priced_views(REDUCIBLE_SHAPES[name])
    )
)


class TestTrailsSpellTheEagerTables:
    """Entries carry trails: spelled out, a block table is the one the
    eager DP built by copying an assignment into every entry -- keys in
    order, every float bit for bit, every assignment in item order."""

    @pytest.mark.parametrize("pareto", [True, False])
    @given(case=st.one_of(general_cases, reducible_cases))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_block_tables_are_identical(self, pareto, case):
        requirement, view = case
        work_req, view = ReductionSolver()._two_terminal(requirement, view)
        priced = _PricedEdges(work_req, view)
        block = decompose(work_req)
        expected = EagerSolver(pareto=pareto)._solve_block(block, priced)
        found = ReductionSolver(pareto=pareto)._solve_block(block, priced)
        assert _pinned_table(found) == _pinned_table(expected)

    def test_a_join_spells_left_before_right(self):
        a, b, c = (ServiceInstance(sid, 0) for sid in "abc")
        b2 = ServiceInstance("b", 1)
        left = ((None, "a", a), "b", b)
        right = ({"b": b2}, (None, "c", c))
        assert list(spell((left, right)).items()) == [("a", a), ("b", b2), ("c", c)]


class TestOnePricePerPair:
    @given(case=general_cases)
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_quality_is_asked_at_most_once_per_pair(self, case):
        """Each ``(edge, source)`` row is asked once, and only those."""
        requirement, view = case
        _outcome(ReductionSolver(), requirement, view)
        assert set(view.rows.values()) == {1}
        assert set(view.rows) == {
            (src, b) for a, b in requirement.edges() for src in view.pools[a]
        }


class _CountingTable(list):
    """A hop table that counts the rows read out of it."""

    reads = 0

    def __getitem__(self, index):
        _CountingTable.reads += 1
        return super().__getitem__(index)


class TestOneWalkPerSource:
    """A general block is searched once per ``u`` instance for all of its
    ``v`` instances: ``v`` instances that price alike share every node."""

    def interior_row_reads(self, k, monkeypatch):
        rng = random.Random(7)
        pools = {
            sid: tuple(ServiceInstance(sid, nid) for nid in range(k if sid == "t" else 3))
            for sid in "sabxyt"
        }
        prices, into_v = {}, {}
        for a, b in _N_SHAPE:
            for src in pools[a]:
                if b == "t":
                    into_v[src] = PathQuality(float(rng.randint(1, 3)), float(rng.randrange(5)))
                for dst in pools[b]:
                    quality = into_v[src] if b == "t" else PathQuality(
                        float(rng.randint(1, 3)), float(rng.randrange(5))
                    )
                    if b == "t" or rng.random() >= 0.2:
                        prices[(src, dst)] = quality
        requirement = ServiceRequirement(edges=_N_SHAPE)
        reference = ExhaustiveSolver()
        _, priced = reference.work(requirement, TableView(pools, prices))
        expected = reference._solve_general(decompose(requirement), priced)
        for a, b in _N_SHAPE:
            if b != "t":
                priced.hops[(a, b)] = _CountingTable(priced.hops[(a, b)])
        monkeypatch.setattr(_CountingTable, "reads", 0)
        table = ReductionSolver()._solve_general(decompose(requirement), priced)
        assert _pinned_table(table) == _pinned_table(expected)
        assert table and len(table) == k * len({src for src, _ in table})
        return _CountingTable.reads

    def test_interior_rows_are_read_once_for_every_v(self, monkeypatch):
        once = self.interior_row_reads(1, monkeypatch)
        assert once > 0
        assert self.interior_row_reads(4, monkeypatch) == once


class TestEnumerationLimit:
    """What ``enumeration_limit`` counts, and where it cuts."""

    @pytest.fixture
    def view(self):
        # Interior a, b, x, y: 2 * 2 * 2 * 2 = 16; terminals s, t: 3 * 3.
        size = {"s": 3, "t": 3}
        pools = {
            sid: tuple(ServiceInstance(sid, nid) for nid in range(size.get(sid, 2)))
            for sid in "sabxyt"
        }
        prices = {
            (src, dst): PathQuality(1.0 + src.nid + dst.nid, 1.0)
            for a, b in _N_SHAPE
            for src in pools[a]
            for dst in pools[b]
        }
        return TableView(pools, prices)

    @pytest.mark.parametrize("limit, greedy", [(16, False), (15, True)])
    def test_interior_product_at_the_limit_is_searched(
        self, view, limit, greedy, monkeypatch
    ):
        fallbacks = []
        real = ReductionSolver._solve_general_greedy
        monkeypatch.setattr(
            ReductionSolver,
            "_solve_general_greedy",
            lambda self, block, priced: fallbacks.append(block)
            or real(self, block, priced),
        )
        ReductionSolver(enumeration_limit=limit).solve_assignment(
            ServiceRequirement(edges=_N_SHAPE), view
        )
        assert bool(fallbacks) is greedy


class TestOneQualityPerSolve:
    """The block DP runs on floats: a planning step builds exactly one
    :class:`PathQuality`, the one ``solve_assignment`` returns."""

    #: Seed 2 gives each class the block kind named after it.
    SHAPES = {
        RequirementClass.PATH: "PathBlock",
        RequirementClass.DISJOINT_PATHS: "ParallelBlock",
        RequirementClass.SPLIT_MERGE: "SeriesBlock",
        RequirementClass.GENERAL: "GeneralBlock",
        RequirementClass.TREE: "ParallelBlock",
    }

    @pytest.mark.parametrize("arm", ["pareto", "single-best", "bounded", "greedy"])
    @pytest.mark.parametrize("clazz", list(SHAPES))
    def test_exactly_one_path_quality(self, clazz, arm, monkeypatch):
        from repro.services.abstract_graph import AbstractGraph

        scenario = generate_scenario(
            ScenarioConfig(
                network_size=13, n_services=6, requirement_class=clazz, seed=2
            )
        )
        requirement = scenario.requirement
        abstract = AbstractGraph.build(requirement, scenario.overlay)
        # At limit 1 the GENERAL block (an interior of 54) goes greedy.
        options = {"single-best": {"pareto": False}, "greedy": {"enumeration_limit": 1}}
        solver = ReductionSolver(**options.get(arm, {}))
        block = decompose(solver._two_terminal(requirement, abstract)[0])
        assert type(block).__name__ == self.SHAPES[clazz]
        assert (len(requirement.sinks) > 1) is (clazz is RequirementClass.TREE)
        # The unbounded solve warms the view's routing rows and sets the bound.
        _, unbounded = solver.solve_assignment(requirement, abstract)
        kwargs = {"latency_bound": unbounded.latency} if arm == "bounded" else {}

        built = []
        real = PathQuality.__post_init__
        monkeypatch.setattr(
            PathQuality, "__post_init__", lambda self: built.append(self) or real(self)
        )
        _, quality = solver.solve_assignment(requirement, abstract, **kwargs)
        assert len(built) == 1 and built[0] is quality
        assert quality == unbounded
