"""Tests for the service abstract graph (paper Fig. 6)."""

import pytest

from repro.errors import FederationError
from repro.network.failures import degrade_links, fail_instances
from repro.network.metrics import UNREACHABLE, PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.oracle import RouteOracle
from repro.services import abstract_graph as abstract_graph_module
from repro.services.abstract_graph import AbstractEdge, AbstractGraph
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.abstract_graph import assert_view_equals_eager


@pytest.fixture
def chain_req():
    return ServiceRequirement.from_path(["src", "mid", "dst"])


class TestBuild:
    def test_nodes_grouped_by_service(self, chain_req, small_overlay):
        abstract = AbstractGraph.build(chain_req, small_overlay)
        assert len(abstract.instances_of("mid")) == 2
        assert len(abstract.instances_of("src")) == 1

    def test_edges_only_between_adjacent_services(self, chain_req, small_overlay):
        abstract = AbstractGraph.build(chain_req, small_overlay)
        src = ServiceInstance("src", 0)
        dst = ServiceInstance("dst", 3)
        # src -> dst is not a requirement edge even though an overlay path
        # exists via the mid instances.
        assert abstract.edge(src, dst) is None

    def test_edge_quality_is_shortest_widest_overlay_path(self, chain_req, small_overlay):
        abstract = AbstractGraph.build(chain_req, small_overlay)
        src = ServiceInstance("src", 0)
        mid1 = ServiceInstance("mid", 1)
        assert abstract.quality(src, mid1) == PathQuality(50.0, 5.0)

    def test_edge_records_overlay_path(self, chain_req, small_overlay):
        abstract = AbstractGraph.build(chain_req, small_overlay)
        src = ServiceInstance("src", 0)
        mid2 = ServiceInstance("mid", 2)
        edge = abstract.edge(src, mid2)
        assert edge.overlay_path == (src, mid2)

    def test_relayed_abstract_edge(self):
        """An abstract edge may route through a relay instance."""
        overlay = OverlayGraph()
        a = ServiceInstance("A", 0)
        r = ServiceInstance("R", 1)  # relay, not part of the requirement
        b = ServiceInstance("B", 2)
        overlay.add_link(a, b, PathQuality(1.0, 1.0))  # narrow direct
        overlay.add_link(a, r, PathQuality(9.0, 1.0))
        overlay.add_link(r, b, PathQuality(9.0, 1.0))
        req = ServiceRequirement(edges=[("A", "B")])
        abstract = AbstractGraph.build(req, overlay)
        edge = abstract.edge(a, b)
        assert edge.quality == PathQuality(9.0, 2.0)
        assert edge.overlay_path == (a, r, b)

    def test_missing_service_instance_raises(self, chain_req, small_overlay):
        req = ServiceRequirement.from_path(["src", "ghost", "dst"])
        with pytest.raises(FederationError, match="ghost"):
            AbstractGraph.build(req, small_overlay)

    def test_unreachable_pairs_get_no_edge(self):
        overlay = OverlayGraph()
        a = ServiceInstance("A", 0)
        b = ServiceInstance("B", 1)
        overlay.add_instance(a)
        overlay.add_instance(b)
        req = ServiceRequirement(edges=[("A", "B")])
        abstract = AbstractGraph.build(req, overlay)
        assert abstract.edge(a, b) is None
        assert abstract.quality(a, b) == UNREACHABLE

    def test_require_usable_raises_on_unrealisable_edge(self):
        overlay = OverlayGraph()
        overlay.add_instance(ServiceInstance("A", 0))
        overlay.add_instance(ServiceInstance("B", 1))
        req = ServiceRequirement(edges=[("A", "B")])
        with pytest.raises(FederationError, match="no usable"):
            AbstractGraph.build(req, overlay, require_usable=True)


class TestQueries:
    def test_successors_adjacency(self, chain_req, small_overlay):
        abstract = AbstractGraph.build(chain_req, small_overlay)
        src = ServiceInstance("src", 0)
        succ = dict(abstract.successors(src))
        assert set(succ) == {
            ServiceInstance("mid", 1),
            ServiceInstance("mid", 2),
        }

    def test_nodes_iterates_in_requirement_order(self, chain_req, small_overlay):
        abstract = AbstractGraph.build(chain_req, small_overlay)
        sids = [inst.sid for inst in abstract.nodes()]
        assert sids == ["src", "mid", "mid", "dst"]

    def test_num_edges(self, chain_req, small_overlay):
        abstract = AbstractGraph.build(chain_req, small_overlay)
        # src->mid1, src->mid2, mid1->dst, mid2->dst; plus mid1->mid2?  No:
        # mids are the same service, no requirement edge between them.
        assert abstract.num_edges() == 4

    def test_unknown_service_raises(self, chain_req, small_overlay):
        abstract = AbstractGraph.build(chain_req, small_overlay)
        with pytest.raises(KeyError):
            abstract.instances_of("ghost")

    def test_edges_iteration_sorted_and_complete(self, chain_req, small_overlay):
        abstract = AbstractGraph.build(chain_req, small_overlay)
        edges = list(abstract.edges())
        assert len(edges) == abstract.num_edges()
        keys = [(e.src, e.dst) for e in edges]
        assert keys == sorted(keys)


def _mutation_cycle(seed, network_size=16, n_services=4):
    """``(requirement, graphs)`` with ``graphs`` yielding base -> degraded ->
    crashed -> base again.  Each mutation happens only when the next graph
    is asked for -- after the caller queried the previous one -- so the
    oracle carries, drops and repairs trees it really holds, and the last
    step must answer for the pre-crash topology from whatever survived."""
    scenario = generate_scenario(
        ScenarioConfig(network_size=network_size, n_services=n_services, seed=seed)
    )

    def graphs():
        overlay = scenario.overlay
        yield overlay
        links = [
            (link.src, link.dst)
            for inst in overlay.instances()
            for link in overlay.out_links(inst)
        ]
        degraded = degrade_links(
            overlay, links[: max(1, len(links) // 6)], bandwidth_factor=0.3
        )
        yield degraded
        victims = []
        for inst in degraded.instances():
            if inst == scenario.source_instance or len(victims) == 2:
                continue
            if len(degraded.instances_of(inst.sid)) > 1 and not any(
                v.sid == inst.sid for v in victims
            ):
                victims.append(inst)
        yield fail_instances(degraded, victims)
        yield overlay

    return scenario.requirement, graphs()


class TestOracleEquivalence:
    """Property: the oracle-backed view is invisible in the results.

    For seeded random overlays -- including after link degradation and
    crash/revive cycles -- ``AbstractGraph.build`` must answer with the
    exact edge set (qualities *and* expanded overlay paths) the eager,
    per-build pure tree computation yields (``eager_edge_table``).
    """

    @pytest.fixture
    def oracle(self):
        try:
            yield RouteOracle.reset_default()
        finally:
            RouteOracle.reset_default()

    @pytest.mark.parametrize("seed", [0, 5, 11, 29])
    def test_build_identical_across_mutation_cycle(self, seed, oracle):
        requirement, graphs = _mutation_cycle(seed)
        for graph in graphs:
            assert_view_equals_eager(requirement, graph)  # misses, repairs
            assert_view_equals_eager(requirement, graph)  # hits

    @pytest.mark.parametrize("network_size", [16, 40, 60])
    @pytest.mark.parametrize(
        "requirement_class",
        [
            RequirementClass.PATH, RequirementClass.DISJOINT_PATHS,
            RequirementClass.SPLIT_MERGE, RequirementClass.GENERAL,
        ],
        ids=lambda clazz: clazz.value,
    )
    def test_every_query_equals_the_eager_table(
        self, network_size, requirement_class, oracle
    ):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=network_size,
                n_services=6,
                requirement_class=requirement_class,
                instances_per_service=(2, 4),
                seed=1_000 + network_size,
            )
        )
        assert_view_equals_eager(scenario.requirement, scenario.overlay)

    def test_rows_evicted_between_build_and_query_rederive_identically(self, oracle):
        """Every row the build warmed is gone by the time it is asked for;
        the view must not notice."""
        requirement, graphs = _mutation_cycle(5, network_size=40, n_services=5)
        for graph in graphs:
            abstract = AbstractGraph.build(requirement, graph)
            oracle.invalidate(graph)
            assert oracle.cached_sources(graph) == set()
            assert_view_equals_eager(requirement, graph, abstract)
        assert oracle.stats().invalidated > 0

    def test_the_cycle_carries_drops_and_repairs_trees(self, oracle):
        """What makes the cycle above a test of the oracle's write path."""
        requirement, graphs = _mutation_cycle(5, network_size=40, n_services=5)
        for graph in graphs:
            assert_view_equals_eager(requirement, graph)
        stats = oracle.stats()
        assert min(stats.carried, stats.dropped, stats.repaired) > 0

    def test_a_graph_keeps_answering_after_the_oracle_is_replaced(self, oracle):
        requirement, graphs = _mutation_cycle(11)
        for graph in graphs:
            abstract = AbstractGraph.build(requirement, graph)
            RouteOracle.reset_default()
            assert_view_equals_eager(requirement, graph, abstract)


class TestNothingIsMaterialised:
    """The counting doubles: a build copies nothing out of the trees, a
    point query builds the one edge asked for, and a federation session
    reads no more ground-truth rows than it commits edges."""

    @pytest.fixture
    def built_edges(self, monkeypatch):
        """Every ``AbstractEdge`` the module under test constructs."""
        built = []

        class CountingEdge(AbstractEdge):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(abstract_graph_module, "AbstractEdge", CountingEdge)
        return built

    @pytest.fixture
    def fetched_rows(self, monkeypatch):
        """The sources whose row a graph asked its provider for, in order."""
        fetched = []
        plain_init = AbstractGraph.__init__

        def counting_init(self, requirement, instances, rows):
            def counted(source):
                fetched.append(source)
                return rows(source)

            plain_init(self, requirement, instances, counted)

        monkeypatch.setattr(AbstractGraph, "__init__", counting_init)
        return fetched

    @pytest.fixture
    def scenario(self):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=60,
                n_services=6,
                requirement_class=RequirementClass.SPLIT_MERGE,
                instances_per_service=(3, 5),
                seed=7,
            )
        )
        RouteOracle.reset_default()
        try:
            yield scenario
        finally:
            RouteOracle.reset_default()

    def test_a_build_over_a_warmed_overlay_copies_nothing(self, scenario, built_edges):
        requirement, overlay = scenario.requirement, scenario.overlay
        oracle = RouteOracle.default()
        AbstractGraph.build(requirement, overlay)  # warms every source
        warm = oracle.stats()
        del built_edges[:]
        abstract = AbstractGraph.build(requirement, overlay)
        after = oracle.stats()
        assert built_edges == []
        assert (after.lookups, after.warmed) == (warm.lookups, warm.warmed)
        # One point query: one row (an oracle hit), the one edge asked for.
        a_sid, b_sid = requirement.edges()[0]
        a, b = overlay.instances_of(a_sid)[0], overlay.instances_of(b_sid)[0]
        edge = abstract.edge(a, b)
        assert abstract.quality(a, b) == edge.quality
        assert built_edges == [edge]
        assert edge.overlay_path is oracle.tree(overlay, a)[b].path
        assert oracle.stats().hits == warm.hits + 2  # the row, and the line above
        assert oracle.stats().misses == warm.misses

    def test_the_edge_table_is_built_once(self, scenario, built_edges, fetched_rows):
        abstract = AbstractGraph.build(scenario.requirement, scenario.overlay)
        assert (built_edges, fetched_rows) == ([], [])
        total = abstract.num_edges()
        assert len(built_edges) == total > 0
        sources = list(fetched_rows)
        assert len(sources) == len(set(sources)) > 0
        assert list(abstract.edges()) == sorted(
            built_edges, key=lambda edge: (edge.src, edge.dst)
        )
        for inst in abstract.nodes():
            list(abstract.successors(inst))
        assert (len(built_edges), fetched_rows) == (total, sources)

    def test_a_federation_reads_one_ground_truth_row_per_committed_edge(
        self, scenario, fetched_rows
    ):
        from repro.core.sflow import SFlowAlgorithm

        requirement = scenario.requirement
        result = SFlowAlgorithm().federate(
            requirement, scenario.overlay, source_instance=scenario.source_instance
        )
        assert result.flow_graph is not None
        assert 0 < len(fetched_rows) <= len(requirement.edges())
        assert len(fetched_rows) == len(set(fetched_rows))
        assert set(fetched_rows) <= set(result.flow_graph.assignment.values())
