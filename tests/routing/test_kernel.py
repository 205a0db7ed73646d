"""Property tests: the CSR kernel is label-for-label identical to pure.

The exactness contract of :mod:`repro.routing.kernel`: for every source,
:func:`~repro.routing.kernel.batched_trees` returns the same label dict
(bandwidth, latency, hops, *and* the deterministic tie-break path) as the
pure :func:`~repro.routing.wang_crowcroft.shortest_widest_tree` /
:func:`~repro.routing.wang_crowcroft.widest_shortest_tree`, over seeded
generated topologies including zero-bandwidth and unreachable links, a
filled overlay of the workload's shape (directed and undirected), a
hand-built case where float addition is not strictly monotone, and
tie-heavy random digraphs.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alternatives import undirected_relaxation
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.network.underlay import Underlay, UnderlayConfig
from repro.routing import kernel
from repro.routing.kernel import (
    SHORTEST_WIDEST,
    WIDEST_SHORTEST,
    CSRGraph,
    batched_trees,
    snapshot,
)
from repro.routing.oracle import RouteOracle
from repro.routing.wang_crowcroft import RouteLabel, shortest_widest_tree
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.routing import assert_kernel_matches_pure

MODELS = ("waxman", "erdos_renyi", "barabasi_albert")


class TestUnderlayEquivalence:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_generated_underlays(self, model, seed):
        underlay = Underlay.generate(
            UnderlayConfig(n=24, model=model, seed=seed)
        )
        assert_kernel_matches_pure(
            underlay, underlay.neighbors, underlay.routing_nodes()
        )


class TestOverlayEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_scenario_overlays(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(network_size=24, n_services=4, seed=seed)
        )
        overlay = scenario.overlay
        assert_kernel_matches_pure(
            overlay, overlay.successors, overlay.routing_nodes()
        )

    def test_zero_bandwidth_and_unreachable_links(self):
        """Unusable links (zero bandwidth, infinite latency) are ignored
        by kernel and pure alike; fully cut-off nodes get no label."""
        insts = [ServiceInstance("S", i) for i in range(6)]
        a, b, c, d, e, f = insts
        overlay = OverlayGraph()
        overlay.add_link(a, b, PathQuality(10.0, 1.0))
        overlay.add_link(b, c, PathQuality(0.0, 1.0))  # zero bandwidth
        overlay.add_link(a, c, PathQuality(5.0, math.inf))  # infinite latency
        overlay.add_link(c, d, PathQuality(8.0, 2.0))
        overlay.add_link(a, e, PathQuality(3.0, 4.0))
        overlay.add_link(e, d, PathQuality(3.0, 1.0))
        overlay.add_instance(f)  # isolated
        nodes = overlay.routing_nodes()
        assert_kernel_matches_pure(overlay, overlay.successors, nodes)
        csr = CSRGraph.from_adjacency(nodes, overlay.successors)
        labels = batched_trees(csr, (a,), order=SHORTEST_WIDEST)[0]
        # c is only reachable through unusable links -> absent entirely.
        assert c not in labels
        assert f not in labels
        # d is reachable only via the usable detour a -> e -> d.
        assert labels[d].path == (a, e, d)


class TestFilledOverlay:
    """An overlay shaped like the benchmark's: ~10 instances per service,
    every pool linked to the next, so a tree steps through many widths."""

    CONFIG = ScenarioConfig(
        network_size=60, n_services=6, instances_per_service=(9, 11), seed=0
    )

    @pytest.fixture(scope="class")
    def overlay(self):
        return generate_scenario(self.CONFIG).overlay

    @staticmethod
    def assert_ordered_match(csr, neighbors):
        """Labels equal pure's, in the kernel's documented dict order:
        the source, then width-descending, then ``repr`` rank."""
        batch = batched_trees(csr, csr.nodes, order=SHORTEST_WIDEST)
        for source, labels in zip(csr.nodes, batch):
            expected = shortest_widest_tree(neighbors, source)
            order = sorted(
                (node for node in expected if node != source),
                key=lambda n: (-expected[n].quality.bandwidth, csr.index[n]),
            )
            assert list(labels.items()) == [
                (node, expected[node]) for node in [source, *order]
            ], source
        return batch

    def test_directed_overlay(self, overlay):
        nodes = overlay.routing_nodes()
        assert len(nodes) == 51
        csr = CSRGraph.from_adjacency(nodes, overlay.successors)
        batch = self.assert_ordered_match(csr, overlay.successors)
        assert (len(batch), batch.thresholds, batch.restarts) == (51, 405, 0)

    def test_undirected_relaxation(self, overlay):
        """The adjacency ``ServicePathAlgorithm._serialize`` plans over:
        twice the edges, everything reachable, and overlay latencies that
        are sums of shared underlay segments -- so the restart rule of the
        incremental phase 2 fires on a real input."""
        neighbors = undirected_relaxation(overlay)
        csr = CSRGraph.from_adjacency(overlay.routing_nodes(), neighbors)
        assert csr.num_edges == 836
        batch = self.assert_ordered_match(csr, neighbors)
        assert (len(batch), batch.thresholds) == (51, 807)
        assert batch.restarts >= 1


class TestIncrementalPhaseTwo:
    """The carried-label pass against pure, where carrying is hardest."""

    def test_parent_improves_but_child_compares_worse(self):
        """``a < b`` yet ``a + l == b + l``: at width 5 ``u`` improves from
        the direct route (latency b, 1 hop) to the detour (latency a, 2
        hops), but ``v``'s label re-derived from it has the *same* latency
        and one hop more.  Dijkstra on the width-5 subgraph knows only the
        detour, so ``v`` and ``t`` must take the longer path; a pass that
        kept ``v``'s carried label would be one hop short."""
        s, t, u, v, x = (ServiceInstance("N", i) for i in range(5))
        a1, a2, one = 0.25, 0.05, 1.0
        a = a1 + a2
        b = math.nextafter(a, math.inf)
        assert a < b and a + one == b + one
        overlay = OverlayGraph()
        overlay.add_link(s, u, PathQuality(10.0, b))
        overlay.add_link(u, v, PathQuality(10.0, one))
        overlay.add_link(s, x, PathQuality(10.0, a1))
        overlay.add_link(x, u, PathQuality(5.0, a2))
        overlay.add_link(v, t, PathQuality(5.0, one))
        nodes = overlay.routing_nodes()
        assert_kernel_matches_pure(overlay, overlay.successors, nodes)
        csr = CSRGraph.from_adjacency(nodes, overlay.successors)
        batch = batched_trees(csr, (s,), order=SHORTEST_WIDEST)
        labels = batch[0]
        assert labels[v] == RouteLabel(PathQuality(10.0, b + one), 2, (s, u, v))
        assert labels[t] == RouteLabel(
            PathQuality(5.0, (a + one) + one), 4, (s, x, u, v, t)
        )
        assert batch.restarts == 1

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.sampled_from((False, True, True, True)),
                    st.sampled_from((1.0, 2.0, 3.0, math.inf)),
                    st.integers(min_value=0, max_value=3),
                ),
                min_size=n * n,
                max_size=n * n,
            )
        )
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_tie_heavy_digraphs(self, cells):
        """Few distinct bandwidths, small integer latencies including
        zero-latency co-location links, a quarter of the pairs missing:
        nearly every comparison is a tie on something."""
        n = math.isqrt(len(cells))
        adjacency = {u: [] for u in range(n)}
        for index, (present, bandwidth, latency) in enumerate(cells):
            u, v = divmod(index, n)
            if present and u != v:
                adjacency[u].append((v, PathQuality(bandwidth, float(latency))))
        assert_kernel_matches_pure(None, adjacency.__getitem__, list(range(n)))

    def test_unlabelled_member_raises(self, monkeypatch):
        """A member phase 2 failed to label is a broken invariant, not a
        shorter tree: corrupt the scratch so one node's label stamp never
        sticks and the build must refuse to return."""
        a = ServiceInstance("A", 0)
        m1 = ServiceInstance("M", 1)
        m2 = ServiceInstance("M", 2)
        z = ServiceInstance("Z", 9)
        overlay = OverlayGraph()
        for mid in (m1, m2):
            overlay.add_link(a, mid, PathQuality(10.0, 1.0))
            overlay.add_link(mid, z, PathQuality(10.0, 1.0))
        csr = CSRGraph.from_adjacency(overlay.routing_nodes(), overlay.successors)
        victim = csr.index[z]

        class Forgetful(list):
            def __setitem__(self, index, value):
                if index != victim:
                    super().__setitem__(index, value)

        real = kernel._Scratch

        def corrupted(n, batch):
            scratch = real(n, batch)
            scratch.mark = Forgetful(scratch.mark)
            return scratch

        monkeypatch.setattr(kernel, "_Scratch", corrupted)
        with pytest.raises(RuntimeError, match="unlabelled"):
            batched_trees(csr, (a,), order=SHORTEST_WIDEST)


class TestTieBreaks:
    def test_equal_cost_paths_pick_smallest_repr_path(self):
        """Two equal-(bandwidth, latency, hops) branches: the label must
        carry the lexicographically smallest path under repr order, in
        both implementations."""
        a = ServiceInstance("A", 0)
        m1 = ServiceInstance("M", 1)
        m2 = ServiceInstance("M", 2)
        z = ServiceInstance("Z", 9)
        overlay = OverlayGraph()
        overlay.add_link(a, m2, PathQuality(10.0, 1.0))
        overlay.add_link(a, m1, PathQuality(10.0, 1.0))
        overlay.add_link(m2, z, PathQuality(10.0, 1.0))
        overlay.add_link(m1, z, PathQuality(10.0, 1.0))
        nodes = overlay.routing_nodes()
        assert_kernel_matches_pure(overlay, overlay.successors, nodes)
        csr = CSRGraph.from_adjacency(nodes, overlay.successors)
        for order in (SHORTEST_WIDEST, WIDEST_SHORTEST):
            labels = batched_trees(csr, (a,), order=order)[0]
            assert labels[z].path == (a, m1, z), order


class TestCSRGraph:
    def test_rows_are_bandwidth_descending(self):
        """The usable view's per-row bandwidth-descending layout is what
        makes threshold sweeps prefix walks; guard the invariant."""
        underlay = Underlay.generate(
            UnderlayConfig(n=20, model="waxman", seed=7)
        )
        csr = CSRGraph.from_adjacency(
            underlay.routing_nodes(), underlay.neighbors
        )
        indptr, _, _, ebw = csr.usable_view()
        for u in range(csr.n):
            row = ebw[indptr[u] : indptr[u + 1]]
            assert row == sorted(row, reverse=True)

    def test_activation_order_is_lazy_and_descending(self):
        """Every usable edge once, widest first, each with its own tail;
        built by the first shortest-widest tree and by nothing else."""
        underlay = Underlay.generate(
            UnderlayConfig(n=20, model="waxman", seed=7)
        )
        nodes = underlay.routing_nodes()
        csr = CSRGraph.from_adjacency(nodes, underlay.neighbors)
        batched_trees(csr, nodes, order=WIDEST_SHORTEST)
        assert csr._activation is None
        batched_trees(csr, nodes[:1], order=SHORTEST_WIDEST)
        tails, slots, neg_bw = csr._activation
        indptr, _, _, ebw = csr.usable_view()
        assert sorted(slots) == list(range(len(ebw)))
        assert neg_bw == sorted(neg_bw) == [-ebw[j] for j in slots]
        assert all(indptr[u] <= j < indptr[u + 1] for u, j in zip(tails, slots))

    def test_rejects_non_injective_reprs(self):
        class Opaque:
            def __init__(self, tag):
                self.tag = tag

            def __repr__(self):
                return "Opaque()"  # identical for all instances

        nodes = [Opaque("x"), Opaque("y")]
        with pytest.raises(ValueError, match="not unique"):
            CSRGraph.from_adjacency(nodes, lambda n: iter(()))

    def test_rejects_out_of_universe_neighbors(self):
        a = ServiceInstance("A", 0)
        b = ServiceInstance("B", 1)

        def neighbors(node):
            yield b, PathQuality(1.0, 1.0)

        with pytest.raises(ValueError, match="outside"):
            CSRGraph.from_adjacency([a], neighbors)

    def test_batched_trees_unknown_source(self):
        a = ServiceInstance("A", 0)
        stranger = ServiceInstance("B", 1)
        csr = CSRGraph.from_adjacency([a], lambda n: iter(()))
        with pytest.raises(KeyError):
            batched_trees(csr, (stranger,))

    def test_batched_trees_unknown_order(self):
        a = ServiceInstance("A", 0)
        csr = CSRGraph.from_adjacency([a], lambda n: iter(()))
        with pytest.raises(ValueError, match="order"):
            batched_trees(csr, (a,), order="bogus")


class TestSnapshot:
    def test_snapshot_of_overlay(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=20, n_services=3, seed=1)
        )
        csr = snapshot(scenario.overlay)
        assert csr is not None
        assert csr.nodes == scenario.overlay.routing_nodes()
        assert csr.n == len(scenario.overlay.routing_nodes())

    def test_snapshot_without_export_hook(self):
        class Bare:
            def successors(self, node):
                return iter(())

        assert snapshot(Bare()) is None


class TestAffectedSources:
    def test_only_sources_crossing_touched_elements(self):
        a = ServiceInstance("A", 0)
        b = ServiceInstance("B", 1)
        c = ServiceInstance("C", 2)
        overlay = OverlayGraph()
        overlay.add_link(a, b, PathQuality(10.0, 1.0))
        overlay.add_link(b, c, PathQuality(10.0, 1.0))
        overlay.add_link(c, a, PathQuality(10.0, 1.0))
        oracle = RouteOracle()
        for source in (a, b, c):
            oracle.tree(overlay, source)
        cut = overlay.with_links({(b, c): None})
        oracle.derive(overlay, cut, removed_links=[(b, c)])
        kept = oracle.cached_sources(cut)
        # Every tree that routes through b -> c is affected; c's own tree
        # reaches a and b without that link.
        assert a not in kept and b not in kept
        assert c in kept
