"""Property tests: the CSR kernel is label-for-label identical to pure.

The exactness contract of :mod:`repro.routing.kernel`: for every source,
:func:`~repro.routing.kernel.batched_trees` returns the same label dict
(bandwidth, latency, hops, *and* the deterministic tie-break path) as the
pure reference ``shortest_widest_tree`` of
``tests/oracles/wang_crowcroft.py``, and
:func:`~repro.routing.kernel.batched_prices` the qualities of the pure
``shortest_widest_tree`` / ``widest_shortest_tree`` labels, over seeded
generated topologies including zero-bandwidth and unreachable links, a
filled overlay of the workload's shape (directed and undirected), a
hand-built case where float addition is not strictly monotone, and
tie-heavy random digraphs -- as full rows and as ``targets=`` rows
(``tests/oracles/routing.py`` draws the subsets).  Phase 1 of a
bandwidth-symmetric snapshot (one Kruskal pass) is held to the heap's, and
the two cuts that must not move a label or a price -- the reach-filtered
activation walk and widest-shortest rows without their dominated edges --
are held to pure on hand-built graphs at their edges.
"""

import math

import numpy as np
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
    batched_prices,
    batched_trees,
    snapshot,
)
from repro.routing.oracle import RouteOracle
from repro.routing.wang_crowcroft import RouteLabel
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.routing import (
    assert_kernel_matches_pure,
    assert_pair_widths_match_heap,
    assert_prices_match_pure,
)
from tests.oracles.wang_crowcroft import shortest_widest_tree, widest_shortest_tree

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
        """The overlay's undirected relaxation as a kernel input: twice
        the edges, everything reachable, and overlay latencies that are
        sums of shared underlay segments -- so the restart rule of the
        incremental phase 2 fires on a real input."""
        neighbors = undirected_relaxation(overlay)
        csr = CSRGraph.from_adjacency(overlay.routing_nodes(), neighbors)
        assert csr.num_edges == 836
        batch = self.assert_ordered_match(csr, neighbors)
        assert (len(batch), batch.thresholds) == (51, 807)
        assert batch.restarts >= 1
        assert assert_pair_widths_match_heap(csr)

    def test_undirected_hop_rows(self, overlay):
        """The undirected relaxation's rows, every pool's at every other
        pool.  Same labels in the same order as the full tree's, fewer
        widths stepped through, and the restart rule still fires."""
        neighbors = undirected_relaxation(overlay)
        csr = CSRGraph.from_adjacency(overlay.routing_nodes(), neighbors)
        pools = [overlay.instances_of(sid) for sid in overlay.sids()]
        thresholds = restarts = 0
        for sources in pools:
            full = batched_trees(csr, sources, order=SHORTEST_WIDEST)
            for pool in pools:
                batch = batched_trees(
                    csr, sources, order=SHORTEST_WIDEST, targets=pool
                )
                thresholds += batch.thresholds
                restarts += batch.restarts
                for source, row, tree in zip(sources, batch, full):
                    assert list(row.items()) == [
                        (node, label)
                        for node, label in tree.items()
                        if node == source or node in pool
                    ], (source, pool[0].sid)
                    assert row == shortest_widest_tree(
                        neighbors, source, targets=pool
                    )
        assert thresholds < 6 * 807
        assert restarts >= 1


def non_isotone_overlay():
    """Where float addition is not strictly monotone: ``a < b`` yet
    ``a + one == b + one``.  Returns the overlay, its nodes ``(s, t, u, v,
    x)`` and ``(a, b, one)``."""
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
    return overlay, (s, t, u, v, x), (a, b, one)


class TestIncrementalPhaseTwo:
    """The carried-label pass against pure, where carrying is hardest."""

    def test_parent_improves_but_child_compares_worse(self):
        """``a < b`` yet ``a + l == b + l``: at width 5 ``u`` improves from
        the direct route (latency b, 1 hop) to the detour (latency a, 2
        hops), but ``v``'s label re-derived from it has the *same* latency
        and one hop more.  Dijkstra on the width-5 subgraph knows only the
        detour, so ``v`` and ``t`` must take the longer path; a pass that
        kept ``v``'s carried label would be one hop short."""
        overlay, (s, t, u, v, x), (a, b, one) = non_isotone_overlay()
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
        # Asked for t alone the walk has one step, width 5, and activates
        # the width-10 edges with it: v still gets the stale label first.
        batch = batched_trees(csr, (s,), order=SHORTEST_WIDEST, targets=(t,))
        assert batch[0] == {s: labels[s], t: labels[t]}
        assert (batch.thresholds, batch.restarts) == (1, 1)

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
        labels = batched_trees(csr, (a,), order=SHORTEST_WIDEST)[0]
        assert labels[z].path == (a, m1, z)
        for order in (SHORTEST_WIDEST, WIDEST_SHORTEST):
            assert batched_prices(csr, (a,), (z,), order=order) == [{z: (10.0, 2.0)}]


class TestPrices:
    """``batched_prices`` -- the pathless pass -- against the pure rows'
    qualities, where the tree pass needs its restart rule and at the edges
    of the contract."""

    def test_parent_improves_but_child_compares_worse(self):
        """The case that restarts the tree pass is a tie for a latency: the
        carried labels are the prices, with nothing redone."""
        overlay, (s, t, u, v, x), (a, b, one) = non_isotone_overlay()
        nodes = overlay.routing_nodes()
        assert assert_prices_match_pure(overlay.successors, nodes) > 0
        csr = CSRGraph.from_adjacency(nodes, overlay.successors)
        assert batched_trees(csr, (s,), targets=(v, t)).restarts == 1
        assert batched_prices(csr, (s,), (v, t)) == [
            {v: (10.0, b + one), t: (5.0, (a + one) + one)}
        ]

    def test_widest_shortest_prices_are_the_trees_not_the_best_paths(self):
        """The same float case in the widest-shortest order: ``u`` settles
        on the detour (latency ``a``, width 5), so ``v`` is priced from it
        at width 5 -- though the direct route reaches ``v`` at the very
        same latency and width 10.  The price is the tree label's quality,
        which no pass that compared whole paths would return."""
        overlay, (s, t, u, v, x), (a, b, one) = non_isotone_overlay()
        nodes = overlay.routing_nodes()
        assert b + one == a + one
        csr = CSRGraph.from_adjacency(nodes, overlay.successors)
        assert batched_prices(csr, (s,), (u, v, t), order=WIDEST_SHORTEST) == [
            {u: (5.0, a), v: (5.0, a + one), t: (5.0, (a + one) + one)}
        ]
        assert assert_prices_match_pure(
            overlay.successors, nodes, order=WIDEST_SHORTEST
        ) > 0

    def test_a_source_that_is_a_target(self):
        """Priced at its own label's quality, ``IDEAL``; not priced when
        it is not asked for, though a tree row always holds it."""
        overlay, (s, t, *_), _ = non_isotone_overlay()
        csr = CSRGraph.from_adjacency(overlay.routing_nodes(), overlay.successors)
        tree = batched_trees(csr, (s,), targets=(s, t))[0]
        (row,) = batched_prices(csr, (s,), (s, t))
        assert row == {
            node: (label.quality.bandwidth, label.quality.latency)
            for node, label in tree.items()
        }
        assert row[s] == (math.inf, 0.0)
        assert batched_prices(csr, (s,), (t,))[0] == {t: row[t]}
        assert batched_prices(csr, (s,), ()) == [{}]
        for targets in ((s, t), (s,), ()):
            assert batched_prices(csr, (s,), targets, order=WIDEST_SHORTEST) == [
                {
                    node: (label.quality.bandwidth, label.quality.latency)
                    for node, label in widest_shortest_tree(
                        overlay.successors, s, targets=targets
                    ).items()
                    if node in targets
                }
            ]

    def test_a_source_outside_the_snapshot(self):
        """The kernel refuses it, as ``batched_trees`` does; the oracle
        gives it its lone price (``tests/routing/test_oracle.py``)."""
        overlay, (s, t, *_), _ = non_isotone_overlay()
        csr = CSRGraph.from_adjacency(overlay.routing_nodes(), overlay.successors)
        for order in (SHORTEST_WIDEST, WIDEST_SHORTEST):
            with pytest.raises(KeyError):
                batched_prices(csr, (s, ServiceInstance("Q", 0)), (t,), order=order)

    def test_unreachable_targets_are_absent(self):
        """A target behind unusable links only, an isolated one, a target
        the snapshot does not know and one the source reaches only
        against link direction get no price; a reachable one still does,
        and under either phase 1."""
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
        csr = CSRGraph.from_adjacency(nodes, overlay.successors)
        assert csr.pair_widths() is None  # directed: the heap's phase 1
        outsider = ServiceInstance("Q", 0)
        asked = (b, c, d, f, outsider)
        assert batched_prices(csr, (a, e), asked) == [
            {b: (10.0, 1.0), d: (3.0, 5.0)},
            {d: (3.0, 1.0)},
        ]
        undirected = undirected_relaxation(overlay)
        csr = CSRGraph.from_adjacency(nodes, undirected)
        assert csr.pair_widths() is not None  # symmetric: the Kruskal matrix
        assert batched_prices(csr, (e,), asked) == [  # c, b backwards now
            {b: (3.0, 5.0), c: (3.0, 3.0), d: (3.0, 1.0)},
        ]
        assert assert_prices_match_pure(overlay.successors, nodes) > 0
        assert assert_prices_match_pure(undirected, nodes) > 0
        assert batched_prices(csr, (e,), asked, order=WIDEST_SHORTEST) == [
            {b: (3.0, 5.0), c: (3.0, 3.0), d: (3.0, 1.0)},
        ]
        for neighbors in (overlay.successors, undirected):
            assert assert_prices_match_pure(neighbors, nodes, order=WIDEST_SHORTEST) > 0


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
        built by the first shortest-widest tree, never by widest-shortest
        prices."""
        underlay = Underlay.generate(
            UnderlayConfig(n=20, model="waxman", seed=7)
        )
        nodes = underlay.routing_nodes()
        csr = CSRGraph.from_adjacency(nodes, underlay.neighbors)
        batched_prices(csr, nodes, nodes, order=WIDEST_SHORTEST)
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
        """Every tree is shortest-widest; a widest-shortest caller reads
        prices.  An order neither pass knows is refused by both."""
        a = ServiceInstance("A", 0)
        csr = CSRGraph.from_adjacency([a], lambda n: iter(()))
        for order in ("bogus", WIDEST_SHORTEST):
            with pytest.raises(ValueError, match="order"):
                batched_trees(csr, (a,), order=order)
        with pytest.raises(ValueError, match="order"):
            batched_prices(csr, (a,), (a,), order="bogus")


def symmetric_adjacency(n, links):
    """``links``: ``(a, b, bandwidth a->b, bandwidth b->a, latency)``."""
    adjacency = {node: [] for node in range(n)}
    for a, b, there, back, latency in links:
        adjacency[a].append((b, PathQuality(there, latency)))
        adjacency[b].append((a, PathQuality(back, latency)))
    return adjacency


def fat_tree_links(k=4):
    """A ``k``-ary fat-tree with one host per edge switch (the shape of
    ``benchmarks/e2e/fattree.py``): three bandwidths, ties everywhere."""
    half = k // 2
    n_core = half * half
    links = []
    host = n_core + 2 * k * half
    for pod in range(k):
        first_agg = n_core + pod * k
        first_edge = first_agg + half
        for a in range(half):
            for c in range(half):
                links.append((a * half + c, first_agg + a, 100.0, 100.0, 1.0))
            for e in range(half):
                links.append((first_agg + a, first_edge + e, 40.0, 40.0, 1.0))
        for e in range(half):
            links.append((first_edge + e, host, 10.0, 10.0, 1.0))
            host += 1
    return host, links


class TestPairWidths:
    """Phase 1 of a bandwidth-symmetric snapshot from one Kruskal pass:
    the matrix equals the heap's widths from every source, as lists."""

    def test_fat_tree(self):
        n, links = fat_tree_links()
        adjacency = symmetric_adjacency(n, links)
        csr = CSRGraph.from_adjacency(range(n), adjacency.__getitem__)
        assert assert_pair_widths_match_heap(csr)
        assert {w for row in csr.pair_widths().tolist() for w in row} == {
            10.0, 40.0, 100.0, math.inf
        }
        assert_kernel_matches_pure(None, adjacency.__getitem__, range(n))

    def test_disconnected_forest_and_colocated_links(self):
        """Two trees and an isolated node (the pass runs out of edges with
        components left over), one of them through a co-located pair: an
        ``inf``-bandwidth link is the widest edge, not a missing one."""
        inf = math.inf
        links = [
            (0, 1, 5.0, 5.0, 1.0), (1, 2, inf, inf, 0.0), (2, 3, 2.0, 2.0, 1.0),
            (4, 5, 7.0, 7.0, 1.0), (5, 6, 7.0, 7.0, 2.0), (4, 6, 3.0, 3.0, 0.5),
        ]
        adjacency = symmetric_adjacency(8, links)
        csr = CSRGraph.from_adjacency(range(8), adjacency.__getitem__)
        assert assert_pair_widths_match_heap(csr)
        widths = csr.pair_widths().tolist()
        assert widths[1][2] == widths[2][1] == inf
        assert widths[0][3] == 2.0 and widths[4][6] == 7.0
        assert widths[0][4] == widths[7][0] == 0.0
        assert_kernel_matches_pure(None, adjacency.__getitem__, range(8))

    def test_symmetric_topology_asymmetric_bandwidth_takes_the_heap(self):
        """Degrees and neighbour sets agree in both directions, one link is
        wider one way: symmetry is observed on bandwidths, so no matrix."""
        links = [(0, 1, 5.0, 5.0, 1.0), (1, 2, 5.0, 4.0, 1.0), (0, 2, 3.0, 3.0, 1.0)]
        adjacency = symmetric_adjacency(3, links)
        csr = CSRGraph.from_adjacency(range(3), adjacency.__getitem__)
        assert csr.pair_widths() is None
        assert [kernel._widest_widths(csr, s) for s in range(3)] == [
            [math.inf, 5.0, 5.0], [5.0, math.inf, 5.0], [4.0, 4.0, math.inf]
        ]
        assert_kernel_matches_pure(None, adjacency.__getitem__, range(3))

    def test_directed_overlay_is_rejected_on_degrees(self, monkeypatch):
        """A layered overlay has sources without in-edges: the in-degree
        test says no before anything is sorted."""
        overlay = generate_scenario(TestFilledOverlay.CONFIG).overlay
        csr = CSRGraph.from_adjacency(overlay.routing_nodes(), overlay.successors)
        monkeypatch.setattr(
            kernel._np, "lexsort", lambda keys: pytest.fail("sorted a directed view")
        )
        assert csr.pair_widths() is None

    def test_built_by_the_first_shortest_widest_tree_only(self):
        underlay = Underlay.generate(UnderlayConfig(n=20, model="waxman", seed=7))
        nodes = underlay.routing_nodes()
        csr = CSRGraph.from_adjacency(nodes, underlay.neighbors)
        batched_prices(csr, nodes, nodes, order=WIDEST_SHORTEST)
        assert csr._symmetric is None and csr._pair_widths is None
        batched_trees(csr, nodes[:1], order=SHORTEST_WIDEST, targets=nodes[1:3])
        assert csr._symmetric is True
        assert assert_pair_widths_match_heap(csr)


class TestReachAndDominance:
    """Two cuts of the cold path that must not move a label or a price: the
    activation walk skips the tails phase 1 never reached, and
    widest-shortest rows leave out the edges a two-hop detour beats by more
    than float error."""

    @staticmethod
    def adjacency(edges):
        rows = {}
        for u, v, bandwidth, latency in edges:
            rows.setdefault(u, []).append((v, PathQuality(bandwidth, latency)))
            rows.setdefault(v, [])
        return rows

    def test_wider_unreachable_component(self):
        """The snapshot's widest edges sit in a component node 0 cannot
        reach, one of them pointing into 0's own: from 0 the walk visits
        only its own component's edges, with the same labels and the same
        steps as before."""
        rows = self.adjacency([
            (0, 1, 5.0, 1.0), (0, 2, 2.0, 0.5), (1, 2, 3.0, 1.0), (2, 3, 5.0, 1.0),
            (4, 5, 100.0, 1.0), (5, 1, 90.0, 1.0), (5, 6, 50.0, 2.0),
            (6, 4, 80.0, 1.0), (6, 3, 60.0, 1.0),
        ])
        nodes = sorted(rows)
        assert_kernel_matches_pure(None, rows.__getitem__, nodes)
        csr = CSRGraph.from_adjacency(nodes, rows.__getitem__)
        batch = batched_trees(csr, nodes, order=SHORTEST_WIDEST)
        assert (batch.thresholds, batch.restarts) == (14, 0)
        tails, _, neg_bw = csr.reached_activation(kernel._widest_widths(csr, 0))
        assert (tails, neg_bw) == ([0, 2, 1, 0], [-5.0, -5.0, -3.0, -2.0])

    def test_a_reach_filtered_tree_still_restarts(self):
        """The float case of ``test_parent_improves_but_child_compares_worse``
        plus a wide edge from a node the source cannot reach: the filtered
        walk makes the same relaxations, so the restart still fires."""
        a = 0.25 + 0.05
        b = math.nextafter(a, math.inf)
        rows = self.adjacency([
            ("s", "u", 10.0, b), ("u", "v", 10.0, 1.0), ("s", "x", 10.0, 0.25),
            ("x", "u", 5.0, 0.05), ("v", "t", 5.0, 1.0), ("y", "u", 20.0, 0.0),
        ])
        nodes = sorted(rows)
        csr = CSRGraph.from_adjacency(nodes, rows.__getitem__)
        assert 0.0 in kernel._widest_widths(csr, csr.index["s"])
        batch = batched_trees(csr, ("s",), order=SHORTEST_WIDEST)
        assert batch[0]["t"].path == ("s", "x", "u", "v", "t")
        assert (batch.thresholds, batch.restarts) == (2, 1)
        assert_kernel_matches_pure(None, rows.__getitem__, nodes)

    def test_a_targeted_directed_row_walks_every_edge(self, monkeypatch):
        """Phase 1 of this row stops once ``t`` settles, before ``u``, so it
        never reaches ``x``; yet the one step's activation labels ``u``,
        then ``x``, then relaxes ``x -> y``.  A filter on that phase 1 would
        drop the edge from the walk, so such a row is not filtered."""
        rows = self.adjacency([
            ("s", "a", 10.0, 1.0), ("s", "t", 2.0, 1.0), ("a", "u", 2.0, 1.0),
            ("u", "x", 2.0, 1.0), ("x", "y", 2.0, 1.0),
        ])
        csr = CSRGraph.from_adjacency(sorted(rows), rows.__getitem__)
        wanted = [csr.index["t"]]
        assert kernel._widest_widths(csr, csr.index["s"], wanted)[csr.index["x"]] == 0.0
        monkeypatch.setattr(
            CSRGraph, "reached_activation", lambda *a: pytest.fail("filtered")
        )
        row = batched_trees(csr, ("s",), order=SHORTEST_WIDEST, targets=("t",))[0]
        assert row == shortest_widest_tree(rows.__getitem__, "s", targets=("t",))

    @staticmethod
    def assert_rows(edges, source_latency=1.0):
        """Labels and prices equal pure's from every source on ``edges`` led
        into by a ``("s", "u")`` edge of ``source_latency``; returns ``u``'s
        row."""
        rows = TestReachAndDominance.adjacency(
            [("s", "u", 100.0, source_latency), *edges]
        )
        nodes = sorted(rows)
        assert_kernel_matches_pure(None, rows.__getitem__, nodes)
        csr = CSRGraph.from_adjacency(nodes, rows.__getitem__)
        return [
            (csr.nodes[head], latency, bandwidth)
            for head, latency, bandwidth in csr.edge_rows()[csr.index["u"]]
        ]

    def test_an_edge_beaten_far_by_a_detour_is_dropped(self):
        row = self.assert_rows(
            [("u", "v", 20.0, 10.0), ("u", "w", 10.0, 1.0), ("w", "v", 10.0, 1.0)]
        )
        assert row == [("w", 1.0, 10.0)]

    def test_an_edge_tied_by_a_detour_is_kept(self):
        """The direct edge ties the detour's latency and is wider: it wins
        the tie, so it has to stay."""
        row = self.assert_rows(
            [("u", "v", 20.0, 2.0), ("u", "w", 10.0, 1.0), ("w", "v", 10.0, 1.0)]
        )
        assert row == [("v", 2.0, 20.0), ("w", 1.0, 10.0)]

    def test_an_edge_beaten_by_one_ulp_is_kept(self):
        """From ``u`` the detour is one ulp shorter; from ``s``, 1000 away,
        rounding makes the two equal and the wider direct edge wins."""
        a, b, far = 0.25, 0.05, 1000.0
        c = math.nextafter(a + b, math.inf)
        assert far + c == (far + a) + b
        row = self.assert_rows(
            [("u", "v", 20.0, c), ("u", "w", 10.0, a), ("w", "v", 10.0, b)],
            source_latency=far,
        )
        assert row == [("v", c, 20.0), ("w", a, 10.0)]


class TestSnapshot:
    def test_snapshot_of_overlay(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=20, n_services=3, seed=1)
        )
        csr = snapshot(scenario.overlay)
        assert csr.nodes == scenario.overlay.routing_nodes()
        assert csr.n == len(scenario.overlay.routing_nodes())

    @staticmethod
    def assert_equal_arrays(csr, walked):
        assert csr.nodes == walked.nodes
        for name in ("indptr", "indices", "bandwidth", "latency"):
            got, want = getattr(csr, name), getattr(walked, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("model", ["waxman", "erdos_renyi", "barabasi_albert", "ring", "grid"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_underlay_snapshot_is_the_adjacency_walk(self, model, seed, monkeypatch):
        """An underlay's ``neighbors`` snapshot is read off its link table,
        array for array the walk of its adjacency: ranks in ``repr`` order
        (``10`` before ``2``), each row in link insertion order."""
        underlay = Underlay.generate(UnderlayConfig(n=23, model=model, seed=seed))
        walked = CSRGraph.from_adjacency(underlay.routing_nodes(), underlay.neighbors)
        monkeypatch.setattr(CSRGraph, "from_adjacency", None)  # not walked again
        for csr in (snapshot(underlay), snapshot(underlay, underlay.neighbors)):
            self.assert_equal_arrays(csr, walked)

    def test_underlay_rows_keep_link_insertion_order(self):
        underlay = Underlay(12)
        for u, v, bandwidth in ((11, 3, 1.0), (3, 0, 2.0), (10, 3, 3.0), (0, 11, 4.0)):
            underlay.add_link(u, v, bandwidth, float(u + v))
        csr = snapshot(underlay)
        self.assert_equal_arrays(
            csr, CSRGraph.from_adjacency(underlay.routing_nodes(), underlay.neighbors)
        )
        row = csr.index[3]
        heads = csr.indices[csr.indptr[row]:csr.indptr[row + 1]]
        assert [csr.nodes[j] for j in heads] == [11, 0, 10]

    def test_another_view_of_an_underlay_is_walked(self):
        underlay = Underlay.generate(UnderlayConfig(n=12, seed=2))

        def sparse(node):
            return ((other, m) for other, m in underlay.neighbors(node) if other > node)

        self.assert_equal_arrays(
            snapshot(underlay, sparse),
            CSRGraph.from_adjacency(underlay.routing_nodes(), sparse),
        )

    def test_snapshot_without_export_hook(self):
        """No universe, no snapshot -- and no second path to fall back to."""

        class Bare:
            def successors(self, node):
                return iter(())

        with pytest.raises(TypeError, match="routing_nodes"):
            snapshot(Bare())
        with pytest.raises(TypeError, match="routing_nodes"):
            RouteOracle().tree(Bare(), "a")


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
