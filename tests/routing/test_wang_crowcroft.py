"""Tests for shortest-widest (and widest-shortest) routing.

The key test cross-validates the pure reference trees the kernel is held
to (``tests/oracles/wang_crowcroft.py``) against brute-force path
enumeration on random graphs: for every reachable target, the label must
equal the best quality over *all* simple paths under the corresponding
lexicographic order.  Single pairs and all pairs are asked of the route
oracle, which is how the package answers them.
"""

import ast
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.metrics import IDEAL, UNREACHABLE, PathQuality
from repro.routing.oracle import RouteOracle
from repro.routing.wang_crowcroft import RouteLabel, extract_path
from tests.oracles import wang_crowcroft as reference
from tests.oracles.wang_crowcroft import shortest_widest_tree, widest_shortest_tree


def adjacency(edges):
    """Build a neighbor function from {(u, v): PathQuality} directed edges."""
    table = {}
    for (u, v), q in edges.items():
        table.setdefault(u, []).append((v, q))

    def neighbors(u):
        return table.get(u, [])

    return neighbors


class Graph:
    """``edges`` as a graph the oracle can snapshot."""

    def __init__(self, edges):
        self.successors = adjacency(edges)
        self.routing_nodes = lambda: tuple({node for pair in edges for node in pair})


def shortest_widest_path(edges, source, target):
    """``(quality, path)`` of one pair, read off the oracle's targeted row."""
    labels = RouteOracle().tree(Graph(edges), source, targets=frozenset((target,)))
    if target not in labels:
        return UNREACHABLE, []
    return labels[target].quality, extract_path(labels, source, target)


def enumerate_paths(edges, src, dst, max_nodes):
    """All simple paths src -> dst with their qualities (brute force)."""
    nbrs = adjacency(edges)
    results = []

    def walk(node, visited, quality):
        if node == dst:
            results.append((quality, list(visited)))
            return
        for nxt, link in nbrs(node):
            if nxt in visited:
                continue
            visited.append(nxt)
            walk(nxt, visited, quality.extend(link))
            visited.pop()

    walk(src, [src], IDEAL)
    return results


class TestBasics:
    def test_source_label_is_ideal(self):
        labels = shortest_widest_tree(adjacency({}), "s")
        assert labels["s"].quality == IDEAL
        assert labels["s"].hops == 0
        assert labels["s"].predecessor is None

    def test_single_edge(self):
        edges = {("s", "t"): PathQuality(5, 2)}
        quality, path = shortest_widest_path(edges, "s", "t")
        assert quality == PathQuality(5, 2)
        assert path == ["s", "t"]

    def test_unreachable_target(self):
        edges = {("s", "a"): PathQuality(5, 2)}
        quality, path = shortest_widest_path(edges, "s", "zzz")
        assert quality == UNREACHABLE
        assert path == []

    def test_prefers_wider_over_shorter(self):
        edges = {
            ("s", "t"): PathQuality(1, 1),
            ("s", "m"): PathQuality(10, 5),
            ("m", "t"): PathQuality(10, 5),
        }
        quality, path = shortest_widest_path(edges, "s", "t")
        assert path == ["s", "m", "t"]
        assert quality == PathQuality(10, 10)

    def test_breaks_bandwidth_ties_by_latency(self):
        edges = {
            ("s", "a"): PathQuality(10, 5),
            ("a", "t"): PathQuality(10, 5),
            ("s", "b"): PathQuality(10, 1),
            ("b", "t"): PathQuality(10, 1),
        }
        quality, path = shortest_widest_path(edges, "s", "t")
        assert path == ["s", "b", "t"]
        assert quality == PathQuality(10, 2)

    def test_breaks_full_ties_by_hop_count(self):
        edges = {
            ("s", "t"): PathQuality(10, 2),
            ("s", "m"): PathQuality(10, 1),
            ("m", "t"): PathQuality(10, 1),
        }
        quality, path = shortest_widest_path(edges, "s", "t")
        assert quality == PathQuality(10, 2)
        assert path == ["s", "t"]  # fewer hops wins the exact tie

    def test_zero_bandwidth_links_are_ignored(self):
        edges = {("s", "t"): PathQuality(0.0, 1)}
        quality, path = shortest_widest_path(edges, "s", "t")
        assert quality == UNREACHABLE

    def test_nodes_argument_adds_unreachable_labels(self):
        labels = shortest_widest_tree(
            adjacency({("s", "a"): PathQuality(1, 1)}), "s", nodes=["s", "a", "x"]
        )
        assert labels["x"].quality == UNREACHABLE
        assert not labels["x"].reachable

    def test_extract_path_of_unreached_is_empty(self):
        labels = shortest_widest_tree(
            adjacency({("s", "a"): PathQuality(1, 1)}), "s", nodes=["s", "a", "x"]
        )
        assert extract_path(labels, "s", "x") == []

    def test_widest_path_bandwidth_helper(self):
        edges = {
            ("s", "m"): PathQuality(10, 5),
            ("m", "t"): PathQuality(7, 5),
        }
        quality, _ = shortest_widest_path(edges, "s", "t")
        assert quality.bandwidth == 7


def all_pairs(edges, nodes):
    """Every source's row, warmed as one batch and then read back."""
    graph, oracle = Graph(edges), RouteOracle()
    assert oracle.warm(graph, nodes) == len(nodes)
    return {src: oracle.tree(graph, src) for src in nodes}


class TestAllPairs:
    def test_all_pairs_matches_single_source(self):
        edges = {
            ("a", "b"): PathQuality(3, 1),
            ("b", "c"): PathQuality(5, 1),
            ("a", "c"): PathQuality(2, 1),
        }
        nodes = ["a", "b", "c"]
        table = all_pairs(edges, nodes)
        for src in nodes:
            single = shortest_widest_tree(adjacency(edges), src, nodes=nodes)
            for dst in nodes:
                if single[dst].reachable:
                    assert table[src][dst] == single[dst]
                else:
                    assert dst not in table[src]

    def test_all_pairs_includes_every_node(self):
        edges = {("a", "b"): PathQuality(3, 1)}
        table = all_pairs(edges, ["a", "b"])
        assert set(table) == {"a", "b"}
        assert set(table["a"]) == {"a", "b"}


random_graphs = st.builds(
    lambda n, density, seed: _random_graph(n, density, seed),
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=0.2, max_value=0.9),
    st.integers(min_value=0, max_value=10_000),
)


def _random_graph(n, density, seed):
    rng = random.Random(seed)
    edges = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                edges[(u, v)] = PathQuality(
                    float(rng.randint(1, 6)), float(rng.randint(1, 6))
                )
    return n, edges


class TestAgainstBruteForce:
    @given(random_graphs)
    @settings(max_examples=60, deadline=None)
    def test_shortest_widest_matches_enumeration(self, graph):
        n, edges = graph
        labels = shortest_widest_tree(adjacency(edges), 0, nodes=range(n))
        for dst in range(1, n):
            paths = enumerate_paths(edges, 0, dst, n)
            if not paths:
                assert not labels[dst].reachable
                continue
            best = max(q for q, _ in paths)
            assert labels[dst].quality == best
            # The returned path must realise the claimed quality.
            path = extract_path(labels, 0, dst)
            realised = IDEAL
            for u, v in zip(path, path[1:]):
                realised = realised.extend(edges[(u, v)])
            assert realised == best

    @given(random_graphs)
    @settings(max_examples=40, deadline=None)
    def test_widest_shortest_matches_enumeration(self, graph):
        n, edges = graph
        labels = widest_shortest_tree(adjacency(edges), 0, nodes=range(n))
        for dst in range(1, n):
            paths = enumerate_paths(edges, 0, dst, n)
            if not paths:
                assert not labels[dst].reachable
                continue
            best = min((q.latency, -q.bandwidth) for q, _ in paths)
            got = labels[dst].quality
            assert (got.latency, -got.bandwidth) == pytest.approx(best)

    @given(random_graphs)
    @settings(max_examples=30, deadline=None)
    def test_deterministic_across_runs(self, graph):
        n, edges = graph
        first = shortest_widest_tree(adjacency(edges), 0, nodes=range(n))
        second = shortest_widest_tree(adjacency(edges), 0, nodes=range(n))
        assert {
            k: (v.quality, v.hops, v.predecessor) for k, v in first.items()
        } == {k: (v.quality, v.hops, v.predecessor) for k, v in second.items()}


class TestTargetedSearches:
    """The ``targets=`` early-termination must never leak tentative values.

    Regression: a truncated max-bottleneck search reaches nodes it never
    settles; their dict entries are underestimates.  A caller reading a
    non-target key must get *no* entry rather than a plausible-looking
    wrong one.
    """

    # a -> b is wide, a -> d is narrow, but d's true widest path detours
    # through b; a search targeting only b settles before fixing d.
    EDGES = {
        ("a", "b"): PathQuality(10.0, 1.0),
        ("a", "d"): PathQuality(5.0, 1.0),
        ("b", "d"): PathQuality(8.0, 1.0),
    }

    def test_widest_bandwidths_returns_only_settled_entries(self):
        width = reference.widest_bandwidths(adjacency(self.EDGES), "a", targets=("b",))
        assert width["b"] == 10.0
        # d was reached with tentative width 5.0 (true value: 8.0); the
        # truncated search must not expose it at all.
        assert "d" not in width
        full = reference.widest_bandwidths(adjacency(self.EDGES), "a")
        assert full["d"] == 8.0
        for node, w in width.items():
            assert full[node] == w

    def test_shortest_widest_tree_targets_hide_unsettled_nodes(self):
        labels = shortest_widest_tree(
            adjacency(self.EDGES), "a", targets=("b",)
        )
        assert set(labels) == {"a", "b"}
        full = shortest_widest_tree(adjacency(self.EDGES), "a")
        assert labels["b"] == full["b"]

    def test_widest_shortest_tree_targets_hide_unsettled_nodes(self):
        # Latency ordering: targeting "b" stops before "d" settles.
        edges = {
            ("a", "b"): PathQuality(10.0, 1.0),
            ("a", "d"): PathQuality(5.0, 9.0),
            ("b", "d"): PathQuality(8.0, 1.0),
        }
        labels = widest_shortest_tree(adjacency(edges), "a", targets=("b",))
        assert set(labels) == {"a", "b"}
        full = widest_shortest_tree(adjacency(edges), "a")
        assert labels["b"] == full["b"]

    def test_targeted_labels_match_full_run(self):
        for targets in (("b",), ("d",), ("b", "d")):
            labels = shortest_widest_tree(
                adjacency(self.EDGES), "a", targets=targets
            )
            full = shortest_widest_tree(adjacency(self.EDGES), "a")
            for node, label in labels.items():
                assert label == full[node]


def test_the_reference_shares_only_the_label_type_with_the_package():
    """What the kernel is held to must not be built from the kernel: the
    reference takes from ``repro`` the label and adjacency types and the
    path metrics, nothing else."""
    taken = {}
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.Import):
            taken.update((alias.name, set()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = taken.setdefault("." * node.level + (node.module or ""), set())
            names.update(alias.name for alias in node.names)
    ours = {module: names for module, names in taken.items() if module.startswith("repro")}
    assert ours.keys() == {"repro.routing.wang_crowcroft", "repro.network.metrics"}
    assert ours["repro.routing.wang_crowcroft"] == {"RouteLabel", "Node", "NeighborFn"}
    assert not any(module.startswith((".", "tests")) for module in taken)


class TestRouteLabel:
    def test_slotted_with_a_default_path(self):
        label = RouteLabel(PathQuality(2.0, 1.0), 0)
        assert label.path == ()
        assert not hasattr(label, "__dict__")
        with pytest.raises(AttributeError):
            label.hops = 1  # type: ignore[misc]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        label = RouteLabel(PathQuality(2.0, 1.5), 2, ("a", "b", "c"))
        back = pickle.loads(pickle.dumps(label, protocol))
        assert back == label and type(back) is RouteLabel
        assert back.path == ("a", "b", "c") and back.quality == PathQuality(2.0, 1.5)
