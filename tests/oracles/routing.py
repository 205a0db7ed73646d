"""The pure Wang-Crowcroft tree functions as the routing kernel's reference:
its shortest-widest trees' labels, and its prices' ``(bandwidth, latency)``
floats in either order -- and the undirected view the route oracle derives
from a snapshot, as the adjacency walk it replaces."""

import inspect
import random
import textwrap

from repro.network.metrics import IDEAL
from repro.routing import kernel
from repro.routing.kernel import (
    SHORTEST_WIDEST,
    WIDEST_SHORTEST,
    CSRGraph,
    _widest_widths,
    batched_prices,
    batched_trees,
)
from repro.routing.wang_crowcroft import RouteLabel
from tests.oracles.wang_crowcroft import shortest_widest_tree, widest_shortest_tree

#: Each order with the pure tree function that defines its prices.
ORDERS = {
    SHORTEST_WIDEST: shortest_widest_tree,
    WIDEST_SHORTEST: widest_shortest_tree,
}

def undirected_relaxation(overlay):
    """``overlay``'s adjacency with link direction ignored: each neighbour
    once, under the better of the two directions' metrics (the
    successor's on a tie) -- what the oracle's ``"undirected"`` view is
    (``CSRGraph.undirected``)."""

    def undirected(inst):
        seen = {}
        for nbr, metrics in overlay.successors(inst):
            seen[nbr] = metrics
        for nbr, metrics in overlay.predecessors(inst):
            if nbr not in seen or metrics.is_better_than(seen[nbr]):
                seen[nbr] = metrics
        return sorted(seen.items())

    return undirected


#: A target no snapshot knows: simply absent from every row.
OUTSIDER = "a node outside the snapshot"


def assert_kernel_matches_pure(graph, neighbors, nodes, *, seed=0):
    """Every source's batched shortest-widest row equals the pure
    per-source row: the full tree, and the ``targets=`` row for seeded
    subsets (each with a node outside the snapshot), the empty set, the
    source alone and -- where there is one -- an unreachable node beside a
    reachable one.  Phase 1 of a symmetric snapshot, and of an acyclic
    one, is held to the heap on the way.  The widest-shortest prices are then held to the pure
    widest-shortest rows on the same asks (:func:`assert_prices_match_pure`).
    Returns how many width steps the batches restarted."""
    nodes = list(nodes)
    rng = random.Random(seed)
    csr = CSRGraph.from_adjacency(nodes, neighbors)
    assert_pair_widths_match_heap(csr)
    assert_swept_widths_match_heap(csr)
    subsets = [
        frozenset(rng.sample(nodes, rng.randrange(1, len(nodes) + 1))) | {OUTSIDER}
        for _ in range(2)
    ]
    batched = batched_trees(csr, nodes)
    restarts = batched.restarts
    for source, labels in zip(nodes, batched):
        expected = shortest_widest_tree(neighbors, source)
        assert labels == expected, source
        alone = {source: RouteLabel(IDEAL, 0, (source,))}
        missed = [node for node in nodes if node not in expected][:1]
        nearest = list(expected)[:2]  # the source and one it reaches
        for targets in ((), (source,), missed, missed + nearest):
            row = batched_trees(csr, (source,), targets=targets)[0]
            assert row == shortest_widest_tree(neighbors, source, targets=targets), (
                source, targets,
            )
            if set(targets) <= {source, *missed}:
                assert row == alone, (source, targets)
    for targets in subsets:
        batched = batched_trees(csr, nodes, targets=targets)
        restarts += batched.restarts
        for source, labels in zip(nodes, batched):
            expected = shortest_widest_tree(neighbors, source, targets=targets)
            assert labels == expected, (source, sorted(map(repr, targets)))
    assert_prices_match_pure(neighbors, nodes, seed=seed, order=WIDEST_SHORTEST)
    return restarts


def assert_pair_widths_match_heap(csr):
    """``CSRGraph.pair_widths()`` -- one Kruskal pass -- equals the heap's
    phase 1 from every source, as lists; returns whether there was a matrix
    to compare (None: the snapshot is not bandwidth-symmetric)."""
    pairs = csr.pair_widths()
    if pairs is None:
        return False
    assert pairs.tolist() == [_widest_widths(csr, s) for s in range(csr.n)]
    return True


def assert_swept_widths_match_heap(csr):
    """``CSRGraph.swept_widths()`` -- one topological sweep -- equals the
    heap's phase 1 from every source, as lists; returns whether there was
    a matrix to compare (None: the usable edges hold a cycle)."""
    swept = csr.swept_widths()
    if swept is None:
        return False
    assert swept.tolist() == [_widest_widths(csr, s) for s in range(csr.n)]
    return True


def assert_prices_match_pure(neighbors, nodes, *, seed=0, order=SHORTEST_WIDEST):
    """Every source's :func:`batched_prices` row in ``order`` equals the
    qualities of the pure targeted row of that order, ``(bandwidth,
    latency)`` per reached target (the source only when it is one): for
    every node as a target, seeded subsets with a node outside the
    snapshot, the empty set, the source alone and -- where there is one --
    an unreachable node beside a reachable one.  Returns how many prices
    were compared."""
    nodes = list(nodes)
    rng = random.Random(seed)
    csr = CSRGraph.from_adjacency(nodes, neighbors)
    tree = ORDERS[order]
    compared = 0

    def check(sources, targets):
        nonlocal compared
        rows = batched_prices(csr, sources, targets, order=order)
        for source, row in zip(sources, rows):
            pure = tree(neighbors, source, targets=targets)
            expected = {
                node: (label.quality.bandwidth, label.quality.latency)
                for node, label in pure.items()
                if node in targets
            }
            assert row == expected, (order, source, sorted(map(repr, targets)))
            compared += len(row)

    check(nodes, frozenset(nodes))
    for _ in range(2):
        check(nodes, frozenset(rng.sample(nodes, rng.randrange(1, len(nodes) + 1))) | {OUTSIDER})
    asked = {}  # a target set -> the sources asking for it, priced in one batch
    for source in nodes:
        reached = tree(neighbors, source)
        missed = [node for node in nodes if node not in reached][:1]
        nearest = list(reached)[:2]  # the source and one it reaches
        for targets in ((), (source,), missed, missed + nearest):
            asked.setdefault(frozenset(targets), {})[source] = None
    for targets, sources in asked.items():
        check(list(sources), targets)
    return compared


def patch_lockstep(monkeypatch, kept, broken):
    """Replace ``kernel._widest_shortest_lockstep`` with its source less
    the one line ``kept``, which becomes ``broken``."""
    source = textwrap.dedent(inspect.getsource(kernel._widest_shortest_lockstep))
    assert source.count(kept) == 1, kept
    namespace = dict(vars(kernel))
    exec(compile(source.replace(kept, broken), kernel.__file__, "exec"), namespace)
    monkeypatch.setattr(
        kernel, "_widest_shortest_lockstep", namespace["_widest_shortest_lockstep"]
    )
