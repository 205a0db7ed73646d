"""The pure Wang-Crowcroft tree functions as the routing kernel's reference."""

import random

from repro.network.metrics import IDEAL
from repro.routing.kernel import (
    SHORTEST_WIDEST,
    WIDEST_SHORTEST,
    CSRGraph,
    _widest_widths,
    batched_trees,
)
from repro.routing.wang_crowcroft import (
    RouteLabel,
    shortest_widest_tree,
    widest_shortest_tree,
)

#: Each tree order with the pure function that defines it.
ORDERS = (
    (SHORTEST_WIDEST, shortest_widest_tree),
    (WIDEST_SHORTEST, widest_shortest_tree),
)

#: A target no snapshot knows: simply absent from every row.
OUTSIDER = "a node outside the snapshot"


def assert_kernel_matches_pure(graph, neighbors, nodes, *, seed=0, orders=ORDERS):
    """Every source's batched row equals the pure per-source row: the full
    tree, and the ``targets=`` row for seeded subsets (each with a node
    outside the snapshot), the empty set, the source alone and -- where
    there is one -- an unreachable node beside a reachable one.  Phase 1
    of a symmetric snapshot is held to the heap on the way.  Returns how
    many width steps the shortest-widest batches restarted.  ``orders``
    narrows the comparison to some of :data:`ORDERS`."""
    nodes = list(nodes)
    rng = random.Random(seed)
    csr = CSRGraph.from_adjacency(nodes, neighbors)
    assert_pair_widths_match_heap(csr)
    subsets = [
        frozenset(rng.sample(nodes, rng.randrange(1, len(nodes) + 1))) | {OUTSIDER}
        for _ in range(2)
    ]
    restarts = 0
    for order, pure in orders:
        batched = batched_trees(csr, nodes, order=order)
        restarts += batched.restarts
        for source, labels in zip(nodes, batched):
            expected = pure(neighbors, source)
            assert labels == expected, (order, source)
            alone = {source: RouteLabel(IDEAL, 0, (source,))}
            missed = [node for node in nodes if node not in expected][:1]
            nearest = list(expected)[:2]  # the source and one it reaches
            for targets in ((), (source,), missed, missed + nearest):
                row = batched_trees(csr, (source,), order=order, targets=targets)[0]
                assert row == pure(neighbors, source, targets=targets), (
                    order, source, targets,
                )
                if set(targets) <= {source, *missed}:
                    assert row == alone, (order, source, targets)
        for targets in subsets:
            batched = batched_trees(csr, nodes, order=order, targets=targets)
            restarts += batched.restarts
            for source, labels in zip(nodes, batched):
                expected = pure(neighbors, source, targets=targets)
                assert labels == expected, (order, source, sorted(map(repr, targets)))
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
