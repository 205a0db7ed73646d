"""The pure Wang-Crowcroft tree functions as the routing kernel's reference."""

from repro.routing.kernel import (
    SHORTEST_WIDEST,
    WIDEST_SHORTEST,
    CSRGraph,
    batched_trees,
)
from repro.routing.wang_crowcroft import (
    shortest_widest_tree,
    widest_shortest_tree,
)

#: Each tree order with the pure function that defines it.
ORDERS = (
    (SHORTEST_WIDEST, shortest_widest_tree),
    (WIDEST_SHORTEST, widest_shortest_tree),
)


def assert_kernel_matches_pure(graph, neighbors, nodes):
    """Every source's batched tree equals the pure per-source tree."""
    csr = CSRGraph.from_adjacency(nodes, neighbors)
    for order, pure in ORDERS:
        batched = batched_trees(csr, nodes, order=order)
        for source, labels in zip(nodes, batched):
            expected = pure(neighbors, source)
            assert labels == expected, (order, source)
