# sflow: module=repro.core.fixture
"""Seeded fixture: SFL003 fires on raw tree computations outside repro.routing."""

from repro.routing.kernel import batched_trees


def bad_direct(csr, root):
    return batched_trees(csr, (root,))  # SFL003


def ok_via_oracle(oracle, graph, root):
    return oracle.tree(graph, root, "shortest_widest")
