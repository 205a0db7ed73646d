"""The eagerly materialised abstract graph the view is compared against."""

from repro.network.metrics import UNREACHABLE
from repro.network.overlay import ServiceInstance
from repro.routing.wang_crowcroft import extract_path
from repro.services.abstract_graph import AbstractEdge, AbstractGraph
from tests.oracles.wang_crowcroft import shortest_widest_tree


def eager_edge_table(requirement, overlay):
    """The abstract graph as ``AbstractGraph.build`` materialised it before
    it became a view over the oracle's trees: one edge object per usable
    instance pair of every requirement edge, off one pure Wang-Crowcroft
    tree per source -- the reference the view is compared against."""
    edges = {}
    for a_sid, b_sid in requirement.edges():
        for a in overlay.instances_of(a_sid):
            labels = shortest_widest_tree(overlay.successors, a)
            for b in overlay.instances_of(b_sid):
                if a == b:
                    continue
                label = labels.get(b)
                if label is None or not label.quality.reachable:
                    continue
                path = tuple(extract_path(labels, a, b))
                edges[(a, b)] = AbstractEdge(a, b, label.quality, path)
    return dict(sorted(edges.items()))


def _exact(edge):
    """An edge with its floats as ``float.hex`` and its path as a tuple."""
    if edge is None:
        return None
    quality = edge.quality
    return (
        edge.src, edge.dst, quality.bandwidth.hex(), quality.latency.hex(),
        tuple(edge.overlay_path),
    )


def _exact_quality(quality):
    return (quality.bandwidth.hex(), quality.latency.hex())


def assert_view_equals_eager(requirement, overlay, abstract=None):
    """Every query of the view answers what the eager table holds."""
    expected = eager_edge_table(requirement, overlay)
    if abstract is None:
        abstract = AbstractGraph.build(requirement, overlay)
    absent = ServiceInstance(requirement.source, 10**6)
    assert absent not in overlay
    everyone = list(overlay.instances()) + [absent]
    # Point queries first (so they cannot lean on the table): every pair of
    # instances -- pool pairs, non-requirement pairs, same-service pairs --
    # and an instance the overlay does not hold, on either side.
    for a in everyone:
        for b in everyone:
            want = expected.get((a, b))
            assert _exact(abstract.edge(a, b)) == _exact(want)
            assert _exact_quality(abstract.quality(a, b)) == _exact_quality(
                want.quality if want is not None else UNREACHABLE
            )
    assert [_exact(e) for e in abstract.edges()] == [
        _exact(e) for e in expected.values()
    ]
    assert abstract.num_edges() == len(expected)
    for a in everyone:
        assert [
            (dst, _exact_quality(q)) for dst, q in abstract.successors(a)
        ] == [
            (dst, _exact_quality(e.quality))
            for (src, dst), e in expected.items()
            if src == a
        ]
    return abstract
