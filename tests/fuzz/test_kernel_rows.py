"""Seeded fuzzing of the routing kernel against the pure tree functions.

One integer seed draws a whole case -- a topology family (Waxman,
Erdos-Renyi or Barabasi-Albert underlay, or a filled overlay), whether it
is read directed or through its undirected relaxation, a palette of three
or four bandwidths re-drawn over its links so ties dominate (generated
latencies are kept: overlay ones are float sums of shared underlay
segments, which is where the restart rule lives), and the target subsets
-- and the one invariant is ``tests/oracles/routing.py``'s: kernel rows
equal pure rows, full and targeted, both orders, every source, and a
symmetric snapshot's Kruskal phase 1 equals the heap's.

The first seeds of ROADMAP item 1b; tier-1, a fixed budget (the file stays
under six seconds).  A seed that fails is a regression case: add it to
``SEEDS`` and keep it.
"""

import math
import random

import pytest

from repro.core.alternatives import undirected_relaxation
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph
from repro.network.underlay import Underlay, UnderlayConfig
from repro.routing import kernel
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.routing import ORDERS, assert_kernel_matches_pure

FAMILIES = ("waxman", "erdos_renyi", "barabasi_albert", "overlay")
BANDWIDTHS = (1.0, 2.5, 5.0, 10.0, 40.0, math.inf)

#: Seeds whose shortest-widest batches restart a width step, full rows and
#: targeted ones alike -- the three smallest overlays among the six that a
#: search of seeds 0-399 found (50, 110, 151, 202, 251, 306; all undirected
#: overlays).  The comparison is known to reach the restart rule.
RESTART_SEEDS = (50, 151, 251)
#: The budget, about three seconds: every seed runs on every tier-1 pass.
SEEDS = (*range(16), *RESTART_SEEDS)
#: More seeds for the widest-shortest order alone (a thirtieth of a second
#: each: its pure reference is one Dijkstra a source), added before its
#: labels went from path tuples to parent slots.
WIDEST_SHORTEST_SEEDS = tuple(range(16, 72))
#: Seeds of either budget whose widest-shortest batches reach the smallest-
#: path tie-break -- an exact (latency, bandwidth, hops) tie, settled by
#: walking two parent chains -- found by making that walk raise; overlays
#: all, where latencies are sums of shared underlay segments.  Outside this
#: file ``TestTieBreaks::test_equal_cost_paths_pick_smallest_repr_path``,
#: ``TestIncrementalPhaseTwo::test_tie_heavy_digraphs``,
#: ``TestPairWidths::test_fat_tree`` and
#: ``TestOverlayEquivalence::test_scenario_overlays[1]`` reach it too.
CHAIN_WALK_SEEDS = (
    0, 9, 11, 12, 17, 24, 25, 27, 38, 40, 44, 50, 61, 63, 64, 68, 151, 251,
)


def draw_case(seed):
    """``(description, neighbors, nodes)`` of one seed."""
    rng = random.Random(seed)
    family = rng.choice(FAMILIES)
    directed = rng.random() < 0.5
    palette = rng.sample(BANDWIDTHS, rng.choice((3, 4)))
    if family == "overlay":
        generated = generate_scenario(
            ScenarioConfig(
                network_size=rng.randrange(40, 60),
                n_services=rng.randrange(4, 7),
                instances_per_service=(6, 9),
                seed=seed,
            )
        ).overlay
        overlay = OverlayGraph()
        for inst in generated.instances():
            overlay.add_instance(inst)
            for link in generated.out_links(inst):
                overlay.add_link(
                    link.src, link.dst,
                    PathQuality(rng.choice(palette), link.metrics.latency),
                )
        neighbors = overlay.successors if directed else undirected_relaxation(overlay)
        nodes = overlay.routing_nodes()
    else:
        underlay = Underlay.generate(
            UnderlayConfig(n=rng.randrange(12, 28), model=family, seed=seed)
        )
        adjacency = {node: [] for node in underlay.routing_nodes()}
        for link in underlay.links():
            there = rng.choice(palette)
            # "Directed": each direction draws its own bandwidth, so the
            # topology stays symmetric and the snapshot must notice that
            # the bandwidths are not.
            back = rng.choice(palette) if directed else there
            adjacency[link.u].append((link.v, PathQuality(there, link.latency)))
            adjacency[link.v].append((link.u, PathQuality(back, link.latency)))
        neighbors = adjacency.__getitem__
        nodes = underlay.routing_nodes()
    shape = "directed" if directed else "undirected"
    return f"{family}/{shape}/{len(nodes)} nodes/{sorted(palette)}", neighbors, nodes


def chain_walk_reads(monkeypatch, neighbors, nodes):
    """Parent-slot reads of one full widest-shortest batch beyond the one
    read per materialised path: those made inside the tie-break's walk."""
    reads = []

    class Parents(list):
        def __getitem__(self, v):
            reads.append(v)
            return super().__getitem__(v)

    class Scratch(kernel._Scratch):
        def __init__(self, n, batch):
            super().__init__(n, batch)
            self.parent = Parents(self.parent)

    monkeypatch.setattr(kernel, "_Scratch", Scratch)
    csr = kernel.CSRGraph.from_adjacency(nodes, neighbors)
    batch = kernel.batched_trees(csr, nodes, order=kernel.WIDEST_SHORTEST)
    return len(reads) - sum(len(row) - 1 for row in batch)


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_rows_equal_pure_rows(seed, monkeypatch):
    description, neighbors, nodes = draw_case(seed)
    restarts = assert_kernel_matches_pure(description, neighbors, nodes, seed=seed)
    assert (restarts > 0) == (seed in RESTART_SEEDS), (description, restarts)
    walked = chain_walk_reads(monkeypatch, neighbors, list(nodes))
    assert (walked > 0) == (seed in CHAIN_WALK_SEEDS), (description, walked)


@pytest.mark.parametrize("seed", WIDEST_SHORTEST_SEEDS)
def test_widest_shortest_rows_equal_pure_rows(seed, monkeypatch):
    description, neighbors, nodes = draw_case(seed)
    assert_kernel_matches_pure(
        description, neighbors, nodes, seed=seed, orders=ORDERS[1:]
    )
    walked = chain_walk_reads(monkeypatch, neighbors, list(nodes))
    assert (walked > 0) == (seed in CHAIN_WALK_SEEDS), (description, walked)


def test_the_budget_reaches_every_family_both_ways():
    cases = {tuple(draw_case(seed)[0].split("/")[:2]) for seed in SEEDS}
    assert cases == {
        (family, shape) for family in FAMILIES for shape in ("directed", "undirected")
    }
