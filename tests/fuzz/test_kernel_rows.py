"""Seeded fuzzing of the routing kernel against the pure reference trees
(``tests/oracles/wang_crowcroft.py``).

One integer seed draws a whole case -- a topology family (Waxman,
Erdos-Renyi or Barabasi-Albert underlay, or a filled overlay), whether it
is read directed or through its undirected relaxation, a palette of three
or four bandwidths re-drawn over its links so ties dominate (generated
latencies are kept: overlay ones are float sums of shared underlay
segments, which is where the restart rule lives), and the target subsets
-- and the one invariant is ``tests/oracles/routing.py``'s: kernel rows
equal pure rows, full and targeted, every source, and a symmetric
snapshot's Kruskal phase 1, like an acyclic one's topological sweep,
equals the heap's.  The pathless prices of
``kernel.batched_prices`` are held to the pure rows' qualities on the same
cases: shortest-widest ones under either phase 1, widest-shortest ones on
more seeds.

The contract: kernel rows equal the pure Wang-Crowcroft rows bit for bit.
Tier-1, a fixed budget: the file takes about ten seconds on a 2-vCPU
host, most of it in the pure reference trees.  A seed that fails is a
regression case: add it to ``SEEDS`` and keep it.
"""

import inspect
import math
import random
import textwrap

import pytest

from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph
from repro.network.underlay import Underlay, UnderlayConfig
from repro.routing import kernel
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.routing import (
    assert_kernel_matches_pure,
    assert_prices_match_pure,
    assert_swept_widths_match_heap,
    patch_lockstep,
    undirected_relaxation,
)

FAMILIES = ("waxman", "erdos_renyi", "barabasi_albert", "overlay")
BANDWIDTHS = (1.0, 2.5, 5.0, 10.0, 40.0, math.inf)

#: Seeds whose shortest-widest batches restart a width step, full rows and
#: targeted ones alike -- the three smallest overlays among the six that a
#: search of seeds 0-399 found (50, 110, 151, 202, 251, 306; all undirected
#: overlays).  The comparison is known to reach the restart rule.
RESTART_SEEDS = (50, 151, 251)
#: The budget, about three seconds: every seed runs on every tier-1 pass.
SEEDS = (*range(16), *RESTART_SEEDS)
#: More seeds for the widest-shortest prices alone (their pure reference
#: is one Dijkstra a source, so each seed is cheap).
WIDEST_SHORTEST_SEEDS = tuple(range(16, 72))


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


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_rows_equal_pure_rows(seed):
    description, neighbors, nodes = draw_case(seed)
    restarts = assert_kernel_matches_pure(description, neighbors, nodes, seed=seed)
    assert (restarts > 0) == (seed in RESTART_SEEDS), (description, restarts)


@pytest.mark.parametrize("seed", WIDEST_SHORTEST_SEEDS)
def test_widest_shortest_rows_equal_pure_rows(seed):
    """Each widest-shortest price row equals the ``(bandwidth, latency)``
    of the pure widest-shortest labels, full and targeted."""
    description, neighbors, nodes = draw_case(seed)
    compared = assert_prices_match_pure(
        neighbors, nodes, seed=seed, order=kernel.WIDEST_SHORTEST
    )
    assert compared > 0, description


def test_the_budget_reaches_every_family_both_ways():
    cases = {tuple(draw_case(seed)[0].split("/")[:2]) for seed in SEEDS}
    assert cases == {
        (family, shape) for family in FAMILIES for shape in ("directed", "undirected")
    }


def test_swept_widths_equal_the_heaps_on_every_directed_seed():
    """A directed overlay is acyclic (compatibility runs forward along the
    requirement), and its sweep's matrix equals the heap's phase 1 row for
    row; a directed underlay links every pair both ways, and that cycle
    gives no matrix."""
    swept = {}
    for seed in SEEDS:
        description, neighbors, nodes = draw_case(seed)
        family, shape = description.split("/")[:2]
        if shape == "directed":
            csr = kernel.CSRGraph.from_adjacency(nodes, neighbors)
            swept[seed] = assert_swept_widths_match_heap(csr)
            assert swept[seed] == (family == "overlay"), description
    assert True in swept.values() and False in swept.values()


def test_a_flipped_path_tie_break_is_caught(monkeypatch):
    """The budget kills a hand-made mutant against the reference: a
    shortest-widest pass whose exact (latency, hops) ties keep the
    *larger* path, in both places it compares a candidate with a label."""
    source = textwrap.dedent(inspect.getsource(kernel._shortest_widest_csr))
    for candidate in ("paths[u] + (v,)", "upath + (v,)"):
        kept = f", {candidate}) >= (hops[v], paths[v])"
        assert source.count(kept) == 1, kept
        source = source.replace(kept, f", paths[v]) >= (hops[v], {candidate})")
    namespace = dict(vars(kernel))
    exec(compile(source, kernel.__file__, "exec"), namespace)
    monkeypatch.setattr(kernel, "_shortest_widest_csr", namespace["_shortest_widest_csr"])
    caught = []
    for seed in SEEDS:
        description, neighbors, nodes = draw_case(seed)
        try:
            assert_kernel_matches_pure(description, neighbors, nodes, seed=seed)
        except AssertionError:
            caught.append(seed)
    # Four of the nineteen budget seeds hold an exact shortest-widest tie.
    assert caught == [9, 12, 50, 251]


#: How a price pass finds its widths: as the snapshot allows (the Kruskal
#: matrix where the bandwidths are symmetric), or the heap always.
PHASE_ONES = ("as-built", "heap")


def heap_phase_one(monkeypatch):
    """Make every snapshot take the heap's phase 1, as a directed one does."""
    monkeypatch.setattr(kernel.CSRGraph, "pair_widths", lambda self: None)


@pytest.mark.parametrize("phase_one", PHASE_ONES)
@pytest.mark.parametrize("seed", SEEDS)
def test_prices_equal_pure_qualities(seed, phase_one, monkeypatch):
    if phase_one == "heap":
        heap_phase_one(monkeypatch)
    description, neighbors, nodes = draw_case(seed)
    assert assert_prices_match_pure(neighbors, nodes, seed=seed) > 0, description


#: Two hand-made mutants of the price pass, as source edits, with the
#: budget seeds that kill each (the same under either phase 1): the drain's
#: bound taken from the first labelled member instead of the largest, and
#: an activation that relaxes no edge whose tail was labelled at a wider
#: step (the source included).
PRICE_MUTANTS = {
    "bound from the first labelled member": (
        (
            "if bound == _INF and not unlabelled:",
            "if bound == _INF and unlabelled < len(members):",
        ),
        (
            "bound = max(lat[v] for v in members)",
            "bound = next(lat[v] for v in members if lat[v] < _INF)",
        ),
    ),
    "activation skips tails labelled at a wider step": (
        (
            "        for u, j in zip(tails[pos:end], slots[pos:end]):\n",
            "        wider = [x < _INF for x in lat]\n"
            "        for u, j in zip(tails[pos:end], slots[pos:end]):\n"
            "            if wider[u]:\n"
            "                continue\n",
        ),
    ),
}


@pytest.mark.parametrize("phase_one", PHASE_ONES)
@pytest.mark.parametrize("mutant", sorted(PRICE_MUTANTS))
def test_a_price_mutant_is_caught(mutant, phase_one, monkeypatch):
    """The budget kills each mutant against the reference, under either
    phase 1 -- by a wrong price, or by the pass refusing to return one."""
    source = textwrap.dedent(inspect.getsource(kernel._prices_csr))
    for kept, broken in PRICE_MUTANTS[mutant]:
        assert source.count(kept) == 1, kept
        source = source.replace(kept, broken)
    namespace = dict(vars(kernel))
    exec(compile(source, kernel.__file__, "exec"), namespace)
    monkeypatch.setattr(kernel, "_prices_csr", namespace["_prices_csr"])
    if phase_one == "heap":
        heap_phase_one(monkeypatch)
    caught = []
    for seed in SEEDS:
        _, neighbors, nodes = draw_case(seed)
        try:
            assert_prices_match_pure(neighbors, nodes, seed=seed)
        except (AssertionError, RuntimeError):
            caught.append(seed)
    assert caught == CAUGHT[mutant]


CAUGHT = {
    "bound from the first labelled member": list(SEEDS),
    "activation skips tails labelled at a wider step": [
        1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 14, 251,
    ],
}


def test_a_widest_shortest_price_mutant_is_caught(monkeypatch):
    """The budget kills a hand-made mutant against the reference: a
    widest-shortest pass that drops the bandwidth tie-break, keeping the
    first offer of an exact latency tie however narrow."""
    patch_lockstep(
        monkeypatch,
        "better = (clat < vlat) | (cbw > bw.take(cell))",
        "better = clat < vlat",
    )
    caught = []
    for seed in SEEDS:
        _, neighbors, nodes = draw_case(seed)
        try:
            assert_prices_match_pure(
                neighbors, nodes, seed=seed, order=kernel.WIDEST_SHORTEST
            )
        except AssertionError:
            caught.append(seed)
    # Overlays all: their latencies are sums of shared underlay segments,
    # so exact ties between paths of different widths occur.
    assert caught == [0, 9, 11, 12, 50, 151, 251]


def test_a_latency_only_pop_mutant_is_caught(monkeypatch):
    """The budget kills a pass that pops by latency alone whatever the
    latencies: on graphs with zero-latency links it settles a node before
    a tied, wider one can widen it."""
    patch_lockstep(monkeypatch, "if rising:", "if True:")
    caught = []
    for seed in SEEDS:
        _, neighbors, nodes = draw_case(seed)
        try:
            assert_prices_match_pure(
                neighbors, nodes, seed=seed, order=kernel.WIDEST_SHORTEST
            )
        except AssertionError:
            caught.append(seed)
    # Overlays: co-located instances are linked at latency 0.
    assert caught == [0, 9, 11, 50, 251]
