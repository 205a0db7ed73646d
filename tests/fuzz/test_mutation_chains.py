"""Seeded fuzzing of the route oracle through chains of overlay mutations.

One integer seed draws a scenario and a chain of ``fail_instances`` /
``fail_links`` / ``degrade_links`` / ``revive_links`` steps.  A step starts
from the newest graph or from any earlier one (so the chain branches), and
a revive -- full or partial -- takes its reference from *any* other graph
made so far, ancestors and non-ancestors alike.  Two rebuilds close the
chain: the overlay built again from the underlay, and the newest graph
through a serialization round trip -- new graphs nobody derived, equal to
graphs the oracle holds, which compute their rows cold.  The oracle keeps
every graph's trees throughout.  After each step

* the rows a seeded share of the sources are asked for on the new graph --
  full and at one service's pool, in two adjacency views as kernel inputs
  (``"successors"``, what ``AbstractGraph.build`` reads, and
  ``"undirected"``, a view that walks links backwards) -- equal the
  pure rows of ``tests/oracles/routing.py`` on that graph, and at the end
  every row of every graph does (what was not asked for on the way has
  chained its pending repairs until then);
* ``OverlayGraph.restriction_of`` equals a comparison written over the
  public queries alone, and, against every graph the new one descends
  from, the touch sets the chain accumulated on the way;
* and at the end every graph's ``"successors"`` CSR snapshot -- derived
  from an ancestor's where the oracle held one, or a pending derivation of
  one -- equals ``kernel.snapshot`` of that graph, array for array.

Generated overlays never link a pair both ways, so the undirected view's
"better of the two directions" is never a choice here.

The contract: every routing row the oracle carries, repairs or derives
through any chain of mutations is the pure row of the graph it belongs
to.  Tier-1, a fixed budget (the file stays under five seconds; a chain
takes about a fifth of one, some 310 seeds a minute).  A seed that fails
is a regression case: add it to ``SEEDS`` and keep it -- ``KNOWN_FAILURES``
holds the one found so far, which is not a revive's.
"""

import functools
import random

import pytest

from repro.network import failures
from repro.network.overlay import OverlayGraph, Restriction
from repro.routing import kernel
from repro.routing.oracle import RouteOracle
from repro.services.serialization import overlay_from_dict, overlay_to_dict
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.routing import undirected_relaxation
from tests.oracles.wang_crowcroft import shortest_widest_tree

VIEWS = (
    ("successors", lambda graph: graph.successors),
    ("undirected", undirected_relaxation),
)
STEPS = 6
KINDS = (
    "fail_instances", "fail_links", "degrade_links", "degrade_links",
    "revive_links", "revive_links", "revive_links",
)
#: A seed of the budget each hand-made mutant fails, found by running seeds
#: 0-39 under each: the two blind diffs die at two of them each (23 and 36;
#: 34 and 37), the misdirected derive at twenty-nine.  The two snapshot
#: mutants die at 23 and 38 of the forty seeds, and the array comparison
#: alone, with no row compared, kills them at 7 and 12 of seeds 0-13.
MUTANT_SEEDS = {
    "blind to a shorter latency": 23,
    "blind to a new link": 34,
    "derives from the overlay": 0,
    "keeps a removed link's entry": 4,
    "keeps the parent's metrics on a degraded link": 0,
}
#: Found by this file (one seed of 0-399) and older than it -- the chain is
#: degrade, fail, degrade, no revive: a *carried* row whose label is as good
#: as the pure one -- equal quality, equal hops -- on another path.  The
#: last step sags four links that none of ``s5/16``'s label paths cross, and
#: the pure search on the result reaches ``s3/11`` through ``s2/18, s4/9``
#: where it went through ``s2/2, s1/9`` before.  The pure search extends one
#: label a node, so a node whose own label got *worse* can hand on a
#: candidate that ties on latency where the old one lost by an ulp or a hop,
#: and win the tie on hops or on the smaller path: a restriction made a
#: candidate better, and carry-forward cannot see it.  Overlay latencies are
#: float sums of shared underlay segments, so exact ties are there to find.
KNOWN_FAILURES = {
    127: "a carried label ties the pure one on (latency, hops) by another path",
}
#: The budget, about four seconds: every seed runs on every tier-1 pass.
SEEDS = (
    *range(14),
    *sorted({seed for seed in MUTANT_SEEDS.values() if seed >= 14}),
    *KNOWN_FAILURES,
)


@pytest.fixture(autouse=True)
def fresh_default_oracle():
    """Each chain resets the process-wide oracle; leave none behind."""
    yield
    RouteOracle.reset_default()


def links_of(graph):
    return {
        (link.src, link.dst): link.metrics
        for inst in graph.instances()
        for link in graph.out_links(inst)
    }


def plain_restriction(result, reference, *, sees_latency=True, sees_new_links=True):
    """``result.restriction_of(reference)`` from the public queries alone;
    the two switches make the first two mutants."""
    here, there = set(result.instances()), set(reference.instances())
    mine, theirs = links_of(result), links_of(reference)
    if here - there or (sees_new_links and mine.keys() - theirs.keys()):
        return None
    degraded = set()
    for pair in mine.keys() & theirs.keys():
        if mine[pair].bandwidth > theirs[pair].bandwidth:
            return None
        if sees_latency and mine[pair].latency < theirs[pair].latency:
            return None
        if mine[pair] != theirs[pair]:
            degraded.add(pair)
    return Restriction(
        frozenset(there - here),
        frozenset(
            pair for pair in theirs.keys() - mine.keys() if here.issuperset(pair)
        ),
        frozenset(degraded),
    )


def accumulated(earlier, later, graph):
    """Two touch sets in a row, as one restriction ending at ``graph``."""
    alive = set(graph.instances())
    removed = {
        pair for pair in earlier.removed_links | later.removed_links
        if alive.issuperset(pair)
    }
    return Restriction(
        earlier.removed_instances | later.removed_instances,
        frozenset(removed),
        frozenset(
            pair
            for pair in earlier.degraded_links | later.degraded_links
            if alive.issuperset(pair) and pair not in removed
        ),
    )


class Chain:
    """The graphs of one seed, how each descends from the others, and the
    pure rows already computed for them."""

    def __init__(self, seed):
        self.rng = rng = random.Random(seed)
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=rng.randrange(24, 40),
                n_services=rng.randrange(4, 7),
                instances_per_service=(3, 5),
                seed=seed,
            )
        )
        self.oracle = RouteOracle.reset_default()
        self.scenario = scenario
        self.graphs = [scenario.overlay]
        #: Per graph: ``{index of a graph it descends from: what was taken
        #: away since}``.
        self.lineage = [{}]
        self.pure = {}
        self.kinds = []
        #: Revives the diff accepted against a graph their overlay does not
        #: descend from.
        self.strangers = 0
        #: Graphs born with a snapshot to derive, and those of them whose
        #: origin held only a pending derivation itself.
        self.derived = self.chained = 0
        self.stats = None

    def run(self):
        rng = self.rng
        self.read(self.graphs[0], share=rng.choice((0.5, 1.0)))
        for _ in range(STEPS):
            base = len(self.graphs) - 1
            if rng.random() >= 0.6:  # branch: any graph so far
                base = rng.randrange(len(self.graphs))
            kind = rng.choice(KINDS)
            if kind == "revive_links" and len(self.graphs) == 1:
                kind = "degrade_links"
            origin, graph, taken_away = getattr(self, kind)(base)
            self.kinds.append(kind if taken_away is not None else "cold revive")
            state = self.oracle._graphs.get(graph)
            if state is not None and state.derivation is not None:
                self.derived += 1
                origin_state = self.oracle._graphs[self.graphs[origin]]
                self.chained += "successors" not in origin_state.snapshots
            self.graphs.append(graph)
            descent = {}
            if taken_away is not None:
                descent[origin] = taken_away
                for ancestor, earlier in self.lineage[origin].items():
                    descent[ancestor] = accumulated(earlier, taken_away, graph)
            self.lineage.append(descent)
            for ancestor, expected in descent.items():
                assert graph.restriction_of(self.graphs[ancestor]) == expected, (
                    kind, ancestor,
                )
            self.read(graph, share=rng.choice((0.3, 0.7, 1.0)))
        # The rebuilds draw nothing from ``rng``: every step before them
        # reads as it did without them.
        scenario = self.scenario
        for graph in (
            OverlayGraph.build(
                scenario.underlay, self.graphs[0].instances(), scenario.catalog.compatible
            ),
            overlay_from_dict(overlay_to_dict(self.graphs[-1])),
        ):
            self.kinds.append("rebuild")
            self.graphs.append(graph)
            self.lineage.append({})
        for graph in self.graphs:
            self.read(graph, share=1.0, both=True)
        for number, graph in enumerate(self.graphs):
            self.compare_snapshot(number, graph)
        self.stats = self.oracle.stats()
        return self

    def compare_snapshot(self, number, graph):
        """The oracle's ``"successors"`` snapshot of ``graph`` -- derived or
        walked, built now if nothing asked for it yet -- equals a fresh
        one."""
        state = self.oracle._graphs.get(graph)
        if state is None:
            return
        held = self.oracle._snapshot_for(graph, state, "successors", None)
        fresh = kernel.snapshot(graph)
        assert held.nodes == fresh.nodes, number
        for field in ("indptr", "indices", "bandwidth", "latency"):
            mine, theirs = getattr(held, field), getattr(fresh, field)
            assert mine.dtype == theirs.dtype, (number, field)
            assert mine.tolist() == theirs.tolist(), (number, field)

    # -- the four mutations: (graph it derives from, result, what was taken) --

    def fail_instances(self, base):
        graph = self.graphs[base]
        pool = sorted(graph.instances())
        victims = self.rng.sample(pool, min(len(pool) - 4, self.rng.choice((1, 2))))
        result = failures.fail_instances(graph, victims)
        return base, result, Restriction(frozenset(victims), frozenset(), frozenset())

    def fail_links(self, base):
        graph = self.graphs[base]
        pairs = sorted(links_of(graph))
        victims = self.rng.sample(pairs, min(len(pairs), self.rng.randrange(1, 5)))
        result = failures.fail_links(graph, victims)
        return base, result, Restriction(frozenset(), frozenset(victims), frozenset())

    def degrade_links(self, base):
        graph = self.graphs[base]
        # A co-located pair's ideal link scales to itself: nothing to sag.
        pairs = sorted(pair for pair, m in links_of(graph).items() if m.latency > 0)
        victims = self.rng.sample(pairs, min(len(pairs), self.rng.randrange(1, 6)))
        narrower, slower = self.rng.choice(((0.3, 1.0), (0.5, 1.5), (1.0, 3.0)))
        result = failures.degrade_links(
            graph, victims, bandwidth_factor=narrower, latency_factor=slower
        )
        return base, result, Restriction(frozenset(), frozenset(), frozenset(victims))

    def revive_links(self, base):
        graph = self.graphs[base]
        origin = self.rng.choice([i for i in range(len(self.graphs)) if i != base])
        reference = self.graphs[origin]
        mine, theirs = links_of(graph), links_of(reference)
        shared = sorted(mine.keys() & theirs.keys())
        moved = [pair for pair in shared if mine[pair] != theirs[pair]]
        if not moved:  # nothing to restore: a revive all the same
            victims = self.rng.sample(shared, min(len(shared), 2))
        elif self.rng.random() < 0.5:
            victims = moved
        else:
            victims = self.rng.sample(moved, self.rng.randrange(1, len(moved) + 1))
        result = failures.revive_links(graph, reference, victims)
        for pair in victims:
            assert result.link_quality(*pair) == theirs[pair]
        taken_away = result.restriction_of(reference)
        assert taken_away == plain_restriction(result, reference)
        if taken_away is None:
            assert result not in self.oracle._graphs
        elif origin not in self.lineage[base]:
            self.strangers += 1
        return origin, result, taken_away

    # -- the contract -------------------------------------------------------

    def read(self, graph, *, share, both=False):
        """Ask for a share of ``graph``'s rows, full and targeted, in both
        views, and hold each to the pure row."""
        rng, oracle = self.rng, self.oracle
        number = self.graphs.index(graph)
        sids = sorted(graph.sids())
        for view, adjacency in VIEWS:
            neighbors = adjacency(graph)
            sources = [s for s in graph.instances() if rng.random() < share]
            pool = frozenset(graph.instances_of(rng.choice(sids)))
            asks = (pool, None)
            if not both:
                asks = rng.choice(((pool,), (None,), (None, pool), asks))
            if rng.random() < 0.5:
                oracle.warm(
                    graph, sources, view=view, neighbors=neighbors,
                    targets=asks[0],
                )
            for source in sources:
                for targets in asks:
                    key = (number, view, source, targets)
                    if key not in self.pure:
                        self.pure[key] = shortest_widest_tree(neighbors, source, targets=targets)
                    row = oracle.tree(
                        graph, source, view=view, neighbors=neighbors,
                        targets=targets,
                    )
                    if targets is not None:  # the row may cover more: read it there
                        row = {n: row[n] for n in row if n == source or n in targets}
                    assert row == self.pure[key], (number, view, source, targets)


@functools.lru_cache(maxsize=None)
def finished(seed):
    """The chain of ``seed``, run to its end (once a session: the per-seed
    test and the census below read the same run)."""
    return Chain(seed).run()


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(
            seed,
            marks=pytest.mark.xfail(reason=KNOWN_FAILURES[seed], strict=True)
            if seed in KNOWN_FAILURES
            else (),
        )
        for seed in SEEDS
    ],
)
def test_every_row_of_every_graph_equals_the_pure_row(seed):
    finished(seed)


def test_the_budget_reaches_every_kind_of_step():
    """Each mutation, revives the diff refuses, revives it accepts against
    a graph the overlay does not descend from, rebuilds, and every way the
    oracle comes by a row."""
    chains = [finished(seed) for seed in SEEDS if seed not in KNOWN_FAILURES]
    assert {kind for chain in chains for kind in chain.kinds} == {
        "fail_instances", "fail_links", "degrade_links", "revive_links", "cold revive",
        "rebuild",
    }
    assert sum(chain.strangers for chain in chains) > 0
    assert sum(chain.chained for chain in chains) > 0
    assert sum(chain.derived for chain in chains) > sum(chain.chained for chain in chains)
    for counter in (
        "carried", "dropped", "repaired", "warmed", "kernel_trees", "hits",
    ):
        assert sum(getattr(chain.stats, counter) for chain in chains) > 0, counter
    assert sum(chain.stats.invalidated for chain in chains) == 0


def blind_restriction(**blind):
    def restriction_of(self, reference):
        return plain_restriction(self, reference, **blind)

    return restriction_of


def revive_deriving_from_the_overlay(overlay, reference, victims):
    result = overlay.with_links(
        {pair: reference.link_quality(*pair) for pair in victims}
    )
    taken_away = result.restriction_of(reference)
    if taken_away is not None:
        RouteOracle.default().derive(overlay, result, **taken_away._asdict())
    return result


def restricted_keeping(kept):
    """``CSRGraph.restricted`` with the links ``kept`` picks left as the
    parent has them."""
    restricted = kernel.CSRGraph.restricted

    def mutant(self, removed, links):
        return restricted(
            self, removed, {pair: m for pair, m in links.items() if not kept(m)}
        )

    return mutant


@pytest.mark.parametrize("mutant", sorted(MUTANT_SEEDS))
def test_the_chain_kills_the_mutant(mutant, monkeypatch):
    """Five ways to get a derivation wrong, each caught: a diff that lets a
    latency improvement through, a diff that lets through a link only the
    result has, a revive that derives its result from the degraded overlay
    it was handed instead of from the reference, and a derived snapshot
    that keeps a removed link's entry or a degraded link's old metrics."""
    if mutant == "keeps a removed link's entry":
        monkeypatch.setattr(
            kernel.CSRGraph, "restricted", restricted_keeping(lambda m: m is None)
        )
    elif mutant == "keeps the parent's metrics on a degraded link":
        monkeypatch.setattr(
            kernel.CSRGraph, "restricted", restricted_keeping(lambda m: m is not None)
        )
    elif mutant == "blind to a shorter latency":
        monkeypatch.setattr(
            OverlayGraph, "restriction_of", blind_restriction(sees_latency=False)
        )
    elif mutant == "blind to a new link":
        monkeypatch.setattr(
            OverlayGraph, "restriction_of", blind_restriction(sees_new_links=False)
        )
    else:
        monkeypatch.setattr(failures, "revive_links", revive_deriving_from_the_overlay)
    with pytest.raises(AssertionError):
        Chain(MUTANT_SEEDS[mutant]).run()
