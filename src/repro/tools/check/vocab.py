"""Shared taint/rule vocabularies.

These sets name the repo-specific API surface the rules reason about.
They live in a dependency-free module because both the per-file rules
(:mod:`.rules`) and the symbol distillation (:mod:`.symbols`) need them
-- importing them through the rules package would cycle back through the
whole-program machinery.
"""

from __future__ import annotations

from typing import Set, Tuple

#: Host-clock reads: dotted call names that observe wall time.
WALL_CLOCK_CALLS: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Module-level functions of :mod:`random` that draw from the shared,
#: ambient Mersenne Twister.  (``random.Random`` with a seed is the
#: sanctioned construction; ``SystemRandom`` is never acceptable in
#: deterministic code.)
AMBIENT_RANDOM: Set[str] = {
    "random.betavariate", "random.choice", "random.choices",
    "random.expovariate", "random.gammavariate", "random.gauss",
    "random.getrandbits", "random.lognormvariate", "random.normalvariate",
    "random.paretovariate", "random.randbytes", "random.randint",
    "random.random", "random.randrange", "random.sample", "random.seed",
    "random.shuffle", "random.triangular", "random.uniform",
    "random.vonmisesvariate", "random.weibullvariate",
}

#: Routing-tree builders whose raw results bypass the RouteOracle.
TREE_FUNCTIONS: Set[str] = {"shortest_widest_tree", "widest_shortest_tree"}

#: Topology-mutating graph methods that stale any cached tree.
GRAPH_MUTATORS: Set[str] = {
    "add_instance", "add_link", "remove_instance", "remove_link",
}

#: RouteOracle epoch-discipline entry points.
INVALIDATORS: Set[str] = {"derive", "invalidate"}

#: Constructors whose results are *fresh* graphs: mutating a graph built
#: inside the same function is initialisation, not topology mutation.
FRESH_GRAPH_CALLS: Set[str] = {
    "OverlayGraph", "Underlay", "UnderlayGraph", "subgraph", "with_links", "copy",
}

#: Modules that *implement* the graphs: their methods mutate ``self`` by
#: definition, so SFL004 does not apply -- which is exactly the per-file
#: blind spot the whole-program SFL014 closes.
GRAPH_DEFINING_MODULES: Tuple[str, ...] = (
    "repro.network.overlay",
    "repro.network.underlay",
)
