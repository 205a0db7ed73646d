"""The five workloads of the end-to-end benchmark.

Every workload is a fixed *population* of ops over fixed inputs, both
generated from the workload's own base seed: like a benchmark's data set,
the population is part of the workload's definition, so the simulated
statistics (bandwidth against the optimum, simulated convergence time,
protocol messages, served ratio) are the same numbers on every run.  The
``--seed`` of a run draws the arrival order of the ops.  Fresh populations per seed were tried and dropped: per-op cost
varies by 45 % inside a workload, so a 20-second run cannot average a
fresh population down to the bounds the metrics carry.

A workload's :meth:`run` makes only the calls into the program under
test; everything that checks an output lives in :meth:`check`, which runs
after the clock has stopped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.optimal import optimal_flow_graph
from repro.core.repair import repair_flow_graph
from repro.core.sflow import FederationOutcome, SFlowAlgorithm
from repro.eval.experiments import EvaluationConfig, run_trial
from repro.eval.robustness import GrayFailureConfig
from repro.network.failures import (
    FailureInjector,
    degrade_links,
    fail_instances,
    revive_links,
)
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.network.underlay import Underlay, UnderlayConfig
from repro.routing.oracle import RouteOracle
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import RequirementClass, ServiceRequirement
from repro.services.workloads import (
    ScenarioConfig,
    generate_scenario,
    random_requirement,
)

#: The requirement classes the polynomial reductions solve exactly.
REDUCIBLE = (
    RequirementClass.PATH,
    RequirementClass.DISJOINT_PATHS,
    RequirementClass.SPLIT_MERGE,
)

#: Ops per workload under ``--smoke`` (the harness tests use it).
SMOKE_OPS = 6


@dataclass
class Outcome:
    """What one op produced, as returned by the program."""

    #: Every flow graph the op established (``None`` for a failed one).
    graphs: Tuple[Optional[ServiceFlowGraph], ...]
    convergence_time: float
    messages: int
    detail: Any = None


@dataclass
class Checked:
    """The verdict on one op's outcome."""

    served: bool
    #: sFlow bottleneck bandwidth / optimal bottleneck, mean over the
    #: op's flow graphs; 0 for a failed op.
    bandwidth_vs_optimal: float
    #: Fig. 10(a) correctness coefficient against the optimal graph.
    correctness: float


FAILED = Checked(False, 0.0, 0.0)


class CheckFailed(Exception):
    """An op's output is not a valid flow graph for its requirement."""


def check_graph(graph: ServiceFlowGraph) -> None:
    """Complete (``validate`` insists on ``is_complete``), every edge
    reachable, exactly one instance per service."""
    graph.validate()
    requirement = graph.requirement
    assignment = graph.assignment
    if sorted(assignment) != sorted(requirement.services()):
        raise CheckFailed("assignment does not cover the requirement's services")
    for sid, instance in assignment.items():
        if instance.sid != sid:
            raise CheckFailed(f"service {sid} is assigned {instance}")
    for edge in graph.edges():
        a_sid, b_sid = edge.requirement_edge
        if assignment[a_sid] != edge.src or assignment[b_sid] != edge.dst:
            raise CheckFailed(f"edge {a_sid}->{b_sid} leaves the assignment")


def _assignment_text(graph: Optional[ServiceFlowGraph]) -> str:
    if graph is None:
        return "none"
    return ",".join(f"{sid}={inst}" for sid, inst in sorted(graph.assignment.items()))


def _ratio(graph: ServiceFlowGraph, optimal: ServiceFlowGraph) -> float:
    ratio = graph.bottleneck_bandwidth() / optimal.bottleneck_bandwidth()
    if ratio > 1.0 + 1e-9:
        raise CheckFailed(f"flow graph beats the optimum ({ratio})")
    return ratio


class Workload:
    """Fixed inputs plus a population of ops; see the module docstring."""

    name: str
    why: str
    #: Ops in the population (one pass runs each once).  Sized so that a
    #: pass takes about two seconds: a run then fits five to twelve, and
    #: the per-op median over passes needs that many (see README.md).
    ops: int

    #: Untimed ops run before the first pass, so lazy set-up is done.
    warm_up = 5

    population: Sequence[Any]

    def size(self, smoke: bool) -> int:
        return min(self.ops, SMOKE_OPS) if smoke else self.ops

    def warm_up_ops(self) -> Sequence[Any]:
        return self.population[: self.warm_up]

    def begin_pass(self) -> None:
        """Put mutable inputs back to their pristine state."""

    def run(self, op: Any) -> Outcome:
        raise NotImplementedError

    def check(self, op: Any, outcome: Outcome) -> Checked:
        """Validate ``outcome`` and score it against the optimum (untimed)."""
        raise NotImplementedError

    def signature(self, outcome: Outcome) -> str:
        """Canonical text of an outcome: every pass of every run of one
        program must produce the same, and the run digest hashes it."""
        graphs = "|".join(_assignment_text(graph) for graph in outcome.graphs)
        return f"{graphs}#{outcome.convergence_time!r}#{outcome.messages}"


# -- fixed-overlay request workloads ---------------------------------------------


def _layered_overlay(
    rng: random.Random, hosts: int, services: int, per_service: int
) -> Tuple[OverlayGraph, List[str]]:
    """A Waxman underlay carrying services ``u0..``, each on
    ``per_service`` hosts, with ``compatible(ui, uj)`` iff ``i < j``."""
    underlay = Underlay.generate(UnderlayConfig(n=hosts, seed=rng.randrange(2**31)))
    sids = [f"u{i}" for i in range(services)]
    rank = {sid: i for i, sid in enumerate(sids)}
    placement = [
        ServiceInstance(sid, nid)
        for sid in sids
        for nid in rng.sample(range(hosts), per_service)
    ]
    overlay = OverlayGraph.build(underlay, placement, lambda a, b: rank[a] < rank[b])
    return overlay, sids


def _request(
    rng: random.Random,
    overlay: OverlayGraph,
    sids: Sequence[str],
    clazz: RequirementClass,
    n_services: int,
) -> Tuple[ServiceRequirement, ServiceInstance]:
    """A requirement of ``clazz`` over ``n_services`` drawn services
    (relabelled in topological order, so it respects the catalog), and the
    source instance the consumer hands it to."""
    drawn = sorted(rng.sample(range(len(sids)), n_services))
    shape = random_requirement(random.Random(rng.randrange(2**31)), n_services, clazz)
    label = {
        old: sids[drawn[i]] for i, old in enumerate(shape.topological_order())
    }
    requirement = ServiceRequirement(
        edges=[(label[a], label[b]) for a, b in shape.edges()]
    )
    return requirement, rng.choice(overlay.instances_of(requirement.source))


class _RequestWorkload(Workload):
    """Op = one ``SFlowAlgorithm.federate`` against the fixed overlay."""

    overlay: OverlayGraph

    def __init__(self) -> None:
        self.algorithm = SFlowAlgorithm()

    def run(self, op: Tuple[ServiceRequirement, ServiceInstance]) -> Outcome:
        requirement, source = op
        result = self.algorithm.federate(
            requirement, self.overlay, source_instance=source
        )
        return Outcome((result.flow_graph,), result.convergence_time, result.messages)

    def check(self, op: Any, outcome: Outcome) -> Checked:
        requirement, source = op
        return _check_federation(outcome, requirement, self.overlay, source)


def _check_federation(
    outcome: Outcome,
    requirement: ServiceRequirement,
    overlay: OverlayGraph,
    source: ServiceInstance,
    optimal: Optional[ServiceFlowGraph] = None,
) -> Checked:
    (graph,) = outcome.graphs
    if graph is None:
        return FAILED
    check_graph(graph)
    if optimal is None:
        optimal = optimal_flow_graph(requirement, overlay, source_instance=source)
    return Checked(
        True,
        _ratio(graph, optimal),
        graph.correctness_coefficient(optimal),
    )


class ServeWarm(_RequestWorkload):
    name = "serve-warm-n50"
    why = (
        "steady state: distinct reducible requests keep arriving at one fixed "
        "50-host overlay, so per-request planning does the work and generation none"
    )
    ops = 50

    def __init__(self, smoke: bool = False) -> None:
        super().__init__()
        rng = random.Random(50_001)
        self.overlay, sids = _layered_overlay(rng, 50, 8, 6)
        self.population = [
            _request(rng, self.overlay, sids, REDUCIBLE[i % 3], 4 + (i // 3) % 3)
            for i in range(self.size(smoke))
        ]


class GeneralDag(_RequestWorkload):
    name = "general-dag-n40"
    why = (
        "the NP-hard core: GENERAL-class requirements on a fixed 40-host overlay, "
        "where the general-block enumeration dominates and routing is noise"
    )
    ops = 12

    def __init__(self, smoke: bool = False) -> None:
        super().__init__()
        rng = random.Random(40_001)
        self.overlay, sids = _layered_overlay(rng, 40, 6, 6)
        self.population = []
        while len(self.population) < self.size(smoke):
            requirement, source = _request(
                rng, self.overlay, sids, RequirementClass.GENERAL,
                5 + len(self.population) % 2,
            )
            if requirement.classify() is RequirementClass.GENERAL:
                self.population.append((requirement, source))


# -- the paper's campaign cell, cold ------------------------------------------------


class Fig10Cold(Workload):
    name = "fig10-cold-n200"
    why = (
        "the paper's campaign cell, cold, at N=200: generation, overlay build, cold "
        "routing, the optimal search and the baselines; per-request caches cannot help"
    )
    ops = 2

    def __init__(self, smoke: bool = False) -> None:
        # Cell 1 is DISJOINT_PATHS (the service_path control dominates),
        # cell 2 SPLIT_MERGE (sflow and the optimal search do).
        self.population = [
            self._cell(50 if smoke else 200, i + 1) for i in range(self.size(smoke))
        ]

    @staticmethod
    def _cell(network_size: int, index: int) -> ScenarioConfig:
        return ScenarioConfig(
            network_size=network_size,
            n_services=6,
            instances_per_service=EvaluationConfig().instance_range(network_size),
            requirement_class=REDUCIBLE[index % 3],
            seed=200_001 + index,
        )

    def warm_up_ops(self) -> Sequence[ScenarioConfig]:
        # Every op is cold by construction; one small cell is enough to
        # get lazy imports and first-call set-up out of the timed passes.
        return [self._cell(50, 0)]

    def run(self, op: ScenarioConfig) -> Outcome:
        RouteOracle.reset_default()
        records = {r.algorithm: r for r in run_trial(generate_scenario(op))}
        sflow = records["sflow"]
        return Outcome((), sflow.convergence_time, sflow.messages, records)

    def check(self, op: ScenarioConfig, outcome: Outcome) -> Checked:
        records = outcome.detail
        sflow, optimal = records["sflow"], records["optimal"]
        if not optimal.feasible:
            raise CheckFailed(f"cell {op.seed} has no feasible federation")
        if not (sflow.feasible and sflow.assigned_services == sflow.total_services):
            return FAILED
        ratio = sflow.bandwidth / optimal.bandwidth
        if ratio > 1.0 + 1e-9:
            raise CheckFailed(f"sflow beats the optimum on cell {op.seed}")
        return Checked(True, ratio, sflow.correctness)

    def signature(self, outcome: Outcome) -> str:
        return ";".join(
            f"{name}:{r.feasible}:{r.bandwidth!r}:{r.latency!r}:"
            f"{r.messages}:{r.convergence_time!r}"
            for name, r in sorted(outcome.detail.items())
        )


# -- churn: the routing layer used for writes beside reads ----------------------------


@dataclass(frozen=True)
class ChurnOp:
    """The draws of one churn cycle, resolved against the current graph."""

    victim_draw: int
    link_seed: int


class Churn(Workload):
    name = "churn-n100"
    why = (
        "the routing layer used for writes beside reads: fail+repair, degrade+repair, "
        "revive+federate, rejoin+federate on one evolving N=100 overlay"
    )
    ops = 6

    warm_up = 2

    def __init__(self, smoke: bool = False) -> None:
        self.scenario = generate_scenario(
            ScenarioConfig(
                network_size=100,
                n_services=6,
                requirement_class=RequirementClass.SPLIT_MERGE,
                instances_per_service=EvaluationConfig().instance_range(100),
                seed=100_001,
            )
        )
        self.algorithm = SFlowAlgorithm()
        rng = random.Random(100_002)
        self.population = [
            ChurnOp(rng.randrange(2**31), rng.randrange(2**31))
            for _ in range(self.size(smoke))
        ]
        #: ``(victim, sagging links) -> optimal graphs`` of the check pass.
        self._references: Dict[Any, Tuple[ServiceFlowGraph, ...]] = {}
        self.begin_pass()

    def begin_pass(self) -> None:
        scenario = self.scenario
        self.overlay = scenario.overlay
        self.graph = self._federate(scenario.overlay)[0]

    def _federate(self, overlay: OverlayGraph) -> Tuple[ServiceFlowGraph, float, int]:
        scenario = self.scenario
        result = self.algorithm.federate(
            scenario.requirement, overlay, source_instance=scenario.source_instance
        )
        return result.flow_graph, result.convergence_time, result.messages

    def run(self, op: ChurnOp) -> Outcome:
        scenario = self.scenario
        source = scenario.source_instance
        overlay, graph = self.overlay, self.graph
        # 1. an instance of the current flow graph leaves (never the
        #    source, never a service's last instance) -> repair.
        eligible = [
            inst
            for _sid, inst in sorted(graph.assignment.items())
            if inst != source and len(overlay.instances_of(inst.sid)) > 1
        ]
        victim = eligible[op.victim_draw % len(eligible)]
        failed = fail_instances(overlay, [victim])
        repaired = repair_flow_graph(graph, failed, source_instance=source)
        # 2. up to three links of the repaired graph sag to 0.3x -> repair
        #    with the services riding them forced open.
        hops = sorted(
            {
                hop
                for edge in repaired.graph.edges()
                for hop in zip(edge.overlay_path, edge.overlay_path[1:])
            }
        )
        sagging = random.Random(op.link_seed).sample(hops, min(3, len(hops)))
        force = {
            sid
            for edge in repaired.graph.edges()
            if any(hop in sagging for hop in zip(edge.overlay_path, edge.overlay_path[1:]))
            for sid in edge.requirement_edge
        }
        degraded = degrade_links(failed, sagging, bandwidth_factor=0.3)
        rerouted = repair_flow_graph(
            repaired.graph, degraded, source_instance=source, force_repair=force
        )
        # 3. the congestion clears -> federate afresh.
        revived = revive_links(degraded, failed, sagging)
        third, time3, messages3 = self._federate(revived)
        # 4. the departed instance rejoins -> federate afresh.
        rejoined = OverlayGraph.build(
            scenario.underlay,
            list(revived.instances()) + [victim],
            scenario.catalog.compatible,
        )
        fourth, time4, messages4 = self._federate(rejoined)
        self.overlay, self.graph = rejoined, fourth
        return Outcome(
            (repaired.graph, rerouted.graph, third, fourth),
            time3 + time4,
            messages3 + messages4,
            (victim, tuple(sagging)),
        )

    def _optimal(self, overlay: OverlayGraph) -> ServiceFlowGraph:
        scenario = self.scenario
        return optimal_flow_graph(
            scenario.requirement, overlay, source_instance=scenario.source_instance
        )

    def check(self, op: ChurnOp, outcome: Outcome) -> Checked:
        if any(graph is None for graph in outcome.graphs):
            return FAILED
        for graph in outcome.graphs:
            check_graph(graph)
        # Every cycle ends on an overlay rebuilt from the underlay with all
        # instances back, i.e. equal to the pristine one, so the overlays of
        # its four steps can be rebuilt here from the recorded draws.
        if outcome.detail not in self._references:
            victim, sagging = outcome.detail
            pristine = self.scenario.overlay
            failed = fail_instances(pristine, [victim])
            degraded = degrade_links(failed, sagging, bandwidth_factor=0.3)
            without = self._optimal(failed)
            self._references[outcome.detail] = (
                without, self._optimal(degraded), without, self._optimal(pristine),
            )
        references = self._references[outcome.detail]
        ratios = [_ratio(g, ref) for g, ref in zip(outcome.graphs, references)]
        return Checked(
            True,
            sum(ratios) / len(ratios),
            outcome.graphs[-1].correctness_coefficient(references[-1]),
        )


# -- chaos: the reliability machinery ---------------------------------------------------


class Chaos(Workload):
    name = "chaos-n40"
    why = (
        "small graphs under gray faults at intensity 0.6, so routing does little and "
        "retransmit, failover, refederation, the detector and the DES do the work"
    )
    ops = 75

    SCENARIOS = 10
    INTENSITY = 0.6

    def __init__(self, smoke: bool = False) -> None:
        config = GrayFailureConfig()
        network_size = 40
        self.cells = []
        for i in range(self.SCENARIOS):
            scenario = generate_scenario(
                ScenarioConfig(
                    network_size=network_size,
                    n_services=config.n_services,
                    instances_per_service=config.instance_range(network_size),
                    seed=40_001 + i,
                )
            )
            calm = SFlowAlgorithm(config.protocol_config()).federate(
                scenario.requirement, scenario.overlay,
                source_instance=scenario.source_instance,
            )
            required = config.required_fraction * calm.flow_graph.bottleneck_bandwidth()
            algorithm = SFlowAlgorithm(config.protocol_config(required_bandwidth=required))
            self.cells.append((scenario, algorithm))
        self.population = []
        for k in range(self.size(smoke)):
            scenario = self.cells[k % self.SCENARIOS][0]
            chaos_seed = 41_001 + k
            plan = FailureInjector(
                random.Random(chaos_seed), protect=[scenario.source_instance]
            ).gray_plan(
                scenario.overlay,
                intensity=self.INTENSITY,
                window=config.fault_window,
                heal_after=config.heal_after,
                crash_fraction=config.crash_fraction,
                revive_after=config.revive_after,
                seed=chaos_seed,
            )
            self.population.append((k % self.SCENARIOS, plan))
        self._optimal: Dict[int, ServiceFlowGraph] = {}

    def run(self, op: Tuple[int, Any]) -> Outcome:
        cell, plan = op
        scenario, algorithm = self.cells[cell]
        result = algorithm.federate(
            scenario.requirement, scenario.overlay,
            source_instance=scenario.source_instance, chaos=plan,
        )
        return Outcome(
            (result.flow_graph,), result.convergence_time, result.messages,
            result.outcome,
        )

    def check(self, op: Tuple[int, Any], outcome: Outcome) -> Checked:
        cell, _plan = op
        scenario = self.cells[cell][0]
        if (outcome.detail is FederationOutcome.FAILED) != (outcome.graphs[0] is None):
            raise CheckFailed("outcome and flow graph disagree")
        if cell not in self._optimal and outcome.graphs[0] is not None:
            self._optimal[cell] = optimal_flow_graph(
                scenario.requirement, scenario.overlay,
                source_instance=scenario.source_instance,
            )
        return _check_federation(
            outcome, scenario.requirement, scenario.overlay,
            scenario.source_instance, self._optimal.get(cell),
        )

    def signature(self, outcome: Outcome) -> str:
        return f"{super().signature(outcome)}#{outcome.detail.value}"


WORKLOADS: Dict[str, Callable[[bool], Workload]] = {
    cls.name: cls for cls in (ServeWarm, GeneralDag, Fig10Cold, Churn, Chaos)
}
