"""Executable NP-completeness machinery (paper Theorem 1).

The paper proves the **Maximum Service Flow Graph Problem** NP-complete by
reduction from SAT: given clauses ``C = {c_1..c_n}`` over variables
``U = {u_1..u_m}``,

* every clause ``c_i`` becomes a required service (a *service abstract
  node*), and every literal occurrence in the clause becomes one of its
  service instances;
* every pair of instances from *different* clauses is connected; the edge
  weight is ``1`` when the two literals are complementary (``p`` and
  ``not p``) and ``2`` otherwise;
* edges are directed by clause index, making ``c_1`` the source and ``c_n``
  the sink, and the bound is ``K = 2``.

A service flow graph (one instance per clause) with minimum edge weight
``>= K`` then exists **iff** the formula is satisfiable: selected literals
are pairwise non-complementary and can all be set true.

This module builds that transformation *onto the library's own data types*
(a :class:`~repro.services.requirement.ServiceRequirement` over clause
services and an :class:`~repro.network.overlay.OverlayGraph` whose link
bandwidths are the reduction weights), so the exact solver of
:mod:`repro.core.optimal` literally decides SAT for small formulas --
demonstrated against brute force in ``tests/core/test_nphardness.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.optimal import optimal_flow_graph
from repro.errors import FederationError
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.routing.wang_crowcroft import RouteLabel
from repro.services.abstract_graph import AbstractGraph
from repro.services.flowgraph import ServiceFlowGraph
from repro.services.requirement import ServiceRequirement

#: A literal is a non-zero int: ``+v`` for variable ``v``, ``-v`` negated.
Literal = int
Clause = Tuple[Literal, ...]

#: Weight given to edges between complementary literals (the bottleneck
#: every satisfying selection must avoid) and to all other edges.
CONFLICT_WEIGHT = 1.0
COMPATIBLE_WEIGHT = 2.0
BOUND_K = 2.0


@dataclass(frozen=True)
class SatInstance:
    """A CNF formula: a conjunction of clauses over integer variables."""

    clauses: Tuple[Clause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("a SAT instance needs at least one clause")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause: the formula is trivially false")
            if any(lit == 0 for lit in clause):
                raise ValueError("literal 0 is not allowed")

    @property
    def variables(self) -> Tuple[int, ...]:
        return tuple(sorted({abs(lit) for clause in self.clauses for lit in clause}))

    def satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """Whether ``assignment`` (variable -> truth value) satisfies all
        clauses; unassigned variables default to False."""
        for clause in self.clauses:
            if not any(
                assignment.get(abs(lit), False) == (lit > 0) for lit in clause
            ):
                return False
        return True


@dataclass
class MsfgInstance:
    """The Maximum Service Flow Graph instance produced by the reduction."""

    requirement: ServiceRequirement
    overlay: OverlayGraph
    literal_of: Dict[ServiceInstance, Literal]
    bound: float


def msfg_from_sat(sat: SatInstance) -> MsfgInstance:
    """Theorem 1's polynomial transformation, on the library's own types.

    Clause ``c_i`` becomes service ``"c{i}"``; its ``k``-th literal becomes
    instance ``c{i}/<nid>``.  The requirement is the transitive tournament
    over clauses (every pair of clauses ordered by index), so a flow graph
    must select one literal per clause and is scored by the minimum weight
    over *all* cross-clause edges -- exactly the clique semantics of the
    proof.  Edge weights become link bandwidths; latency is a constant 1.
    """
    n = len(sat.clauses)
    requirement = (
        ServiceRequirement(nodes=["c0"])
        if n == 1
        else ServiceRequirement(
            edges=[(f"c{i}", f"c{j}") for i in range(n) for j in range(i + 1, n)]
        )
    )
    overlay = OverlayGraph()
    literal_of: Dict[ServiceInstance, Literal] = {}
    nid = 0
    instances_by_clause: List[List[ServiceInstance]] = []
    for i, clause in enumerate(sat.clauses):
        group = []
        for lit in clause:
            inst = ServiceInstance(f"c{i}", nid)
            nid += 1
            overlay.add_instance(inst)
            literal_of[inst] = lit
            group.append(inst)
        instances_by_clause.append(group)
    for i in range(n):
        for j in range(i + 1, n):
            for a in instances_by_clause[i]:
                for b in instances_by_clause[j]:
                    weight = (
                        CONFLICT_WEIGHT
                        if literal_of[a] == -literal_of[b]
                        else COMPATIBLE_WEIGHT
                    )
                    overlay.add_link(a, b, PathQuality(weight, 1.0))
    return MsfgInstance(requirement, overlay, literal_of, BOUND_K)


def decode_assignment(
    instance: MsfgInstance, flow_graph: ServiceFlowGraph
) -> Dict[int, bool]:
    """Truth assignment from a flow graph's selected literals.

    Selected literals are set true; variables no literal mentions default to
    False ("set the rest of the variables randomly", says the proof -- we
    pick deterministically).  Raises :class:`FederationError` if the
    selection is internally contradictory, which a flow graph meeting the
    bound never is.
    """
    assignment: Dict[int, bool] = {}
    for inst in flow_graph.assignment.values():
        lit = instance.literal_of[inst]
        var, value = abs(lit), lit > 0
        if assignment.get(var, value) != value:
            raise FederationError(
                f"flow graph selects both {var} and its negation"
            )
        assignment[var] = value
    return assignment


def flow_graph_min_weight(flow_graph: ServiceFlowGraph) -> float:
    """``min(w(e))`` over the flow graph's edges -- the quantity Theorem 1
    bounds by ``K`` (identical to the bottleneck bandwidth here).

    A single-clause formula reduces to an edgeless flow graph, whose
    minimum over zero edges is vacuously ``+inf`` (any literal selection
    meets the bound)."""
    if not flow_graph.edges():
        return float("inf")
    return flow_graph.bottleneck_bandwidth()


def _direct_abstract(instance: MsfgInstance):
    """Abstract graph over *direct* links only.

    Theorem 1 scores a selection by the weight of the direct edges between
    the chosen literal nodes.  Routed abstract edges would let the solver
    dodge a weight-1 conflict edge by relaying through a third clause's
    instance (two weight-2 hops), which the proof's semantics forbid, so the
    reduction prices each clause pair by its direct link alone.
    """
    requirement, overlay = instance.requirement, instance.overlay
    return AbstractGraph(
        requirement,
        {sid: overlay.instances_of(sid) for sid in requirement.services()},
        lambda a: {
            link.dst: RouteLabel(link.metrics, 1, (a, link.dst))
            for link in overlay.out_links(a)
        },
    )


def solve_sat_via_msfg(sat: SatInstance) -> Optional[Dict[int, bool]]:
    """Decide SAT by solving the reduced MSFG instance exactly.

    Returns a satisfying assignment, or ``None`` when the optimal flow
    graph's minimum edge weight falls below ``K`` (i.e. every selection is
    forced through a complementary pair -> unsatisfiable).
    """
    instance = msfg_from_sat(sat)
    graph = optimal_flow_graph(
        instance.requirement, instance.overlay, abstract=_direct_abstract(instance)
    )
    if flow_graph_min_weight(graph) < instance.bound:
        return None
    assignment = decode_assignment(instance, graph)
    if not sat.satisfied_by(
        {var: assignment.get(var, False) for var in sat.variables}
    ):
        raise FederationError("reduction produced a non-satisfying assignment")
    return {var: assignment.get(var, False) for var in sat.variables}


def brute_force_sat(sat: SatInstance) -> Optional[Dict[int, bool]]:
    """Reference SAT decision by enumeration (exponential; for tests)."""
    variables = sat.variables
    for values in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if sat.satisfied_by(assignment):
            return assignment
    return None
