"""The exhaustive general-block walk the branch-and-bound search replaced,
and the cut-service test ``decompose`` used before dominator chains."""

import itertools
import math

from repro.core.reductions import ReductionSolver, _PricedEdges, pareto_prune
from repro.network.metrics import PathQuality


class ExhaustiveSolver(ReductionSolver):
    """The reference: general blocks solved the way they were before the
    branch-and-bound -- every assignment of ``itertools.product`` priced
    edge by edge through the view, then :func:`pareto_prune`."""

    def work(self, requirement, view):
        """The two-terminal requirement and the priced step of one solve."""
        work_req, self.view = self._two_terminal(requirement, view)
        return work_req, _PricedEdges(work_req, self.view)

    def solve_assignment(self, requirement, view, **kwargs):
        self.view = self._two_terminal(requirement, view)[1]
        return super().solve_assignment(requirement, view, **kwargs)

    def _solve_general(self, block, priced):
        req, view = block.requirement, self.view
        interior = [s for s in req.topological_order() if s not in (block.u, block.v)]
        pools = [view.instances_of(s) for s in interior]
        if math.prod(len(pool) for pool in pools) > self.enumeration_limit:
            return self._solve_general_greedy(block, priced)
        table = {}
        for interior_choice in itertools.product(*pools):
            partial = dict(zip(interior, interior_choice))
            for src in view.instances_of(block.u):
                for dst in view.instances_of(block.v):
                    assignment = dict(partial)
                    assignment[block.u] = src
                    assignment[block.v] = dst
                    quality = self.evaluate(req, assignment)
                    if quality is not None:
                        table.setdefault((src, dst), []).append(
                            (quality.bandwidth, quality.latency, assignment)
                        )
        return {
            key: pareto_prune(entries, keep_all=self.pareto)
            for key, entries in table.items()
        }

    def evaluate(self, req, assignment):
        bandwidth = math.inf
        finish = {req.source: 0.0}
        for sid in req.topological_order()[1:]:
            worst_finish = 0.0
            for pred in req.predecessors(sid):
                [hop] = self.view.price_row(assignment[pred], (assignment[sid],))
                if hop is None:
                    return None
                bandwidth = min(bandwidth, hop[0])
                worst_finish = max(worst_finish, finish[pred] + hop[1])
            finish[sid] = worst_finish
        return PathQuality(bandwidth, max(finish[s] for s in req.sinks))


def cut_services_by_removal(req, u, v):
    """The cut services of a block the way ``decompose`` found them before
    it read ``v``'s dominator chain: every service but the terminals whose
    removal disconnects ``v`` from ``u``, in topological order."""
    return [
        w
        for w in req.topological_order()
        if w not in (u, v) and not _reaches(req, u, v, without=w)
    ]


def _reaches(req, src, dst, *, without):
    seen = {src}
    stack = [src]
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for nxt in req.successors(node):
            if nxt == without or nxt in seen:
                continue
            seen.add(nxt)
            stack.append(nxt)
    return False
