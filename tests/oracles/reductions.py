"""The exhaustive general-block walk the branch-and-bound search replaced."""

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
                hop = self.view.quality(assignment[pred], assignment[sid])
                if not hop.reachable:
                    return None
                bandwidth = min(bandwidth, hop.bandwidth)
                worst_finish = max(worst_finish, finish[pred] + hop.latency)
            finish[sid] = worst_finish
        return PathQuality(bandwidth, max(finish[s] for s in req.sinks))
