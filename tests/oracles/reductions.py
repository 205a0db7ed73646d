"""The exhaustive general-block walk the branch-and-bound search replaced,
the eager block DP that copied an assignment into every entry before
entries carried trails, and the cut-service test ``decompose`` used before
dominator chains."""

import itertools
import math

from repro.core.reductions import ReductionSolver, _PricedEdges, pareto_prune
from repro.network.metrics import PathQuality


class EagerSolver(ReductionSolver):
    """The reference: path, series and parallel blocks solved the way they
    were before entries carried trails -- a path block's survivors each get
    ``{**assignment, sid: inst}``, a combination ``{**left, **right}``."""

    def _solve_path(self, block, priced):
        table = {}
        chain = block.chain
        pools = [priced.pools[sid] for sid in chain]
        for start, src in enumerate(pools[0]):
            layer = {start: [(math.inf, 0.0, {chain[0]: src})]}
            for prev_sid, sid, pool in zip(chain, chain[1:], pools[1:]):
                hops = priced.hops[(prev_sid, sid)]
                nxt = {}
                for j, inst in enumerate(pool):
                    candidates = [
                        (width if width < bandwidth else bandwidth, delay + latency, assignment)
                        for i, entries in layer.items()
                        if hops[i][j] is not None
                        for width, delay in [hops[i][j]]
                        for bandwidth, latency, assignment in entries
                    ]
                    pruned = pareto_prune(candidates, keep_all=self.pareto)
                    if pruned:
                        nxt[j] = [
                            (bandwidth, latency, {**assignment, sid: inst})
                            for bandwidth, latency, assignment in pruned
                        ]
                layer = nxt
                if not layer:
                    break
            for j, entries in layer.items():
                table[(src, pools[-1][j])] = entries
        return table

    def _solve_series(self, block, priced):
        tables = [self._solve_block(child, priced) for child in block.children]
        result = tables[0]
        for nxt in tables[1:]:
            by_src = {}
            for (cut, dst), entries in nxt.items():
                by_src.setdefault(cut, []).append((dst, entries))
            accum = {}
            for (src, cut), left_entries in result.items():
                for dst, right_entries in by_src.get(cut, ()):
                    accum.setdefault((src, dst), []).extend(
                        (min(a[0], b[0]), a[1] + b[1], {**a[2], **b[2]})
                        for a in left_entries
                        for b in right_entries
                    )
            result = self._pruned(accum)
        return result

    def _solve_parallel(self, block, priced):
        tables = [self._solve_block(child, priced) for child in block.children]
        result = tables[0]
        for nxt in tables[1:]:
            result = self._pruned({
                key: [
                    (min(a[0], b[0]), max(a[1], b[1]), {**a[2], **b[2]})
                    for a in left_entries
                    for b in nxt[key]
                ]
                for key, left_entries in result.items()
                if nxt.get(key)
            })
        return result

    def _pruned(self, table):
        pruned = {
            key: pareto_prune(entries, keep_all=self.pareto)
            for key, entries in table.items()
        }
        return {key: entries for key, entries in pruned.items() if entries}


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
