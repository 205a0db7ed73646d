"""Seeded fuzzing of the reductions' block DP against brute force.

The other checks of :class:`~repro.core.reductions.ReductionSolver` hold it
to ``core.optimal``, which prices its search on the same ``_PricedEdges``
table.  Here the reference is ``tests/oracles/optimal.py::brute_force_best``:
``itertools.product`` over the pools and the definition of flow-graph
quality, straight off ``AbstractGraph.quality`` -- no code shared with the
solver.

One integer seed draws a small series-parallel scenario (PATH,
DISJOINT_PATHS, SPLIT_MERGE or multi-sink TREE; at most four instances a
service, the source's included) and its abstract graph.  With the source
pinned to the scenario's instance and free:

* ``ReductionSolver(pareto=True)`` is exact: it fails exactly when
  nothing is feasible, and both the quality it reports and the quality of
  the assignment it returns -- priced by the brute force's own definition
  (``flow_quality``) -- equal the brute force's best: the bandwidth float
  for float (``float.hex``), the latency to a relative 1e-12;
* ``ReductionSolver(pareto=False)`` (the paper's single-best heuristic) is
  never better, and fails exactly then too.

Why not the latency float for float: the DP sums it block by block -- a
series block adds its children's totals, ``l01 + (l13 + l34)`` -- where
the definition sums hop by hop down the critical path, ``(l01 + l13) +
l34``, and the two float sums may differ in the last place.  So may the
sums of two assignments whose latencies tie over the reals: the DP and the
definition then break the tie apart.  In the first 1 000 seeds the
reported latency is an ulp off on 14 (TREE and SPLIT_MERGE, never PATH or
DISJOINT_PATHS), the pick on one; bandwidths are minima and never do.

ROADMAP item 1c; tier-1, a fixed budget (``SEEDS`` runs in about 1.5 s,
some 4 000 seeds a minute).  A seed that fails is a regression case: add
it to ``SEEDS`` and keep it.
"""

import math
import random

import pytest

from repro.core import reductions
from repro.core.reductions import ReductionSolver
from repro.errors import FederationError
from repro.services.abstract_graph import AbstractGraph
from repro.services.requirement import RequirementClass
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.optimal import brute_force_best, flow_quality

CLASSES = (
    RequirementClass.PATH,
    RequirementClass.DISJOINT_PATHS,
    RequirementClass.SPLIT_MERGE,
    RequirementClass.TREE,
)
#: A seed of the budget each hand-made mutant fails, found by running seeds
#: 0-39 under each: the summed parallel latency dies at 22 of them, the
#: single-best prune at three (16, 17 and 24).
MUTANT_SEEDS = {
    "parallel latencies add up": 3,
    "pareto_prune ignores keep_all": 16,
}
#: Where the latency the DP reports (110: a TREE) or the assignment it
#: picks (305: a SPLIT_MERGE, pinned) is an ulp off the brute force's best.
ULP_SEEDS = (110, 305)
SEEDS = (*range(100), *ULP_SEEDS)


def scenario_of(seed):
    rng = random.Random(seed)
    scenario = generate_scenario(
        ScenarioConfig(
            network_size=rng.randrange(8, 16),
            n_services=rng.randrange(4, 8),
            requirement_class=rng.choice(CLASSES),
            instances_per_service=(1, 4),
            single_source_instance=rng.random() < 0.5,
            seed=seed,
        )
    )
    return scenario, AbstractGraph.build(scenario.requirement, scenario.overlay)


def hexed(quality):
    return None if quality is None else (quality.bandwidth.hex(), quality.latency.hex())


def solved(solver, requirement, abstract, pinned):
    try:
        return solver.solve_assignment(requirement, abstract, source_instance=pinned)
    except FederationError:
        return None


def check(seed):
    scenario, abstract = scenario_of(seed)
    requirement = scenario.requirement
    for pinned in (scenario.source_instance, None):
        where = (seed, pinned)
        best = brute_force_best(requirement, abstract, pinned)
        exact = solved(ReductionSolver(pareto=True), requirement, abstract, pinned)
        heuristic = solved(ReductionSolver(pareto=False), requirement, abstract, pinned)
        assert (exact is None) is (best is None), where
        assert (heuristic is None) is (best is None), where
        if best is None:
            continue
        assignment, quality = exact
        for found in (quality, flow_quality(requirement, abstract, assignment)):
            assert found.bandwidth.hex() == best.bandwidth.hex(), where
            assert math.isclose(found.latency, best.latency, rel_tol=1e-12), where
        assert not heuristic[1].is_better_than(quality), where


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_equals_brute_force_and_heuristic_is_never_better(seed):
    check(seed)


def test_the_budget_reaches_every_class():
    """Every requirement class, pinned and free sources with a choice."""
    scenarios = [scenario_of(seed)[0] for seed in SEEDS]
    assert {s.requirement.classify() for s in scenarios} == set(CLASSES)
    assert any(len(s.overlay.instances_of(s.requirement.source)) > 1 for s in scenarios)


def test_the_ulp_seeds_are_an_ulp_off():
    """What ``ULP_SEEDS`` says, so the tolerance above stays explained."""
    for seed in ULP_SEEDS:
        scenario, abstract = scenario_of(seed)
        requirement = scenario.requirement
        off = []
        for pinned in (scenario.source_instance, None):
            best = brute_force_best(requirement, abstract, pinned)
            assignment, quality = ReductionSolver().solve_assignment(
                requirement, abstract, source_instance=pinned
            )
            found = flow_quality(requirement, abstract, assignment)
            off.append(hexed(quality) != hexed(best) or hexed(found) != hexed(best))
        assert any(off), seed


def summed_parallel(a, b):
    return (min(a[0], b[0]), a[1] + b[1], (a[2], b[2]))


def single_best_prune(entries, *, keep_all, prune=reductions.pareto_prune):
    return prune(entries, keep_all=False)


@pytest.mark.parametrize("mutant", sorted(MUTANT_SEEDS))
def test_the_fuzz_kills_the_mutant(mutant, monkeypatch):
    """Two ways to get the DP wrong, each caught: a parallel block whose
    latency is the sum of its branches' instead of the slowest branch's,
    and a prune that keeps only the single best entry even when asked for
    the frontier."""
    if mutant == "parallel latencies add up":
        monkeypatch.setattr(reductions, "_combine_parallel", summed_parallel)
    else:
        monkeypatch.setattr(reductions, "pareto_prune", single_best_prune)
    with pytest.raises(AssertionError):
        check(MUTANT_SEEDS[mutant])
