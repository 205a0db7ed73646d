"""Tests for rung 1 of the recovery ladder: the in-place repair of a
degraded session, planned on its overlay with the suspects taken out."""

import random

import pytest

import repro.core.recovery as recovery
from repro.core.reductions import ReductionSolver
from repro.core.repair import repair_flow_graph
from repro.core.sflow import SFlowAlgorithm, SFlowConfig, _Federation
from repro.eval.robustness import GrayFailureConfig
from repro.network.failures import FailureInjector
from repro.obs.clock import Stopwatch
from repro.routing.oracle import RouteOracle
from repro.services.workloads import ScenarioConfig, generate_scenario


def _instances(graph):
    """Every instance a flow graph assigns or routes through."""
    seen = set(graph.assignment.values())
    for edge in graph.edges():
        seen.update(edge.overlay_path)
    return seen


class TestSuspectExclusion:
    def test_a_suspected_source_still_excludes_the_other_suspects(self):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=16, n_services=5, instances_per_service=(2, 4), seed=7
            )
        )
        requirement, overlay = scenario.requirement, scenario.overlay
        source = scenario.source_instance
        graph = ReductionSolver().solve(requirement, overlay, source_instance=source)
        everything_but_source = set(requirement.services()) - {requirement.source}
        # What the repair picks when nothing is excluded: suspecting one of
        # its non-source instances that has an alternative must move it.
        unrestricted = repair_flow_graph(
            graph, overlay, source_instance=source,
            force_repair=everything_but_source,
        ).graph
        other = next(
            inst
            for sid, inst in sorted(unrestricted.assignment.items())
            if sid != requirement.source and len(overlay.instances_of(sid)) > 1
        )
        fed = _Federation(
            requirement, overlay, source,
            SFlowConfig(required_bandwidth=float("inf")), None, Stopwatch(),
        )
        fed.recovery.suspected.update({source, other})
        repaired = fed.recovery._attempt_repair(graph, float("inf"))
        assert repaired is not None
        assert repaired.assignment[requirement.source] == source
        assert other not in _instances(repaired)


# -- the repair on the derived overlay equals the repair from cold ---------------

#: Gray-fault sessions as ``chaos-n40`` runs them: ten 40-host scenarios
#: and 75 sessions at intensity 0.6 make seven repairs that drop suspects.
NETWORK_SIZE, SCENARIOS, SESSIONS, INTENSITY = 40, 10, 75, 0.6


def _gray_repairs():
    """``(overlay, suspect-free overlay, repair_flow_graph kwargs, flow
    graph, report)`` of every in-session repair that dropped suspects."""
    config = GrayFailureConfig()
    cells = []
    for i in range(SCENARIOS):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=NETWORK_SIZE,
                n_services=config.n_services,
                instances_per_service=config.instance_range(NETWORK_SIZE),
                seed=40_001 + i,
            )
        )
        calm = SFlowAlgorithm(config.protocol_config()).federate(
            scenario.requirement, scenario.overlay,
            source_instance=scenario.source_instance,
        )
        required = config.required_fraction * calm.flow_graph.bottleneck_bandwidth()
        algorithm = SFlowAlgorithm(config.protocol_config(required_bandwidth=required))
        cells.append((scenario, algorithm))
    repairs = []
    for k in range(SESSIONS):
        scenario, algorithm = cells[k % SCENARIOS]
        plan = FailureInjector(
            random.Random(41_001 + k), protect=[scenario.source_instance]
        ).gray_plan(
            scenario.overlay,
            intensity=INTENSITY,
            window=config.fault_window,
            heal_after=config.heal_after,
            crash_fraction=config.crash_fraction,
            revive_after=config.revive_after,
            seed=41_001 + k,
        )

        def spy(graph, overlay, **kwargs):
            report = repair_flow_graph(graph, overlay, **kwargs)
            if overlay is not scenario.overlay:
                repairs.append((scenario.overlay, overlay, kwargs, graph, report))
            return report

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recovery, "repair_flow_graph", spy)
            algorithm.federate(
                scenario.requirement, scenario.overlay,
                source_instance=scenario.source_instance, chaos=plan,
            )
    return repairs


def _rows(overlay):
    """Every source's shortest-widest row on ``overlay``, as the oracle
    answers it now."""
    oracle = RouteOracle.default()
    return {src: oracle.tree(overlay, src) for src in overlay.instances()}


class TestDerivedRepair:
    def test_equals_the_repair_on_a_cold_subgraph(self):
        repairs = _gray_repairs()
        assert len(repairs) == 7
        # The rows the sessions left on their suspect-free overlays: carried,
        # repaired at first lookup, or (never read in-session) repaired now.
        derived_rows = [_rows(derived) for _, derived, _, _, _ in repairs]
        for (overlay, derived, kwargs, graph, report), rows in zip(
            repairs, derived_rows
        ):
            RouteOracle.reset_default()
            cold = overlay.subgraph(
                inst for inst in overlay.instances() if inst in derived
            )
            assert len(cold) < len(overlay)
            assert rows == _rows(cold)
            expected = repair_flow_graph(
                graph, cold,
                source_instance=kwargs["source_instance"],
                solver=ReductionSolver(),
                force_repair=kwargs["force_repair"],
            )
            assert report.graph.assignment == expected.graph.assignment
            got = {e.requirement_edge: e for e in report.graph.edges()}
            want = {e.requirement_edge: e for e in expected.graph.edges()}
            assert got.keys() == want.keys()
            for key, edge in want.items():
                assert got[key].quality == edge.quality, key
                assert got[key].overlay_path == edge.overlay_path, key
            assert report.repaired_services == expected.repaired_services
            assert report.unpinned_services == expected.unpinned_services
            assert report.preserved_fraction == expected.preserved_fraction
            assert report.full_refederation == expected.full_refederation
