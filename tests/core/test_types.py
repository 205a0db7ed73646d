"""Tests for the common algorithm types and timing wrapper."""

import re

import pytest

from repro.core.alternatives import FixedAlgorithm, RandomAlgorithm, ServicePathAlgorithm
from repro.core.baseline import BaselineAlgorithm
from repro.core.multicast import ServiceTreeAlgorithm
from repro.core.optimal import GlobalOptimalAlgorithm
from repro.core.reductions import ReductionSolver
from repro.core.sflow import SFlowAlgorithm
from repro.core.types import FederationAlgorithm, FederationResult, timed_solve
from repro.errors import FederationError
from repro.network.overlay import ServiceInstance
from repro.services.requirement import ServiceRequirement
from repro.services.workloads import travel_agency_scenario


@pytest.fixture
def scenario():
    return travel_agency_scenario()


class TestProtocol:
    def test_algorithms_satisfy_protocol(self):
        for algorithm in (
            BaselineAlgorithm(),
            FixedAlgorithm(),
            GlobalOptimalAlgorithm(),
            ReductionSolver(),
            SFlowAlgorithm(),
            ServiceTreeAlgorithm(),
        ):
            assert isinstance(algorithm, FederationAlgorithm)
            assert isinstance(algorithm.name, str) and algorithm.name


#: Every solver that takes a pinned source checks it through ``pinned_pool``.
PINNING_SOLVERS = {
    "baseline": BaselineAlgorithm,
    "random": RandomAlgorithm,
    "fixed": FixedAlgorithm,
    "service_path": ServicePathAlgorithm,
    "service_tree": ServiceTreeAlgorithm,
    "optimal": GlobalOptimalAlgorithm,
    "reductions": ReductionSolver,
}


class TestPinnedSource:
    @pytest.mark.parametrize("stranger", ["other_host", "other_service"])
    @pytest.mark.parametrize("name", sorted(PINNING_SOLVERS))
    def test_a_stranger_pinned_as_source_gets_one_message(self, scenario, name, stranger):
        requirement = scenario.requirement
        if name == "baseline":  # Table 1 takes single service paths only
            requirement = ServiceRequirement.from_path(
                ["travel_engine", "hotel", "currency", "agency"]
            )
        source = requirement.source
        pinned = (
            ServiceInstance(source, 999)
            if stranger == "other_host"
            else scenario.overlay.instances_of("hotel")[0]
        )
        message = f"pinned source {pinned} is not an available instance of {source!r}"
        with pytest.raises(FederationError, match=f"^{re.escape(message)}$"):
            PINNING_SOLVERS[name]().solve(
                requirement, scenario.overlay, source_instance=pinned
            )


class TestTimedSolve:
    def test_result_fields(self, scenario):
        result = timed_solve(
            FixedAlgorithm(),
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert isinstance(result, FederationResult)
        assert result.algorithm == "fixed"
        assert result.elapsed_seconds > 0
        assert result.bandwidth == result.flow_graph.bottleneck_bandwidth()
        assert result.latency == result.flow_graph.end_to_end_latency()

    def test_sflow_detail_attached(self, scenario):
        result = timed_solve(
            SFlowAlgorithm(),
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        detail = result.extras.get("detail")
        assert detail is not None
        assert detail.messages > 0

    def test_plain_algorithm_has_no_detail(self, scenario):
        result = timed_solve(
            FixedAlgorithm(),
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert "detail" not in result.extras


class TestLazySimAttr:
    def test_unknown_attribute_raises(self):
        import repro.sim as sim

        with pytest.raises(AttributeError):
            sim.definitely_not_a_thing
