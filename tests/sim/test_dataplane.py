"""Cross-validation: DES data-plane executor vs the analytic recurrence.

Exact agreement between two independent implementations of the streaming
semantics is the strongest correctness check available for both the
simulation kernel and the dataflow model.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reductions import ReductionSolver
from repro.network.metrics import PathQuality
from repro.network.overlay import ServiceInstance
from repro.services.execution import StreamConfig, simulate_stream
from repro.services.flowgraph import FlowEdge, ServiceFlowGraph
from repro.services.requirement import ServiceRequirement
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.dataplane import simulate_stream_des


def chain_graph(bandwidths, latencies):
    sids = [f"n{i}" for i in range(len(bandwidths) + 1)]
    req = ServiceRequirement.from_path(sids)
    instances = {sid: ServiceInstance(sid, i) for i, sid in enumerate(sids)}
    edges = [
        FlowEdge(instances[a], instances[b], PathQuality(bw, lat))
        for (a, b), bw, lat in zip(zip(sids, sids[1:]), bandwidths, latencies)
    ]
    return ServiceFlowGraph(req, instances, edges)


def assert_reports_agree(graph, config):
    analytic = simulate_stream(graph, config)
    des = simulate_stream_des(graph, config)
    assert des.units == analytic.units
    assert set(des.deliveries) == set(analytic.deliveries)
    for sink, times in analytic.deliveries.items():
        assert des.deliveries[sink] == pytest.approx(times)
    assert des.first_delivery == pytest.approx(analytic.first_delivery)
    assert des.last_delivery == pytest.approx(analytic.last_delivery)


class TestAgreement:
    def test_simple_chain(self):
        graph = chain_graph([10.0, 2.0], [1.0, 3.0])
        assert_reports_agree(graph, StreamConfig(units=20))

    def test_with_processing_delays(self):
        graph = chain_graph([10.0, 5.0], [1.0, 1.0])
        assert_reports_agree(
            graph,
            StreamConfig(units=15, processing_delay={"n1": 0.7, "n2": 0.1}),
        )

    def test_with_emit_interval(self):
        graph = chain_graph([10.0], [2.0])
        assert_reports_agree(
            graph, StreamConfig(units=10, emit_interval=1.5)
        )

    def test_diamond(self):
        req = ServiceRequirement(
            edges=[("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]
        )
        inst = {sid: ServiceInstance(sid, i) for i, sid in enumerate("sabt")}
        edges = [
            FlowEdge(inst["s"], inst["a"], PathQuality(8, 1)),
            FlowEdge(inst["a"], inst["t"], PathQuality(4, 2)),
            FlowEdge(inst["s"], inst["b"], PathQuality(6, 5)),
            FlowEdge(inst["b"], inst["t"], PathQuality(12, 1)),
        ]
        graph = ServiceFlowGraph(req, inst, edges)
        assert_reports_agree(graph, StreamConfig(units=25))

    def test_multi_sink(self):
        req = ServiceRequirement(edges=[("s", "x"), ("s", "y")])
        inst = {sid: ServiceInstance(sid, i) for i, sid in enumerate("sxy")}
        edges = [
            FlowEdge(inst["s"], inst["x"], PathQuality(10, 1)),
            FlowEdge(inst["s"], inst["y"], PathQuality(3, 7)),
        ]
        graph = ServiceFlowGraph(req, inst, edges)
        assert_reports_agree(graph, StreamConfig(units=12))

    def test_single_service_delegates(self):
        req = ServiceRequirement(nodes=["solo"])
        graph = ServiceFlowGraph(req, {"solo": ServiceInstance("solo", 0)})
        report = simulate_stream_des(graph, StreamConfig(units=3))
        assert report.units == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_real_federations(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(
                network_size=14,
                n_services=5,
                seed=seed,
                instances_per_service=(2, 3),
            )
        )
        graph = ReductionSolver().solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert_reports_agree(
            graph, StreamConfig(units=30, processing_delay=0.2)
        )

    @given(
        bandwidths=st.lists(
            st.floats(min_value=0.5, max_value=20), min_size=1, max_size=4
        ),
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=8), min_size=4, max_size=4
        ),
        units=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=30, deadline=None)
    def test_agreement_is_universal_on_chains(
        self, bandwidths, latencies, units
    ):
        graph = chain_graph(bandwidths, latencies[: len(bandwidths)])
        assert_reports_agree(graph, StreamConfig(units=units))
