"""Distance-vector widest paths vs the centralised computation."""

import pytest

from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.distance_vector import run_distance_vector
from tests.oracles.wang_crowcroft import widest_bandwidths


@pytest.fixture
def line_overlay():
    overlay = OverlayGraph()
    insts = [ServiceInstance(s, i) for i, s in enumerate("abcd")]
    overlay.add_link(insts[0], insts[1], PathQuality(10, 1))
    overlay.add_link(insts[1], insts[2], PathQuality(4, 1))
    overlay.add_link(insts[2], insts[3], PathQuality(8, 1))
    return overlay, insts


class TestBasics:
    def test_chain_bottlenecks(self, line_overlay):
        overlay, insts = line_overlay
        report = run_distance_vector(overlay)
        assert report.bandwidth(insts[0], insts[3]) == 4.0
        assert report.bandwidth(insts[1], insts[3]) == 4.0
        assert report.bandwidth(insts[2], insts[3]) == 8.0

    def test_self_bandwidth_infinite(self, line_overlay):
        overlay, insts = line_overlay
        report = run_distance_vector(overlay)
        assert report.bandwidth(insts[0], insts[0]) == float("inf")

    def test_unreachable_is_zero(self, line_overlay):
        overlay, insts = line_overlay
        report = run_distance_vector(overlay)
        # Links are directed: d cannot reach a.
        assert report.bandwidth(insts[3], insts[0]) == 0.0

    def test_next_hops_follow_widest_route(self):
        overlay = OverlayGraph()
        s = ServiceInstance("s", 0)
        narrow = ServiceInstance("m", 1)
        wide = ServiceInstance("m", 2)
        t = ServiceInstance("t", 3)
        overlay.add_link(s, narrow, PathQuality(2, 1))
        overlay.add_link(narrow, t, PathQuality(2, 1))
        overlay.add_link(s, wide, PathQuality(9, 1))
        overlay.add_link(wide, t, PathQuality(9, 1))
        report = run_distance_vector(overlay)
        assert report.next_hops[s][t] == wide
        assert report.bandwidth(s, t) == 9.0

    def test_messages_and_convergence_recorded(self, line_overlay):
        overlay, _ = line_overlay
        report = run_distance_vector(overlay)
        assert report.messages > 0
        assert report.converged_at > 0


class TestAgainstCentralised:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_widest_bandwidths_on_random_overlays(self, seed):
        scenario = generate_scenario(
            ScenarioConfig(network_size=14, n_services=5, seed=seed)
        )
        overlay = scenario.overlay
        report = run_distance_vector(overlay)
        for src in overlay.instances():
            expected = widest_bandwidths(overlay.successors, src)
            for dst in overlay.instances():
                if dst == src:
                    continue
                assert report.bandwidth(src, dst) == pytest.approx(
                    expected.get(dst, 0.0)
                ), (src, dst)

    def test_deterministic(self):
        scenario = generate_scenario(
            ScenarioConfig(network_size=12, n_services=5, seed=3)
        )
        a = run_distance_vector(scenario.overlay)
        b = run_distance_vector(scenario.overlay)
        assert a.tables == b.tables
        assert a.next_hops == b.next_hops
        assert a.messages == b.messages
