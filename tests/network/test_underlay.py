"""Tests for the physical-network substrate and its topology generators."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.metrics import UNREACHABLE, PathQuality
from repro.network.underlay import (
    WAXMAN_ALPHA,
    WAXMAN_BETA,
    Underlay,
    UnderlayConfig,
    UnderlayLink,
    _waxman_edges,
)


class TestUnderlayLink:
    def test_metrics_view(self):
        link = UnderlayLink(0, 1, 10.0, 2.0)
        assert link.metrics == PathQuality(10.0, 2.0)
        assert link.endpoints() == (0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            UnderlayLink(3, 3, 1.0, 1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            UnderlayLink(0, 1, 0.0, 1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            UnderlayLink(0, 1, 1.0, -1.0)


class TestConstruction:
    def test_empty_underlay_rejected(self):
        with pytest.raises(ValueError):
            Underlay(0)

    def test_add_and_lookup(self):
        net = Underlay(3)
        net.add_link(0, 1, 5.0, 1.0)
        assert net.has_link(0, 1)
        assert net.has_link(1, 0)  # undirected
        assert not net.has_link(0, 2)
        assert net.link(1, 0).bandwidth == 5.0

    def test_duplicate_link_rejected(self):
        net = Underlay(2)
        net.add_link(0, 1, 5.0, 1.0)
        with pytest.raises(ValueError):
            net.add_link(1, 0, 6.0, 1.0)

    def test_unknown_node_rejected(self):
        net = Underlay(2)
        with pytest.raises(KeyError):
            net.add_link(0, 5, 1.0, 1.0)

    def test_neighbors_are_symmetric(self):
        net = Underlay(3)
        net.add_link(0, 1, 5.0, 1.0)
        assert [n for n, _ in net.neighbors(0)] == [1]
        assert [n for n, _ in net.neighbors(1)] == [0]

    def test_degree(self):
        net = Underlay(4)
        net.add_link(0, 1, 1, 1)
        net.add_link(0, 2, 1, 1)
        assert net.degree(0) == 2
        assert net.degree(3) == 0


class TestConnectivity:
    def test_disconnected_detected(self):
        net = Underlay(4)
        net.add_link(0, 1, 1, 1)
        net.add_link(2, 3, 1, 1)
        assert not net.is_connected()

    def test_connected_detected(self):
        net = Underlay(3)
        net.add_link(0, 1, 1, 1)
        net.add_link(1, 2, 1, 1)
        assert net.is_connected()


class TestRouting:
    def test_diamond_prefers_wide_path(self, diamond_underlay):
        quality, path = diamond_underlay.shortest_widest_path(0, 3)
        assert path == [0, 2, 3]
        assert quality == PathQuality(50.0, 10.0)

    def test_unreachable_pair(self):
        net = Underlay(3)
        net.add_link(0, 1, 1, 1)
        quality, path = net.shortest_widest_path(0, 2)
        assert quality == UNREACHABLE
        assert path == []

    def test_self_path_is_ideal(self, diamond_underlay):
        quality, path = diamond_underlay.shortest_widest_path(1, 1)
        assert path == [1]
        assert quality.bandwidth == math.inf
        assert quality.latency == 0.0

    def test_path_quality_of_explicit_path(self, diamond_underlay):
        assert diamond_underlay.path_quality([0, 1, 3]) == PathQuality(10.0, 2.0)

    def test_path_quality_of_broken_path(self, diamond_underlay):
        assert diamond_underlay.path_quality([0, 3]) == UNREACHABLE


class TestConfigValidation:
    def test_too_small(self):
        with pytest.raises(ValueError):
            UnderlayConfig(n=1)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            UnderlayConfig(n=5, model="smallworld")

    def test_bad_bandwidth_range(self):
        with pytest.raises(ValueError):
            UnderlayConfig(n=5, bandwidth_range=(10.0, 5.0))
        with pytest.raises(ValueError):
            UnderlayConfig(n=5, bandwidth_range=(0.0, 5.0))

    def test_bad_latency_range(self):
        with pytest.raises(ValueError):
            UnderlayConfig(n=5, latency_range=(5.0, 1.0))


class TestGeneration:
    @pytest.mark.parametrize(
        "model", ["waxman", "erdos_renyi", "barabasi_albert", "ring", "grid"]
    )
    def test_models_generate_connected_networks(self, model):
        net = Underlay.generate(UnderlayConfig(n=20, model=model, seed=3))
        assert net.n == 20
        assert net.is_connected()

    def test_generation_is_deterministic(self):
        cfg = UnderlayConfig(n=15, seed=42)
        a = Underlay.generate(cfg)
        b = Underlay.generate(cfg)
        assert [
            (l.u, l.v, l.bandwidth, l.latency) for l in a.links()
        ] == [(l.u, l.v, l.bandwidth, l.latency) for l in b.links()]

    def test_different_seeds_differ(self):
        a = Underlay.generate(UnderlayConfig(n=15, seed=1))
        b = Underlay.generate(UnderlayConfig(n=15, seed=2))
        assert [
            (l.u, l.v) for l in a.links()
        ] != [(l.u, l.v) for l in b.links()]

    def test_weights_within_ranges(self):
        cfg = UnderlayConfig(
            n=12, bandwidth_range=(10.0, 20.0), latency_range=(1.0, 2.0), seed=5
        )
        net = Underlay.generate(cfg)
        for link in net.links():
            assert 10.0 <= link.bandwidth <= 20.0
            assert 1.0 <= link.latency <= 2.0

    def test_ring_shape(self):
        net = Underlay.generate(
            UnderlayConfig(n=6, model="ring", seed=0, ensure_connected=False)
        )
        assert all(net.degree(i) >= 2 for i in net.nodes())

    def test_grid_is_connected_without_tree(self):
        net = Underlay.generate(
            UnderlayConfig(n=9, model="grid", seed=0, ensure_connected=False)
        )
        assert net.is_connected()

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_generated_networks_always_connected(self, n, seed):
        net = Underlay.generate(UnderlayConfig(n=n, seed=seed))
        assert net.is_connected()

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_barabasi_albert_connected(self, n, seed):
        net = Underlay.generate(
            UnderlayConfig(n=n, model="barabasi_albert", seed=seed,
                           ensure_connected=False)
        )
        assert net.is_connected()


def waxman_edges_computed_first(n, rng):
    """The Waxman loop that computes every pair's probability before it
    draws: the reference the draw-first loop is held to."""
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    scale = WAXMAN_ALPHA * math.sqrt(2.0)
    edges = set()
    for u, v in itertools.combinations(range(n), 2):
        dx = positions[u][0] - positions[v][0]
        dy = positions[u][1] - positions[v][1]
        dist = math.hypot(dx, dy)
        if rng.random() < WAXMAN_BETA * math.exp(-dist / scale):
            edges.add((u, v))
    return edges


@pytest.mark.parametrize("n", [10, 200])
def test_waxman_draws_first_and_keeps_every_edge(n):
    """A draw that is not below beta fails at any distance, so skipping
    its arithmetic keeps the edges -- and the stream: the next draw
    after the loop is the same too."""
    for seed in range(50):
        fast, slow = random.Random(seed), random.Random(seed)
        assert _waxman_edges(n, fast) == waxman_edges_computed_first(n, slow), seed
        assert fast.random() == slow.random(), seed
