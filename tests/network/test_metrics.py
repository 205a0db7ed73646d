"""Unit and property tests for the (bandwidth, latency) quality algebra."""

import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.network.metrics import (
    IDEAL,
    UNREACHABLE,
    PathQuality,
    combine_series,
    shortest_widest_key,
)

finite_quality = st.builds(
    PathQuality,
    bandwidth=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    latency=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestConstruction:
    def test_fields(self):
        q = PathQuality(10.0, 2.5)
        assert q.bandwidth == 10.0
        assert q.latency == 2.5

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            PathQuality(-1.0, 0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            PathQuality(1.0, -0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PathQuality(math.nan, 1.0)
        with pytest.raises(ValueError):
            PathQuality(1.0, math.nan)

    def test_immutable(self):
        q = PathQuality(1.0, 1.0)
        with pytest.raises(AttributeError):
            q.bandwidth = 2.0  # type: ignore[misc]

    def test_hashable_by_value(self):
        assert hash(PathQuality(3.0, 4.0)) == hash(PathQuality(3.0, 4.0))
        assert PathQuality(3.0, 4.0) in {PathQuality(3.0, 4.0)}

    def test_slotted(self):
        assert not hasattr(PathQuality(3.0, 4.0), "__dict__")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        """A frozen slotted instance crosses processes (the pooled
        campaign pickles its records), ``inf`` and all."""
        for quality in (PathQuality(3.0, 4.0), IDEAL, UNREACHABLE):
            back = pickle.loads(pickle.dumps(quality, protocol))
            assert type(back) is PathQuality
            assert (back.bandwidth, back.latency) == (quality.bandwidth, quality.latency)
        assert copy.deepcopy(IDEAL) == IDEAL


class TestOrdering:
    def test_wider_wins(self):
        assert PathQuality(20, 100) > PathQuality(10, 1)

    def test_equal_bandwidth_shorter_wins(self):
        assert PathQuality(10, 1) > PathQuality(10, 2)

    def test_equality(self):
        assert PathQuality(10, 1) == PathQuality(10.0, 1.0)

    def test_is_better_than_strict(self):
        q = PathQuality(10, 1)
        assert not q.is_better_than(q)
        assert q.is_better_than(PathQuality(10, 2))

    def test_ideal_is_top(self):
        assert IDEAL > PathQuality(1e9, 0.0)

    def test_unreachable_is_bottom(self):
        assert UNREACHABLE < PathQuality(1e-9, 1e9)

    def test_total_ordering_helpers(self):
        assert PathQuality(5, 5) <= PathQuality(5, 5)
        assert PathQuality(5, 6) < PathQuality(5, 5)
        assert PathQuality(6, 6) >= PathQuality(5, 1)

    def test_sort_key_agrees_with_ordering(self):
        a, b = PathQuality(7, 3), PathQuality(7, 2)
        assert (shortest_widest_key(a) < shortest_widest_key(b)) == (a < b)

    @given(finite_quality, finite_quality)
    def test_order_is_total(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(finite_quality, finite_quality, finite_quality)
    def test_order_is_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c


class TestAlgebra:
    def test_extend_takes_min_bandwidth_and_sums_latency(self):
        q = PathQuality(10, 1).extend(PathQuality(4, 2))
        assert q == PathQuality(4, 3)

    def test_extend_with_ideal_is_identity(self):
        q = PathQuality(10, 1)
        assert IDEAL.extend(q) == q

    @given(finite_quality, finite_quality)
    def test_extension_is_monotone(self, q, link):
        # Extending never improves a path.
        assert q.extend(link) <= q

    @given(finite_quality, finite_quality, finite_quality)
    def test_prefix_dominance(self, a, b, c):
        # A prefix is at least as good as the full path (Dijkstra's
        # correctness hinges on this).
        full = a.extend(b).extend(c)
        prefix = a.extend(b)
        assert prefix >= full

    @given(st.lists(finite_quality, max_size=6))
    def test_combine_series_matches_fold(self, segments):
        combined = combine_series(segments)
        expected = IDEAL
        for seg in segments:
            expected = expected.extend(seg)
        assert combined == expected

    def test_combine_series_empty_is_ideal(self):
        assert combine_series([]) == IDEAL

    @given(st.lists(finite_quality, min_size=1, max_size=6))
    def test_series_bandwidth_is_bottleneck(self, segments):
        combined = combine_series(segments)
        assert combined.bandwidth == min(s.bandwidth for s in segments)
        assert combined.latency == pytest.approx(
            sum(s.latency for s in segments)
        )


class TestReachability:
    def test_unreachable_flag(self):
        assert not UNREACHABLE.reachable

    def test_zero_bandwidth_unreachable(self):
        assert not PathQuality(0.0, 1.0).reachable

    def test_infinite_latency_unreachable(self):
        assert not PathQuality(5.0, math.inf).reachable

    def test_normal_path_reachable(self):
        assert PathQuality(1.0, 1.0).reachable

    def test_ideal_reachable(self):
        assert IDEAL.reachable

    @given(finite_quality)
    def test_extending_by_unreachable_is_unreachable(self, q):
        assert not q.extend(UNREACHABLE).reachable
