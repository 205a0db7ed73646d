"""Tests for the executable SAT -> Maximum Service Flow Graph reduction.

The central property (Theorem 1, both directions): the reduced MSFG
instance admits a flow graph with minimum edge weight >= K *iff* the
formula is satisfiable -- checked against brute-force SAT on random
formulas.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.oracles.nphardness import (
    BOUND_K,
    COMPATIBLE_WEIGHT,
    CONFLICT_WEIGHT,
    MsfgInstance,
    SatInstance,
    brute_force_sat,
    decode_assignment,
    flow_graph_min_weight,
    msfg_from_sat,
    solve_sat_via_msfg,
)


class TestSatInstance:
    def test_requires_clauses(self):
        with pytest.raises(ValueError):
            SatInstance(())

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            SatInstance(((1,), ()))

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            SatInstance(((1, 0),))

    def test_variables_sorted_unique(self):
        sat = SatInstance(((3, -1), (1, 2)))
        assert sat.variables == (1, 2, 3)

    def test_satisfied_by(self):
        sat = SatInstance(((1, -2), (2,)))
        assert sat.satisfied_by({1: True, 2: True})
        assert not sat.satisfied_by({1: False, 2: False})

    def test_unassigned_variables_default_false(self):
        sat = SatInstance(((-1,),))
        assert sat.satisfied_by({})


class TestTransformation:
    def test_clause_services_and_literal_instances(self):
        sat = SatInstance(((1, -2, 3), (2, -3)))
        instance = msfg_from_sat(sat)
        req = instance.requirement
        assert set(req.services()) == {"c0", "c1"}
        assert len(instance.overlay.instances_of("c0")) == 3
        assert len(instance.overlay.instances_of("c1")) == 2

    def test_requirement_is_clause_tournament(self):
        sat = SatInstance(((1,), (2,), (3,)))
        req = msfg_from_sat(sat).requirement
        assert req.has_edge("c0", "c1")
        assert req.has_edge("c0", "c2")
        assert req.has_edge("c1", "c2")
        assert req.source == "c0"
        assert req.sinks == ("c2",)

    def test_conflict_edges_have_weight_one(self):
        sat = SatInstance(((1,), (-1,)))
        instance = msfg_from_sat(sat)
        (a,) = instance.overlay.instances_of("c0")
        (b,) = instance.overlay.instances_of("c1")
        assert instance.overlay.link(a, b).metrics.bandwidth == CONFLICT_WEIGHT

    def test_compatible_edges_have_weight_two(self):
        sat = SatInstance(((1,), (2,)))
        instance = msfg_from_sat(sat)
        (a,) = instance.overlay.instances_of("c0")
        (b,) = instance.overlay.instances_of("c1")
        assert instance.overlay.link(a, b).metrics.bandwidth == COMPATIBLE_WEIGHT

    def test_same_literal_in_two_clauses_is_compatible(self):
        sat = SatInstance(((1,), (1,)))
        instance = msfg_from_sat(sat)
        (a,) = instance.overlay.instances_of("c0")
        (b,) = instance.overlay.instances_of("c1")
        assert instance.overlay.link(a, b).metrics.bandwidth == COMPATIBLE_WEIGHT

    def test_single_clause_formula(self):
        assignment = solve_sat_via_msfg(SatInstance(((1, 2),)))
        assert assignment is not None


class TestTheoremBothDirections:
    def test_satisfiable_formula_meets_bound(self):
        # (x or y) and (not x or y): satisfiable with y=True.
        sat = SatInstance(((1, 2), (-1, 2)))
        assignment = solve_sat_via_msfg(sat)
        assert assignment is not None
        assert sat.satisfied_by(assignment)

    def test_unsatisfiable_formula_fails_bound(self):
        # x and not x.
        sat = SatInstance(((1,), (-1,)))
        assert solve_sat_via_msfg(sat) is None

    def test_paper_example_formula(self):
        # The example of Fig. 7:
        # {x,y,z,w}, {~x,~y,z}, {~x,y,~w}, {~y,~z}  (one consistent reading)
        sat = SatInstance(
            ((1, 2, 3, 4), (-1, -2, 3), (-1, 2, -4), (-2, -3))
        )
        expected = brute_force_sat(sat)
        got = solve_sat_via_msfg(sat)
        assert (got is None) == (expected is None)
        if got is not None:
            assert sat.satisfied_by(got)

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=4).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reduction_decides_sat_like_brute_force(self, clauses):
        sat = SatInstance(tuple(tuple(c) for c in clauses))
        expected = brute_force_sat(sat)
        got = solve_sat_via_msfg(sat)
        assert (got is None) == (expected is None)
        if got is not None:
            assert sat.satisfied_by(got)


class TestDecoding:
    def test_decode_sets_selected_literals(self):
        sat = SatInstance(((1,), (2,)))
        instance = msfg_from_sat(sat)
        from tests.oracles.nphardness import _direct_abstract
        from repro.core.optimal import optimal_flow_graph

        graph = optimal_flow_graph(
            instance.requirement,
            instance.overlay,
            abstract=_direct_abstract(instance),
        )
        assignment = decode_assignment(instance, graph)
        assert assignment == {1: True, 2: True}

    def test_flow_graph_min_weight_is_bottleneck(self):
        sat = SatInstance(((1,), (2,)))
        instance = msfg_from_sat(sat)
        from tests.oracles.nphardness import _direct_abstract
        from repro.core.optimal import optimal_flow_graph

        graph = optimal_flow_graph(
            instance.requirement,
            instance.overlay,
            abstract=_direct_abstract(instance),
        )
        assert flow_graph_min_weight(graph) == BOUND_K
