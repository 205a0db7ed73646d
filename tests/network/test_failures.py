"""Tests for the failure and churn models."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SFlowError
from repro.network.failures import (
    ChannelFault,
    ChaosPlan,
    CrashEvent,
    CrashSchedule,
    FailureInjector,
    FailurePlan,
    GrayFaultPlan,
    LinkDegradationRamp,
    LinkFlap,
    PartitionEvent,
    StragglerNode,
    degrade_links,
    fail_instances,
    fail_links,
    revive_links,
)
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.network.underlay import Underlay, UnderlayConfig
from repro.routing.oracle import RouteOracle
from repro.services.catalog import ServiceCatalog
from repro.services.workloads import travel_agency_scenario


@pytest.fixture
def overlay(small_overlay):
    return small_overlay


SRC = ServiceInstance("src", 0)
MID1 = ServiceInstance("mid", 1)
MID2 = ServiceInstance("mid", 2)
DST = ServiceInstance("dst", 3)


class TestFailInstances:
    def test_removes_instance_and_links(self, overlay):
        after = fail_instances(overlay, [MID1])
        assert MID1 not in after
        assert after.link(SRC, MID1) is None
        assert after.link(SRC, MID2) is not None

    def test_original_untouched(self, overlay):
        before_links = overlay.num_links()
        fail_instances(overlay, [MID1])
        assert overlay.num_links() == before_links
        assert MID1 in overlay

    def test_unknown_instance_rejected(self, overlay):
        with pytest.raises(KeyError):
            fail_instances(overlay, [ServiceInstance("ghost", 9)])

    def test_empty_failure_is_identity(self, overlay):
        after = fail_instances(overlay, [])
        assert len(after) == len(overlay)
        assert after.num_links() == overlay.num_links()


def _induced_subgraph(overlay, victims):
    """The induced sub-overlay over the survivors, derived as
    ``fail_instances`` derives its copy."""
    result = overlay.subgraph(inst for inst in overlay.instances() if inst not in victims)
    RouteOracle.default().derive(overlay, result, removed_instances=victims)
    return result


class TestFailInstancesCopiesRows:
    """``fail_instances`` copies the rows and drops the victims'; the result
    is the induced sub-overlay over the survivors, link object for link
    object, and the oracle carries, drops and repairs the same trees."""

    @pytest.mark.parametrize("model", ["waxman", "erdos_renyi", "barabasi_albert", "ring", "grid"])
    def test_equals_the_induced_subgraph(self, model):
        underlay = Underlay.generate(UnderlayConfig(n=24, model=model, seed=7))
        catalog = ServiceCatalog.from_edges(
            [("A", "B"), ("A", "C"), ("B", "C"), ("C", "D"), ("B", "E")]
        )
        rng = random.Random(model)
        placement = {
            ServiceInstance(sid, rng.randrange(24)) for sid in "ABCD" for _ in range(4)
        }
        lonely = ServiceInstance("E", rng.randrange(24))  # E's only instance
        victims = {lonely, *rng.sample(sorted(placement), 4)}
        overlay = OverlayGraph.build(underlay, placement | {lonely}, catalog.compatible)
        sides = []
        for fail in (_induced_subgraph, fail_instances):
            oracle = RouteOracle.reset_default()
            oracle.warm(overlay, list(overlay.instances()))
            failed = fail(overlay, victims)
            derived = oracle.stats()
            trees = {src: oracle.tree(failed, src) for src in failed.instances()}
            sides.append((failed, derived, trees, oracle.stats()))
        (old, *old_counts), (new, *new_counts) = sides
        assert new_counts == old_counts
        assert old_counts[0].carried and old_counts[0].dropped and old_counts[2].repaired
        assert set(new.instances()) == set(old.instances()) == set(overlay.instances()) - victims
        assert new._by_sid == old._by_sid and "E" not in new._by_sid
        for rows, old_rows in ((new._out, old._out), (new._in, old._in)):
            assert rows.keys() == old_rows.keys()
            for inst, row in rows.items():
                assert row.keys() == old_rows[inst].keys()
                assert all(row[peer] is old_rows[inst][peer] for peer in row)


class TestFailLinks:
    def test_removes_only_named_link(self, overlay):
        after = fail_links(overlay, [(SRC, MID1)])
        assert after.link(SRC, MID1) is None
        assert after.link(MID1, DST) is not None
        assert len(after) == len(overlay)  # instances survive

    def test_unknown_link_rejected(self, overlay):
        with pytest.raises(KeyError):
            fail_links(overlay, [(SRC, DST)])


class TestDegradeLinks:
    def test_scales_bandwidth_and_latency(self, overlay):
        after = degrade_links(
            overlay, [(SRC, MID1)], bandwidth_factor=0.5, latency_factor=2.0
        )
        original = overlay.link(SRC, MID1).metrics
        degraded = after.link(SRC, MID1).metrics
        assert degraded.bandwidth == pytest.approx(original.bandwidth * 0.5)
        assert degraded.latency == pytest.approx(original.latency * 2.0)

    def test_other_links_untouched(self, overlay):
        after = degrade_links(overlay, [(SRC, MID1)], bandwidth_factor=0.1)
        assert after.link(SRC, MID2).metrics == overlay.link(SRC, MID2).metrics

    def test_invalid_factors_rejected(self, overlay):
        with pytest.raises(ValueError):
            degrade_links(overlay, [(SRC, MID1)], bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            degrade_links(overlay, [(SRC, MID1)], latency_factor=0.5)

    def test_amplifying_bandwidth_factor_rejected(self, overlay):
        # A degradation must never *add* capacity.
        with pytest.raises(ValueError, match="bandwidth_factor"):
            degrade_links(overlay, [(SRC, MID1)], bandwidth_factor=1.5)
        with pytest.raises(ValueError, match="bandwidth_factor"):
            degrade_links(overlay, [(SRC, MID1)], bandwidth_factor=-0.5)

    def test_factor_of_exactly_one_allowed(self, overlay):
        after = degrade_links(overlay, [(SRC, MID1)], bandwidth_factor=1.0)
        assert after.link(SRC, MID1).metrics == overlay.link(SRC, MID1).metrics

    def test_unknown_link_rejected(self, overlay):
        with pytest.raises(KeyError):
            degrade_links(overlay, [(SRC, DST)])


class TestFailurePlan:
    def test_apply_combines_links_and_instances(self, overlay):
        plan = FailurePlan(
            failed_instances=(MID1,), failed_links=((SRC, MID2),)
        )
        after = plan.apply(overlay)
        assert MID1 not in after
        assert after.link(SRC, MID2) is None

    def test_empty_plan(self, overlay):
        plan = FailurePlan()
        assert plan.empty
        after = plan.apply(overlay)
        assert len(after) == len(overlay)

    def test_apply_rejects_unknown_instance(self, overlay):
        ghost = ServiceInstance("ghost", 9)
        plan = FailurePlan(failed_instances=(ghost,))
        with pytest.raises(SFlowError, match="ghost"):
            plan.apply(overlay)

    def test_apply_rejects_unknown_link(self, overlay):
        plan = FailurePlan(failed_links=((SRC, DST),))  # no such direct link
        with pytest.raises(SFlowError, match="unknown links"):
            plan.apply(overlay)

    def test_validation_reports_every_problem(self, overlay):
        ghost = ServiceInstance("ghost", 9)
        plan = FailurePlan(
            failed_instances=(ghost,), failed_links=((SRC, DST),)
        )
        with pytest.raises(SFlowError) as excinfo:
            plan.validate_against(overlay)
        assert "unknown instances" in str(excinfo.value)
        assert "unknown links" in str(excinfo.value)


class TestFailureInjector:
    def test_respects_protection(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(
            random.Random(0), protect=[scenario.source_instance]
        )
        plan = injector.instance_failures(scenario.overlay, count=100)
        assert scenario.source_instance not in plan.failed_instances

    def test_keeps_every_service_alive(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(random.Random(1))
        plan = injector.instance_failures(scenario.overlay, count=100)
        after = plan.apply(scenario.overlay)
        for sid in scenario.requirement.services():
            assert after.instances_of(sid), f"service {sid} went extinct"

    def test_kill_switch_disables_keep_alive(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(random.Random(1), keep_service_alive=False)
        plan = injector.instance_failures(scenario.overlay, count=1000)
        after = plan.apply(scenario.overlay)
        assert len(after) == 0

    def test_deterministic_in_seed(self):
        scenario = travel_agency_scenario()
        plans = [
            FailureInjector(random.Random(7)).instance_failures(
                scenario.overlay, count=3
            )
            for _ in range(2)
        ]
        assert plans[0] == plans[1]

    def test_link_failures_bounded_by_count(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(random.Random(2))
        plan = injector.link_failures(scenario.overlay, count=5)
        assert len(plan.failed_links) == 5

    def test_negative_counts_rejected(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(random.Random(0))
        with pytest.raises(ValueError):
            injector.instance_failures(scenario.overlay, count=-1)
        with pytest.raises(ValueError):
            injector.link_failures(scenario.overlay, count=-1)

    def test_targeted_failure_checks_protection(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(
            random.Random(0), protect=[scenario.source_instance]
        )
        with pytest.raises(SFlowError):
            injector.targeted_failure([scenario.source_instance])
        victim = scenario.overlay.instances_of("hotel")[0]
        plan = injector.targeted_failure([victim])
        assert plan.failed_instances == (victim,)


class TestCrashSchedule:
    def test_events_validated(self):
        with pytest.raises(ValueError):
            CrashEvent(MID1, at=-1.0)
        with pytest.raises(ValueError):
            CrashEvent(MID1, at=5.0, revive_at=5.0)  # revival must be later
        with pytest.raises(ValueError, match="duplicate"):
            CrashSchedule(
                events=(CrashEvent(MID1, at=1.0), CrashEvent(MID1, at=2.0))
            )

    def test_validate_against_overlay(self, overlay):
        schedule = CrashSchedule(events=(CrashEvent(MID1, at=1.0),))
        schedule.validate_against(overlay)  # known instance: fine
        ghost = CrashSchedule(
            events=(CrashEvent(ServiceInstance("ghost", 9), at=1.0),)
        )
        with pytest.raises(SFlowError, match="ghost"):
            ghost.validate_against(overlay)

    def test_injector_crash_schedule_is_seeded(self):
        scenario = travel_agency_scenario()
        schedules = [
            FailureInjector(random.Random(11)).crash_schedule(
                scenario.overlay, count=3, window=20.0
            )
            for _ in range(2)
        ]
        assert schedules[0] == schedules[1]
        assert len(schedules[0].events) == 3
        for event in schedules[0].events:
            assert 0.0 <= event.at < 20.0
            assert event.revive_at is None

    def test_crash_rate_selects_fraction_of_overlay(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(
            random.Random(3), keep_service_alive=False
        )
        schedule = injector.crash_schedule(scenario.overlay, crash_rate=0.5)
        assert len(schedule.events) == round(0.5 * len(scenario.overlay))

    def test_count_and_rate_are_mutually_exclusive(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(random.Random(0))
        with pytest.raises(ValueError):
            injector.crash_schedule(scenario.overlay, count=1, crash_rate=0.1)
        with pytest.raises(ValueError):
            injector.crash_schedule(scenario.overlay)

    def test_revive_after_sets_revival_times(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(random.Random(5))
        schedule = injector.crash_schedule(
            scenario.overlay, count=2, revive_after=7.5
        )
        for event in schedule.events:
            assert event.revive_at == pytest.approx(event.at + 7.5)


class TestChaosPlan:
    def test_inactive_by_default(self):
        assert not ChaosPlan().active
        assert ChaosPlan(loss_rate=0.1).active
        assert ChaosPlan(delay_jitter=1.0).active
        assert ChaosPlan(
            schedule=CrashSchedule(events=(CrashEvent(MID1, at=1.0),))
        ).active

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(loss_rate=1.0)
        with pytest.raises(ValueError):
            ChaosPlan(delay_jitter=-1.0)

    def test_injector_builds_full_plan(self):
        scenario = travel_agency_scenario()
        injector = FailureInjector(random.Random(9))
        plan = injector.chaos_plan(
            scenario.overlay, count=2, loss_rate=0.05, delay_jitter=2.0, seed=42
        )
        assert plan.active
        assert plan.seed == 42
        assert len(plan.schedule.events) == 2


# ---------------------------------------------------------------------------
# gray faults
# ---------------------------------------------------------------------------


def _build_overlay():
    """Standalone copy of the ``small_overlay`` fixture for hypothesis."""
    from repro.network.metrics import PathQuality
    from repro.network.overlay import OverlayGraph

    overlay = OverlayGraph()
    overlay.add_link(SRC, MID1, PathQuality(50.0, 5.0))
    overlay.add_link(SRC, MID2, PathQuality(10.0, 1.0))
    overlay.add_link(MID1, DST, PathQuality(50.0, 5.0))
    overlay.add_link(MID2, DST, PathQuality(10.0, 1.0))
    return overlay


_ALL_LINKS = [(SRC, MID1), (SRC, MID2), (MID1, DST), (MID2, DST)]


def _link_state(overlay):
    """Full overlay state as a comparable value: instances + link metrics."""
    instances = frozenset(overlay.instances())
    links = {}
    for inst in overlay.instances():
        for link in overlay.out_links(inst):
            links[(link.src, link.dst)] = link.metrics
    return instances, links


class TestReviveLinks:
    def test_restores_exact_metrics(self, overlay):
        degraded = degrade_links(
            overlay, [(SRC, MID1)], bandwidth_factor=0.3, latency_factor=3.0
        )
        revived = revive_links(degraded, overlay, [(SRC, MID1)])
        assert _link_state(revived) == _link_state(overlay)

    def test_unknown_victim_rejected(self, overlay):
        with pytest.raises(KeyError):
            revive_links(overlay, overlay, [(SRC, DST)])

    def test_victim_missing_from_reference_rejected(self, overlay):
        smaller = fail_links(overlay, [(SRC, MID1)])
        with pytest.raises(KeyError, match="reference"):
            revive_links(overlay, smaller, [(SRC, MID1)])

    def test_untouched_links_keep_current_metrics(self, overlay):
        degraded = degrade_links(
            overlay, [(SRC, MID1), (MID1, DST)], bandwidth_factor=0.5
        )
        revived = revive_links(degraded, overlay, [(SRC, MID1)])
        # Only the named victim is restored; the other stays degraded.
        assert revived.link(SRC, MID1).metrics == overlay.link(SRC, MID1).metrics
        assert revived.link(MID1, DST).metrics == degraded.link(MID1, DST).metrics


class TestLinkMutationsShareWhatDidNotChange:
    """``fail_links`` / ``degrade_links`` / ``revive_links`` are one copy
    primitive (``OverlayGraph.with_links``): every untouched link's
    metrics are the input's own object, and the input never changes."""

    def test_untouched_links_are_the_inputs_own(self, overlay):
        before = _link_state(overlay)
        failed = fail_links(overlay, [(SRC, MID1)])
        degraded = degrade_links(failed, [(SRC, MID2)], bandwidth_factor=0.3)
        revived = revive_links(degraded, overlay, [(SRC, MID2)])
        for after in (failed, degraded, revived):
            assert after.link(SRC, MID1) is None
            for src, dst in ((MID1, DST), (MID2, DST)):
                assert after.link_metrics(src, dst) is overlay.link_metrics(src, dst)
            assert list(after.predecessors(MID1)) == []
        assert failed.link_metrics(SRC, MID2) is overlay.link_metrics(SRC, MID2)
        # A revive restores the reference's own metrics object.
        assert revived.link_metrics(SRC, MID2) is overlay.link_metrics(SRC, MID2)
        assert degraded.link(SRC, MID2).metrics.bandwidth == 3.0
        assert revived.link(SRC, MID2) == overlay.link(SRC, MID2)
        assert _link_state(overlay) == before
        assert _link_state(failed)[1].keys() == before[1].keys() - {(SRC, MID1)}


class TestDegradeReviveRoundTrip:
    """Satellite property: degrade -> revive is the identity on overlay
    state (what the route oracle serves along such a chain is pinned in
    ``tests/routing/test_oracle.py::TestMutationChains``)."""

    @settings(max_examples=40, deadline=None)
    @given(
        victims=st.lists(
            st.sampled_from(_ALL_LINKS), unique=True, min_size=1
        ),
        bandwidth_factor=st.floats(
            min_value=0.01, max_value=1.0, allow_nan=False
        ),
        latency_factor=st.floats(
            min_value=1.0, max_value=10.0, allow_nan=False
        ),
    )
    def test_round_trip_is_identity_and_bumps_epoch(
        self, victims, bandwidth_factor, latency_factor
    ):
        overlay = _build_overlay()
        before = _link_state(overlay)
        degraded = degrade_links(
            overlay,
            victims,
            bandwidth_factor=bandwidth_factor,
            latency_factor=latency_factor,
        )
        revived = revive_links(degraded, overlay, victims)
        # Identity on overlay state (exact, not approximate: metrics are
        # copied from the reference, never recomputed).
        assert _link_state(revived) == before
        assert _link_state(overlay) == before  # inputs never mutated


class TestChannelFault:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChannelFault(loss_rate=1.0)
        with pytest.raises(ValueError):
            ChannelFault(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            ChannelFault(reorder_spread=0.0)
        with pytest.raises(ValueError):
            ChannelFault(start=5.0, end=5.0)

    def test_wildcard_matches_any_pair_in_window(self):
        fault = ChannelFault(loss_rate=0.1, start=10.0, end=20.0)
        assert fault.matches(SRC, MID1, 10.0)
        assert fault.matches(MID2, DST, 19.9)
        assert not fault.matches(SRC, MID1, 9.9)
        assert not fault.matches(SRC, MID1, 20.0)

    def test_endpoint_pinning(self):
        fault = ChannelFault(loss_rate=0.1, src=SRC, dst=MID1)
        assert fault.matches(SRC, MID1, 0.0)
        assert not fault.matches(SRC, MID2, 0.0)
        assert not fault.matches(MID1, SRC, 0.0)


class TestStragglerNode:
    def test_slowdown_validated(self):
        with pytest.raises(ValueError):
            StragglerNode(MID1, slowdown=0.5)
        with pytest.raises(ValueError):
            StragglerNode(MID1, extra=-1.0)

    def test_touches_either_endpoint(self):
        straggler = StragglerNode(MID1, slowdown=3.0)
        assert straggler.touches(MID1, DST, 0.0)
        assert straggler.touches(SRC, MID1, 0.0)
        assert not straggler.touches(SRC, MID2, 0.0)

    def test_extra_delay_scales_latency(self):
        straggler = StragglerNode(MID1, slowdown=3.0, extra=2.0)
        assert straggler.extra_delay(5.0) == pytest.approx(12.0)
        # slowdown of exactly 1 is a pure flat-delay straggler
        flat = StragglerNode(MID1, slowdown=1.0, extra=2.0)
        assert flat.extra_delay(5.0) == pytest.approx(2.0)


class TestLinkDegradationRamp:
    def test_factor_ramps_linearly_to_floor(self):
        ramp = LinkDegradationRamp(
            SRC, MID1, start=10.0, duration=10.0, floor_factor=0.4
        )
        assert ramp.factor_at(0.0) == pytest.approx(1.0)
        assert ramp.factor_at(10.0) == pytest.approx(1.0)
        assert ramp.factor_at(15.0) == pytest.approx(0.7)
        assert ramp.factor_at(20.0) == pytest.approx(0.4)
        assert ramp.factor_at(1000.0) == pytest.approx(0.4)

    def test_floor_validated(self):
        with pytest.raises(ValueError):
            LinkDegradationRamp(SRC, MID1, start=0.0, duration=1.0, floor_factor=0.0)
        with pytest.raises(ValueError):
            LinkDegradationRamp(SRC, MID1, start=0.0, duration=1.0, floor_factor=1.5)
        with pytest.raises(ValueError):
            LinkDegradationRamp(SRC, MID1, start=0.0, duration=0.0, floor_factor=0.5)


class TestLinkFlap:
    def test_duty_cycle(self):
        flap = LinkFlap(SRC, MID1, period=10.0, down_fraction=0.3, start=0.0)
        assert flap.down_at(SRC, MID1, 0.0)
        assert flap.down_at(SRC, MID1, 2.9)
        assert not flap.down_at(SRC, MID1, 3.0)
        assert not flap.down_at(SRC, MID1, 9.9)
        assert flap.down_at(SRC, MID1, 10.0)  # next cycle

    def test_only_named_directed_pair(self):
        flap = LinkFlap(SRC, MID1, period=10.0, down_fraction=0.5)
        assert not flap.down_at(MID1, SRC, 1.0)
        assert not flap.down_at(SRC, MID2, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFlap(SRC, MID1, period=0.0)
        with pytest.raises(ValueError):
            LinkFlap(SRC, MID1, down_fraction=1.0)


class TestPartitionEvent:
    def test_separates_cut_crossing_pairs_until_heal(self):
        partition = PartitionEvent(members=(MID1,), start=5.0, heal_at=15.0)
        assert partition.separates(SRC, MID1, 5.0)
        assert partition.separates(MID1, DST, 10.0)
        assert not partition.separates(SRC, MID2, 10.0)  # same side
        assert not partition.separates(SRC, MID1, 15.0)  # healed
        assert not partition.separates(SRC, MID1, 4.9)  # not yet

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionEvent(members=(), start=0.0, heal_at=1.0)
        with pytest.raises(ValueError):
            PartitionEvent(members=(MID1, MID1), start=0.0, heal_at=1.0)
        with pytest.raises(ValueError):
            PartitionEvent(members=(MID1,), start=1.0, heal_at=1.0)


class TestGrayFaultPlan:
    def test_inactive_when_empty(self, overlay):
        plan = GrayFaultPlan()
        assert not plan.active
        assert not ChaosPlan(gray=plan).active
        assert ChaosPlan(gray=GrayFaultPlan(
            stragglers=(StragglerNode(MID1),)
        )).active

    def test_validate_against_reports_every_problem(self, overlay):
        ghost = ServiceInstance("ghost", 9)
        plan = GrayFaultPlan(
            stragglers=(StragglerNode(ghost),),
            ramps=(
                LinkDegradationRamp(
                    SRC, DST, start=0.0, duration=1.0, floor_factor=0.5
                ),
            ),
        )
        with pytest.raises(SFlowError) as excinfo:
            plan.validate_against(overlay)
        assert "straggler" in str(excinfo.value)
        assert "ramp" in str(excinfo.value)

    def test_bandwidth_factor_multiplies_matching_ramps(self, overlay):
        plan = GrayFaultPlan(
            ramps=(
                LinkDegradationRamp(
                    SRC, MID1, start=0.0, duration=10.0, floor_factor=0.5
                ),
                LinkDegradationRamp(
                    SRC, MID1, start=0.0, duration=10.0, floor_factor=0.5
                ),
            )
        )
        assert plan.bandwidth_factor(SRC, MID1, 1000.0) == pytest.approx(0.25)
        assert plan.bandwidth_factor(MID1, DST, 1000.0) == pytest.approx(1.0)

    def test_faulty_instances_collects_stragglers_and_partitions(self):
        plan = GrayFaultPlan(
            stragglers=(StragglerNode(MID1),),
            partitions=(
                PartitionEvent(members=(MID2,), start=0.0, heal_at=10.0),
            ),
        )
        assert plan.faulty_instances() == frozenset({MID1, MID2})


class TestGrayPlanInjector:
    def test_zero_intensity_is_inactive(self, overlay):
        injector = FailureInjector(random.Random(0))
        plan = injector.gray_plan(overlay, intensity=0.0, seed=3)
        assert not plan.active
        assert plan.seed == 3

    def test_intensity_scales_fault_population(self, overlay):
        scenario = travel_agency_scenario()
        mild = FailureInjector(random.Random(0)).gray_plan(
            scenario.overlay, intensity=0.2, seed=1
        )
        harsh = FailureInjector(random.Random(0)).gray_plan(
            scenario.overlay, intensity=0.9, seed=1
        )
        assert mild.active and harsh.active
        assert len(harsh.gray.stragglers) >= len(mild.gray.stragglers)
        assert len(harsh.gray.ramps) >= len(mild.gray.ramps)
        assert harsh.gray.channel_faults[0].loss_rate > (
            mild.gray.channel_faults[0].loss_rate
        )

    def test_same_seed_same_plan(self):
        scenario = travel_agency_scenario()
        plans = [
            FailureInjector(random.Random(42)).gray_plan(
                scenario.overlay, intensity=0.6, heal_after=20.0, seed=9
            )
            for _ in range(2)
        ]
        assert plans[0] == plans[1]

    def test_protected_instances_never_straggle_or_partition(self):
        scenario = travel_agency_scenario()
        protected = scenario.source_instance
        for seed in range(5):
            plan = FailureInjector(
                random.Random(seed), protect=[protected]
            ).gray_plan(
                scenario.overlay, intensity=1.0 - 1e-9, heal_after=20.0, seed=seed
            )
            assert protected not in plan.gray.faulty_instances()

    def test_plan_validates_against_its_overlay(self):
        scenario = travel_agency_scenario()
        plan = FailureInjector(random.Random(3)).gray_plan(
            scenario.overlay, intensity=0.7, heal_after=10.0, seed=2
        )
        plan.gray.validate_against(scenario.overlay)  # must not raise

    def test_invalid_intensity_rejected(self, overlay):
        injector = FailureInjector(random.Random(0))
        with pytest.raises(ValueError):
            injector.gray_plan(overlay, intensity=1.5)
        with pytest.raises(ValueError):
            injector.gray_plan(overlay, intensity=-0.1)
