"""Round-trip tests for JSON serialisation of model objects."""

import json
import math

import pytest

from repro.core.reductions import ReductionSolver
from repro.errors import SFlowError
from repro.network.metrics import IDEAL, PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.services.serialization import (
    flow_graph_from_dict,
    flow_graph_to_dict,
    instance_from_list,
    instance_to_list,
    load_json,
    overlay_from_dict,
    overlay_to_dict,
    quality_from_dict,
    quality_to_dict,
    requirement_from_dict,
    requirement_to_dict,
    save_json,
    scenario_from_dict,
    scenario_to_dict,
    underlay_from_dict,
    underlay_to_dict,
)
from repro.services.requirement import ServiceRequirement
from repro.services.workloads import travel_agency_scenario


def overlay_signature(view):
    return (
        tuple(view.instances()),
        tuple(
            (link.src, link.dst, link.metrics)
            for inst in view.instances()
            for link in view.out_links(inst)
        ),
    )


class TestScalars:
    def test_quality_roundtrip(self):
        q = PathQuality(12.5, 3.25)
        assert quality_from_dict(quality_to_dict(q)) == q

    def test_infinite_bandwidth_is_json_safe(self):
        encoded = quality_to_dict(IDEAL)
        text = json.dumps(encoded)  # must not need allow_nan
        assert quality_from_dict(json.loads(text)) == IDEAL

    def test_unreachable_latency_roundtrip(self):
        q = PathQuality(0.0, math.inf)
        assert quality_from_dict(quality_to_dict(q)) == q

    def test_instance_roundtrip_keeps_the_type(self):
        """A tuple-typed instance must come back as an instance, not as the
        two-element list JSON holds (``str`` and ``repr`` would differ)."""
        inst = ServiceInstance("u3", 17)
        encoded = instance_to_list(inst)
        assert encoded == ["u3", 17] and type(encoded) is list
        clone = instance_from_list(json.loads(json.dumps(encoded)))
        assert type(clone) is ServiceInstance
        assert (clone, str(clone), repr(clone)) == (inst, "u3/17", repr(inst))


class TestRequirement:
    def test_roundtrip(self):
        req = ServiceRequirement(
            edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        again = requirement_from_dict(requirement_to_dict(req))
        assert again == req
        assert again.topological_order() == req.topological_order()

    def test_single_service_roundtrip(self):
        req = ServiceRequirement(nodes=["solo"])
        assert requirement_from_dict(requirement_to_dict(req)) == req


class TestNetworks:
    def test_underlay_roundtrip(self, diamond_underlay):
        again = underlay_from_dict(underlay_to_dict(diamond_underlay))
        assert again.n == diamond_underlay.n
        assert [
            (l.u, l.v, l.bandwidth, l.latency) for l in again.links()
        ] == [
            (l.u, l.v, l.bandwidth, l.latency)
            for l in diamond_underlay.links()
        ]

    def test_overlay_roundtrip(self, small_overlay):
        again = overlay_from_dict(overlay_to_dict(small_overlay))
        assert overlay_signature(again) == overlay_signature(small_overlay)

    def test_an_old_file_with_underlay_paths_still_loads(self, small_overlay):
        """Files written while links carried their underlay hosts hold an
        ``underlay_path`` per link: it is ignored on load, and no longer
        written."""
        data = overlay_to_dict(small_overlay)
        assert all(set(link) == {"src", "dst", "quality"} for link in data["links"])
        old = json.loads(json.dumps(data))
        for hosts, link in enumerate(old["links"]):
            link["underlay_path"] = list(range(hosts + 2))
        assert overlay_signature(overlay_from_dict(old)) == overlay_signature(
            overlay_from_dict(data)
        )


class TestFlowGraph:
    def test_roundtrip_preserves_quality(self, travel_scenario):
        graph = ReductionSolver().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        again = flow_graph_from_dict(flow_graph_to_dict(graph))
        assert again.assignment == graph.assignment
        assert again.quality() == graph.quality()
        assert [e.overlay_path for e in again.edges()] == [
            e.overlay_path for e in graph.edges()
        ]


class TestScenario:
    def test_roundtrip(self, travel_scenario):
        again = scenario_from_dict(scenario_to_dict(travel_scenario))
        assert again.requirement == travel_scenario.requirement
        assert again.source_instance == travel_scenario.source_instance
        assert again.seed == travel_scenario.seed
        assert overlay_signature(again.overlay) == overlay_signature(
            travel_scenario.overlay
        )

    def test_roundtripped_scenario_solves_identically(self, travel_scenario):
        again = scenario_from_dict(scenario_to_dict(travel_scenario))
        solve = lambda sc: ReductionSolver().solve(
            sc.requirement, sc.overlay, source_instance=sc.source_instance
        )
        assert solve(again).assignment == solve(travel_scenario).assignment


class TestFiles:
    def test_save_and_load_scenario(self, travel_scenario, tmp_path):
        path = save_json(travel_scenario, tmp_path / "scenario.json")
        loaded = load_json(path)
        assert loaded.requirement == travel_scenario.requirement

    def test_save_and_load_flow_graph(self, travel_scenario, tmp_path):
        graph = ReductionSolver().solve(
            travel_scenario.requirement,
            travel_scenario.overlay,
            source_instance=travel_scenario.source_instance,
        )
        loaded = load_json(save_json(graph, tmp_path / "graph.json"))
        assert loaded.assignment == graph.assignment

    def test_save_requirement_and_overlay(self, small_overlay, tmp_path):
        req = ServiceRequirement.from_path(["src", "mid", "dst"])
        assert load_json(save_json(req, tmp_path / "req.json")) == req
        loaded = load_json(save_json(small_overlay, tmp_path / "ov.json"))
        assert overlay_signature(loaded) == overlay_signature(small_overlay)

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(SFlowError):
            save_json({"not": "supported"}, tmp_path / "x.json")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery", "data": {}}))
        with pytest.raises(SFlowError):
            load_json(path)

    def test_file_is_strict_json(self, travel_scenario, tmp_path):
        path = save_json(travel_scenario, tmp_path / "scenario.json")
        # parse_constant raising proves no Infinity/NaN literals leaked in.
        json.loads(
            path.read_text(),
            parse_constant=lambda c: pytest.fail(f"non-strict constant {c}"),
        )
