"""JSON (de)serialisation of scenarios, requirements and flow graphs.

A reproduction is only useful downstream if its inputs and outputs can
leave the process: this module round-trips every model object through
plain JSON-compatible dictionaries, so experiments can archive the exact
scenario behind a result and a federated flow graph can be handed to a
deployment layer.

Conventions:

* instances serialise as ``[sid, nid]`` pairs;
* qualities as ``{"bandwidth": ..., "latency": ...}`` (infinities appear
  as the strings ``"inf"`` to stay strict-JSON compatible);
* every ``*_to_dict`` has a ``*_from_dict`` inverse, property-tested for
  round-trip identity in ``tests/services/test_serialization.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import SFlowError
from repro.network.metrics import PathQuality
from repro.network.overlay import OverlayGraph, ServiceInstance
from repro.network.underlay import Underlay
from repro.services.catalog import ServiceCatalog, ServiceType
from repro.services.flowgraph import FlowEdge, ServiceFlowGraph
from repro.services.requirement import ServiceRequirement
from repro.services.workloads import Scenario

JsonDict = Dict[str, Any]


# -- scalars -----------------------------------------------------------------


def _num_to_json(value: float) -> Union[float, str]:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _num_from_json(value: Union[float, int, str]) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def quality_to_dict(quality: PathQuality) -> JsonDict:
    return {
        "bandwidth": _num_to_json(quality.bandwidth),
        "latency": _num_to_json(quality.latency),
    }


def quality_from_dict(data: JsonDict) -> PathQuality:
    return PathQuality(
        _num_from_json(data["bandwidth"]), _num_from_json(data["latency"])
    )


def instance_to_list(instance: ServiceInstance) -> List[Any]:
    return [instance.sid, instance.nid]


def instance_from_list(data: List[Any]) -> ServiceInstance:
    sid, nid = data
    return ServiceInstance(str(sid), int(nid))


# -- requirement ---------------------------------------------------------------


def requirement_to_dict(requirement: ServiceRequirement) -> JsonDict:
    return {
        "services": list(requirement.services()),
        "edges": [list(edge) for edge in requirement.edges()],
    }


def requirement_from_dict(data: JsonDict) -> ServiceRequirement:
    return ServiceRequirement(
        edges=[tuple(edge) for edge in data["edges"]],
        nodes=data["services"],
    )


# -- underlay ------------------------------------------------------------------


def underlay_to_dict(underlay: Underlay) -> JsonDict:
    return {
        "n": underlay.n,
        "links": [
            [link.u, link.v, link.bandwidth, link.latency]
            for link in underlay.links()
        ],
    }


def underlay_from_dict(data: JsonDict) -> Underlay:
    underlay = Underlay(int(data["n"]))
    for u, v, bandwidth, latency in data["links"]:
        underlay.add_link(int(u), int(v), float(bandwidth), float(latency))
    return underlay


# -- catalog ---------------------------------------------------------------------


def catalog_to_dict(catalog: ServiceCatalog) -> JsonDict:
    return {
        "types": [
            {
                "sid": catalog[sid].sid,
                "inputs": sorted(catalog[sid].inputs),
                "outputs": sorted(catalog[sid].outputs),
                "description": catalog[sid].description,
            }
            for sid in catalog.sids()
        ]
    }


def catalog_from_dict(data: JsonDict) -> ServiceCatalog:
    return ServiceCatalog(
        ServiceType(
            sid=entry["sid"],
            inputs=frozenset(entry["inputs"]),
            outputs=frozenset(entry["outputs"]),
            description=entry.get("description", ""),
        )
        for entry in data["types"]
    )


# -- overlay ----------------------------------------------------------------------


def overlay_to_dict(overlay: OverlayGraph) -> JsonDict:
    return {
        "instances": [instance_to_list(inst) for inst in overlay.instances()],
        "links": [
            {
                "src": instance_to_list(link.src),
                "dst": instance_to_list(link.dst),
                "quality": quality_to_dict(link.metrics),
            }
            for inst in overlay.instances()
            for link in overlay.out_links(inst)
        ],
    }


def overlay_from_dict(data: JsonDict) -> OverlayGraph:
    overlay = OverlayGraph()
    for entry in data["instances"]:
        overlay.add_instance(instance_from_list(entry))
    for link in data["links"]:
        overlay.add_link(
            instance_from_list(link["src"]),
            instance_from_list(link["dst"]),
            quality_from_dict(link["quality"]),
        )
    return overlay


# -- flow graph ----------------------------------------------------------------------


def flow_graph_to_dict(graph: ServiceFlowGraph) -> JsonDict:
    return {
        "requirement": requirement_to_dict(graph.requirement),
        "assignment": {
            sid: instance_to_list(inst) for sid, inst in graph.assignment.items()
        },
        "edges": [
            {
                "src": instance_to_list(edge.src),
                "dst": instance_to_list(edge.dst),
                "quality": quality_to_dict(edge.quality),
                "overlay_path": [
                    instance_to_list(inst) for inst in edge.overlay_path
                ],
            }
            for edge in graph.edges()
        ],
    }


def flow_graph_from_dict(data: JsonDict) -> ServiceFlowGraph:
    requirement = requirement_from_dict(data["requirement"])
    assignment = {
        sid: instance_from_list(entry)
        for sid, entry in data["assignment"].items()
    }
    edges = [
        FlowEdge(
            src=instance_from_list(entry["src"]),
            dst=instance_from_list(entry["dst"]),
            quality=quality_from_dict(entry["quality"]),
            overlay_path=tuple(
                instance_from_list(inst) for inst in entry["overlay_path"]
            ),
        )
        for entry in data["edges"]
    ]
    return ServiceFlowGraph(requirement, assignment, edges)


# -- scenario ------------------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> JsonDict:
    return {
        "seed": scenario.seed,
        "underlay": underlay_to_dict(scenario.underlay),
        "overlay": overlay_to_dict(scenario.overlay),
        "catalog": catalog_to_dict(scenario.catalog),
        "requirement": requirement_to_dict(scenario.requirement),
        "source_instance": instance_to_list(scenario.source_instance),
    }


def scenario_from_dict(data: JsonDict) -> Scenario:
    return Scenario(
        underlay=underlay_from_dict(data["underlay"]),
        overlay=overlay_from_dict(data["overlay"]),
        catalog=catalog_from_dict(data["catalog"]),
        requirement=requirement_from_dict(data["requirement"]),
        source_instance=instance_from_list(data["source_instance"]),
        seed=int(data["seed"]),
    )


# -- files ---------------------------------------------------------------------------

_KIND_CODECS = {
    "scenario": (scenario_to_dict, scenario_from_dict, Scenario),
    "flow_graph": (flow_graph_to_dict, flow_graph_from_dict, ServiceFlowGraph),
    "requirement": (requirement_to_dict, requirement_from_dict, ServiceRequirement),
    "overlay": (overlay_to_dict, overlay_from_dict, OverlayGraph),
    "underlay": (underlay_to_dict, underlay_from_dict, Underlay),
}


def save_json(obj: Any, path: Union[str, Path]) -> Path:
    """Write any supported model object to a tagged JSON file."""
    for kind, (encode, _decode, cls) in _KIND_CODECS.items():
        if isinstance(obj, cls):
            payload = {"kind": kind, "data": encode(obj)}
            break
    else:
        raise SFlowError(f"cannot serialise objects of type {type(obj).__name__}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_json(path: Union[str, Path]) -> Any:
    """Read back an object written with :func:`save_json`."""
    payload = json.loads(Path(path).read_text())
    kind = payload.get("kind")
    if kind not in _KIND_CODECS:
        raise SFlowError(f"unknown serialised kind {kind!r} in {path}")
    _encode, decode, _cls = _KIND_CODECS[kind]
    return decode(payload["data"])
