"""QoS routing algorithms used by the sFlow reproduction.

* :mod:`repro.routing.wang_crowcroft` -- the centralised shortest-widest path
  computation (modified Dijkstra) used by the baseline algorithm and for
  deriving overlay edge weights from the underlay.
* :mod:`repro.routing.link_state` -- a distributed link-state protocol that
  runs on the discrete-event simulator and gives every overlay node its
  *k-hop local view* (the paper assumes a two-hop vicinity).
* :mod:`repro.routing.oracle` -- the process-wide cache of per-source
  routing trees, one state per graph object, that amortises the
  Wang-Crowcroft cost across requests, probes and algorithms.
* :mod:`repro.routing.kernel` -- the vectorized CSR kernel behind the
  oracle's cold path: batched, bit-identical Wang-Crowcroft tree builds
  over flattened numpy adjacency snapshots.
"""

from repro.routing.distance_vector import DistanceVectorReport, run_distance_vector
from repro.routing.kernel import CSRGraph, batched_trees
from repro.routing.link_state import LinkStateReport, collect_local_views
from repro.routing.oracle import OracleStats, RouteOracle
from repro.routing.wang_crowcroft import (
    RouteLabel,
    all_pairs_shortest_widest,
    shortest_widest_path,
    shortest_widest_tree,
    widest_bandwidths,
    widest_path_bandwidth,
    widest_shortest_tree,
)

__all__ = [
    "CSRGraph",
    "DistanceVectorReport",
    "LinkStateReport",
    "OracleStats",
    "RouteOracle",
    "batched_trees",
    "collect_local_views",
    "run_distance_vector",
    "RouteLabel",
    "all_pairs_shortest_widest",
    "shortest_widest_path",
    "shortest_widest_tree",
    "widest_bandwidths",
    "widest_path_bandwidth",
    "widest_shortest_tree",
]
