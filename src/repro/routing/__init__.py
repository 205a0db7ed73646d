"""QoS routing algorithms used by the sFlow reproduction.

* :mod:`repro.routing.wang_crowcroft` -- the Wang-Crowcroft orders and the
  route label every tree is made of.
* :mod:`repro.routing.kernel` -- the one implementation of those trees:
  batched shortest-widest and widest-shortest builds over flattened numpy
  adjacency snapshots, held label for label to the pure reference in
  ``tests/oracles/wang_crowcroft.py``.
* :mod:`repro.routing.oracle` -- the process-wide cache of per-source
  routing trees, one state per graph object, that amortises the kernel's
  cost across requests, probes, repairs and algorithms.
* :mod:`repro.routing.link_state` -- a distributed link-state protocol that
  runs on the discrete-event simulator and gives every overlay node its
  *k-hop local view* (the paper assumes a two-hop vicinity).
"""

from repro.routing.kernel import CSRGraph, batched_trees
from repro.routing.link_state import LinkStateReport, collect_local_views
from repro.routing.oracle import OracleStats, RouteOracle
from repro.routing.wang_crowcroft import RouteLabel

__all__ = [
    "CSRGraph",
    "LinkStateReport",
    "OracleStats",
    "RouteOracle",
    "batched_trees",
    "collect_local_views",
    "RouteLabel",
]
