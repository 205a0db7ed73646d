"""The paper's algorithms: baseline, reductions, sFlow, and the controls.

* :mod:`repro.core.baseline` -- the polynomial-time optimal algorithm for
  single-path requirements (paper Table 1).
* :mod:`repro.core.reductions` -- path reduction and split-and-merge
  reduction (paper Sec. 3.4), generalised into a recursive block
  decomposition with an exact dynamic program over series-parallel
  requirements.
* :mod:`repro.core.optimal` -- the global optimal benchmark: exhaustive
  instance assignment with branch-and-bound pruning.
* :mod:`repro.core.alternatives` -- the three control algorithms of the
  evaluation: random, fixed (greedy widest), and single service path.
* :mod:`repro.core.sflow` -- the fully distributed sFlow algorithm running
  on the discrete-event simulator.
"""

from repro.core.baseline import BaselineAlgorithm, solve_path_requirement
from repro.core.reductions import (
    Block,
    GeneralBlock,
    ParallelBlock,
    PathBlock,
    ReductionSolver,
    SeriesBlock,
    decompose,
)
from repro.core.optimal import GlobalOptimalAlgorithm, optimal_flow_graph
from repro.core.alternatives import (
    FixedAlgorithm,
    RandomAlgorithm,
    ServicePathAlgorithm,
)
from repro.core.sflow import SFlowAlgorithm, SFlowConfig, SFlowResult
from repro.core.repair import RepairReport, diagnose, repair_flow_graph
from repro.core.monitor import MonitorConfig, MonitorEvent, MonitorReport, MonitoredFederation
from repro.core.multicast import ServiceTreeAlgorithm
from repro.core.types import FederationAlgorithm, FederationResult

__all__ = [
    "MonitorConfig",
    "MonitorEvent",
    "MonitorReport",
    "MonitoredFederation",
    "ServiceTreeAlgorithm",
    "RepairReport",
    "diagnose",
    "repair_flow_graph",
    "BaselineAlgorithm",
    "Block",
    "FederationAlgorithm",
    "FederationResult",
    "FixedAlgorithm",
    "GeneralBlock",
    "GlobalOptimalAlgorithm",
    "ParallelBlock",
    "PathBlock",
    "RandomAlgorithm",
    "ReductionSolver",
    "SFlowAlgorithm",
    "SFlowConfig",
    "SFlowResult",
    "SeriesBlock",
    "ServicePathAlgorithm",
    "decompose",
    "optimal_flow_graph",
    "solve_path_requirement",
]
