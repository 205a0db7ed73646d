"""Unified sim-time observability: metrics, tracing, flight recording.

The three previously disconnected telemetry islands of this codebase --
the sfederate :class:`~repro.core.sflow.RecoveryEvent` log, the
:class:`~repro.routing.oracle.RouteOracle` counters and the
:class:`~repro.core.monitor.MonitoredFederation` probe events -- now feed
one process-wide layer with three parts:

* :mod:`repro.obs.metrics` -- a registry of labelled counters, gauges and
  fixed-bucket histograms; always on (increments are dict updates),
  snapshot-able as plain dicts, mergeable across multiprocessing workers;
* :mod:`repro.obs.trace` -- spans and point events stamped by the DES
  clock (wall clock outside the simulator); **off by default** and
  engineered so the disabled path costs nothing measurable;
* :mod:`repro.obs.recorder` -- the JSONL "flight recorder" sink plus its
  loader; ``python -m repro.tools.trace`` renders recordings.

On top of the base layer, :mod:`repro.obs.causal` holds the sim-time
causal profiler (``sflow-trace profile``).  The JSONL flight recording is
the one recording format; a seeded run replays to an equal recording,
bar host (``wall*``) timings.

Typical use::

    from repro import obs

    with obs.recording("run.jsonl"):
        SFlowAlgorithm(config).federate(requirement, overlay, chaos=chaos)
    # -> run.jsonl now holds per-session spans, recovery/point events,
    #    the metric snapshot and a session summary table.

``start_recording``/``stop_recording`` are the imperative twins for CLIs
and examples.  Recording is per-process; never leave one active across a
``multiprocessing`` fan-out (:func:`repro.eval.experiments.sweep` raises
rather than write a recording its workers' spans and events are not in).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.obs import causal, metrics, trace
from repro.obs.causal import (
    CampaignProfile,
    CriticalStep,
    SessionProfile,
    aggregate_profiles,
    merge_campaigns,
    profile_recording,
    profile_session,
)
from repro.obs.clock import PERF_CLOCK, Lap, Stopwatch
from repro.obs.metrics import (
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
    registry,
)
from repro.obs.recorder import Recorder, Recording, load_recording
from repro.obs.trace import NULL_SPAN, SimClock, Span, Tracer, tracer

__all__ = [
    "CampaignProfile",
    "CriticalStep",
    "Lap",
    "MetricsRegistry",
    "NULL_SPAN",
    "PERF_CLOCK",
    "Recorder",
    "Recording",
    "SessionProfile",
    "SimClock",
    "Span",
    "Stopwatch",
    "Tracer",
    "active_recorder",
    "aggregate_profiles",
    "causal",
    "diff_snapshots",
    "load_recording",
    "merge_campaigns",
    "merge_snapshots",
    "metrics",
    "profile_recording",
    "profile_session",
    "recording",
    "registry",
    "start_recording",
    "stop_recording",
    "trace",
    "tracer",
]

_ACTIVE: Optional[Recorder] = None


def active_recorder() -> Optional[Recorder]:
    """The recorder currently attached to the process tracer, if any."""
    return _ACTIVE


def start_recording(
    target: Union[str, Path, Any],
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> Recorder:
    """Open a flight recorder on ``target`` and attach it to the tracer.

    Only one recording can be active per process; starting a second one
    closes the first.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        stop_recording()
    _ACTIVE = Recorder(target, meta=meta)
    tracer().set_sink(_ACTIVE)
    return _ACTIVE


def stop_recording() -> Optional[Recorder]:
    """Detach and close the active recording (no-op when none is active)."""
    global _ACTIVE
    recorder, _ACTIVE = _ACTIVE, None
    if tracer().sink is recorder:
        tracer().set_sink(None)
    if recorder is not None:
        recorder.close()
    return recorder


@contextmanager
def recording(
    target: Union[str, Path, Any],
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> Iterator[Recorder]:
    """``with obs.recording(path):`` -- record everything inside the block."""
    recorder = start_recording(target, meta=meta)
    try:
        yield recorder
    finally:
        if active_recorder() is recorder:
            stop_recording()
        else:  # a nested start_recording replaced us; just make sure we close
            recorder.close()
