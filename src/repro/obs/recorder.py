"""The federation flight recorder: a JSONL trace/metric stream on disk.

One :class:`Recorder` is a sink for the process tracer
(:func:`repro.obs.trace.tracer`): every span and point event becomes one
JSON line, written in arrival order.  On :meth:`Recorder.close` it appends

* a ``metrics`` record -- the registry delta over the recording window
  (counters accumulated before the recorder attached are subtracted out,
  so a recording made mid-process still describes only its own runs), and
* a ``summary`` record -- per-session (root-span) rows plus stream counts,

so a recording is self-describing: :func:`load_recording` rebuilds it and
``python -m repro.tools.trace`` renders per-session sim-time timelines and
the metric table -- or reports, profiles, diffs and exports it through its
subcommands -- without touching the process that produced it.

Record types (one JSON object per line)::

    {"type": "meta",    "format": "sflow-flight-recorder/2", ...}
    {"type": "span",    "name", "trace", "span", "parent",
                        "start", "end", "clock", "attrs"}
    {"type": "event",   "name", "trace", "span", "time", "clock", "attrs"}
    {"type": "metrics", "snapshot": {...}}                # at close
    {"type": "summary", "spans", "events", "sessions": [...]}  # at close

Recordings written under format ``/2`` by older versions may also carry
``series`` and ``slo`` records; :func:`load_recording` skips them like any
other unknown record type, so ``/1`` and ``/2`` recordings both load.

Recording is strictly per-process: a recorder must never be shared with
multiprocessing workers (forked children would interleave writes).  The
evaluation campaigns instead ship per-cell metric *snapshots* back to the
parent, and their runner refuses to fan out under an active recording --
see :func:`repro.eval.experiments.sweep`.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

FORMAT = "sflow-flight-recorder/2"


class Recorder:
    """Append-only JSONL sink with an end-of-run metrics/summary footer."""

    def __init__(
        self,
        target: Union[str, Path, io.TextIOBase],
        *,
        registry: Optional[Any] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if registry is None:
            from repro.obs import metrics as _metrics

            registry = _metrics.registry()
        self._registry = registry
        self._baseline = registry.snapshot()
        self.path: Optional[Path] = None
        if isinstance(target, (str, Path)):
            self.path = Path(target)
            self._fh: Optional[Any] = self.path.open("w", encoding="utf-8")
        else:
            self._fh = target
        self.spans = 0
        self.events = 0
        self._sessions: List[Dict[str, Any]] = []
        header = {"type": "meta", "format": FORMAT}
        if meta:
            header.update(meta)
        self._write(header)

    @property
    def closed(self) -> bool:
        return self._fh is None

    def emit(self, record: Dict[str, Any]) -> None:
        """Write one trace record (the tracer-sink entry point)."""
        if self._fh is None:
            return
        kind = record.get("type")
        if kind == "span":
            self.spans += 1
            if record.get("parent") is None:
                self._sessions.append(
                    {
                        "trace": record.get("trace"),
                        "name": record.get("name"),
                        "start": record.get("start"),
                        "end": record.get("end"),
                        "clock": record.get("clock"),
                        "attrs": dict(record.get("attrs") or {}),
                    }
                )
        elif kind == "event":
            self.events += 1
        self._write(record)

    def close(self) -> None:
        """Append the metrics delta + session summary and close the file."""
        if self._fh is None:
            return
        from repro.obs import metrics as _metrics

        delta = _metrics.diff_snapshots(self._registry.snapshot(), self._baseline)
        self._write({"type": "metrics", "snapshot": delta})
        self._write(
            {
                "type": "summary",
                "spans": self.spans,
                "events": self.events,
                "sessions": self._sessions,
            }
        )
        fh, self._fh = self._fh, None
        if self.path is not None:
            fh.close()
        else:
            fh.flush()

    def _write(self, record: Dict[str, Any]) -> None:
        self._fh.write(
            json.dumps(record, separators=(",", ":"), default=str) + "\n"
        )

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


@dataclass
class Recording:
    """A parsed flight recording (see :func:`load_recording`)."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)
    summary: Dict[str, Any] = field(default_factory=dict)
    #: ``(line_number, message)`` for lines the loader had to skip.
    errors: List[Any] = field(default_factory=list)

    def sessions(self) -> List[Dict[str, Any]]:
        """Root spans (parent is null), in trace order."""
        roots = [s for s in self.spans if s.get("parent") is None]
        return sorted(roots, key=lambda s: (s.get("trace") or 0, s["span"]))

    def spans_of(self, trace: int) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s.get("trace") == trace]

    def events_of(self, trace: int) -> List[Dict[str, Any]]:
        return [e for e in self.events if e.get("trace") == trace]

    def counter_total(self, name: str) -> float:
        """Sum of one counter over all label series (0 when absent)."""
        record = self.metrics.get(name)
        if record is None or record.get("kind") != "counter":
            return 0.0
        return float(sum(record["values"].values()))


def load_recording(path: Union[str, Path]) -> Recording:
    """Parse a JSONL flight recording back into a :class:`Recording`.

    Unknown record types are ignored (forward compatibility); a recording
    cut short (no metrics/summary footer) still yields its spans/events.
    Malformed lines -- the usual cause is a process killed mid-write, so
    the damage is a truncated *final* line -- are skipped and reported via
    :attr:`Recording.errors` rather than aborting the whole parse.
    Both ``/1`` and ``/2`` recordings load.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        return parse_recording(fh)


def parse_recording(lines: Any) -> Recording:
    """:func:`load_recording` over any iterable of JSONL lines.

    Useful for in-memory recordings (a :class:`Recorder` writing to a
    ``StringIO``) -- e.g. the evaluation sweep profiling cells without
    touching disk.
    """
    recording = Recording()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            recording.errors.append((lineno, f"malformed JSON: {exc}"))
            continue
        if not isinstance(record, dict):
            recording.errors.append((lineno, "record is not an object"))
            continue
        kind = record.get("type")
        if kind == "meta":
            recording.meta = record
        elif kind == "span":
            recording.spans.append(record)
        elif kind == "event":
            recording.events.append(record)
        elif kind == "metrics":
            recording.metrics = record.get("snapshot", {})
        elif kind == "summary":
            recording.summary = record
    return recording
