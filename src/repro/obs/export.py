"""Exporters: open flight-recorder data in standard external tooling.

Two formats, chosen because they make our recordings legible to the two
ecosystems an operator already lives in:

* :func:`prometheus_exposition` renders a metrics snapshot (the
  ``metrics`` record of a recording, or any live registry snapshot) in
  the Prometheus text exposition format -- counters with the ``_total``
  suffix, histograms as cumulative ``_bucket{le=...}`` series plus
  ``_sum``/``_count``, dots mangled to underscores, label values escaped
  per the spec.  The output can be scraped, pushed to a Pushgateway, or
  diffed against a PromQL recording rule.
* :func:`chrome_trace` converts spans and point events into the
  Chrome/Perfetto trace-event JSON format: complete ``"X"`` slices per
  span, ``"i"`` instants per event, one named thread per federation
  session.  Load the file at ``ui.perfetto.dev`` and the whole campaign
  becomes a zoomable timeline.

Sim-time is mapped to trace microseconds 1:1 (one virtual time unit =
1 µs), keeping slice arithmetic exact for the integer-friendly virtual
timestamps the simulator produces.

Both functions are pure: recording/snapshot dicts in, text/JSON-able
dicts out.  The CLI wiring is the ``export`` subcommand of
:mod:`repro.tools.trace`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.recorder import Recording

__all__ = ["chrome_trace", "prometheus_exposition"]

#: One unit of virtual sim time renders as this many trace microseconds.
_US_PER_SIM_UNIT = 1e6


# -- Prometheus text exposition ----------------------------------------------


def _prom_name(name: str) -> str:
    """Mangle a dotted metric name into the Prometheus grammar."""
    mangled = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if mangled and mangled[0].isdigit():
        mangled = "_" + mangled
    return mangled


def _prom_escape(value: str) -> str:
    """Escape a label value per the text-format rules."""
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _prom_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: str, extra: Optional[Tuple[str, str]] = None) -> str:
    """``"a=1,b=x"`` (our label string) -> ``{a="1",b="x"}`` (or ``""``)."""
    pairs: List[Tuple[str, str]] = []
    if labels:
        for part in labels.split(","):
            key, _, value = part.partition("=")
            pairs.append((_prom_name(key), value))
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _prom_bound(bound: float) -> str:
    """A ``le`` bound label value (``+Inf`` for the overflow bucket)."""
    if bound == float("inf"):
        return "+Inf"
    as_float = float(bound)
    if as_float.is_integer():
        return str(as_float)  # Prometheus convention: "1.0", not "1"
    return repr(as_float)


def prometheus_exposition(
    snapshot: Dict[str, dict], *, help_texts: Optional[Dict[str, str]] = None
) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format.

    ``snapshot`` is the plain-dict form produced by
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (also what a
    recording's ``metrics`` record carries).  Counter samples get the
    conventional ``_total`` suffix; histograms expand to cumulative
    ``_bucket`` series with an explicit ``+Inf`` bucket plus ``_sum`` and
    ``_count``.  Output ends with a newline, as scrapers expect.
    """
    help_texts = help_texts or {}
    lines: List[str] = []
    for name in sorted(snapshot):
        record = snapshot[name]
        kind = record["kind"]
        base = _prom_name(name)
        sample_name = base + "_total" if kind == "counter" else base
        help_text = help_texts.get(name, f"repro metric {name}")
        lines.append(f"# HELP {sample_name} {_prom_help(help_text)}")
        lines.append(f"# TYPE {sample_name} {kind}")
        if kind in ("counter", "gauge"):
            for labels in sorted(record["values"]):
                value = record["values"][labels]
                lines.append(
                    f"{sample_name}{_prom_labels(labels)} {_prom_value(value)}"
                )
        elif kind == "histogram":
            bounds = [float(b) for b in record["bounds"]] + [float("inf")]
            for labels in sorted(record["values"]):
                series = record["values"][labels]
                cumulative = 0.0
                for bound, count in zip(bounds, series["buckets"]):
                    cumulative += count
                    le = _prom_labels(labels, ("le", _prom_bound(bound)))
                    lines.append(
                        f"{base}_bucket{le} {_prom_value(cumulative)}"
                    )
                lines.append(
                    f"{base}_sum{_prom_labels(labels)} "
                    f"{_prom_value(series['sum'])}"
                )
                lines.append(
                    f"{base}_count{_prom_labels(labels)} "
                    f"{_prom_value(series['count'])}"
                )
        else:  # pragma: no cover - future-proofing
            raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
    return "\n".join(lines) + "\n" if lines else ""


# -- Chrome/Perfetto trace JSON ----------------------------------------------


def _ts(sim_time: float) -> float:
    return sim_time * _US_PER_SIM_UNIT


def chrome_trace(recording: Recording) -> Dict[str, Any]:
    """Convert a recording into Chrome trace-event JSON (Perfetto-loadable).

    Layout: one process (pid 1, named after the recording format), one
    thread per trace id named after its root session span.  Spans become
    complete ``"X"`` slices and point events ``"i"`` instants
    (free-standing events land on tid 0).
    """
    events: List[Dict[str, Any]] = []
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {
                "name": recording.meta.get("format", "sflow-flight-recorder")
            },
        }
    )
    named_tids = set()
    for session in recording.sessions():
        tid = session.get("trace") or 0
        if tid in named_tids:
            continue
        named_tids.add(tid)
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"{session['name']} (trace {tid})"},
            }
        )
    for span in recording.spans:
        start = float(span.get("start", 0.0))
        end = float(span.get("end", start))
        events.append(
            {
                "name": span.get("name", "span"),
                "cat": span.get("clock", "sim"),
                "ph": "X",
                "ts": _ts(start),
                "dur": max(_ts(end) - _ts(start), 0.0),
                "pid": 1,
                "tid": span.get("trace") or 0,
                "args": dict(span.get("attrs") or {}),
            }
        )
    for event in recording.events:
        events.append(
            {
                "name": event.get("name", "event"),
                "cat": event.get("clock", "sim"),
                "ph": "i",
                "ts": _ts(float(event.get("time", 0.0))),
                "pid": 1,
                "tid": event.get("trace") or 0,
                "s": "t" if event.get("trace") is not None else "p",
                "args": dict(event.get("attrs") or {}),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
