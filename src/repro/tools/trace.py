"""Read a federation flight recording: one CLI, one question per form.

Usage (``python -m repro.tools.trace`` is the same program)::

    sflow-trace REC [--session N] [--metrics-only] [--no-metrics]
    sflow-trace report REC [--top-k N] [--out PATH]
    sflow-trace profile REC [--session N] [--top-k N] [--json] [--out PATH]

* bare -- *what happened?*  Per session (root span): the sim-time window,
  the protocol's outcome attributes, and a merged timeline of child spans
  and point events; then every counter, gauge and histogram.
* ``report`` -- *which phases were hot?*  The hottest span kinds by sim
  time and host seconds.
* ``profile`` -- *where did the time go?*  Each session's causal critical
  path (:mod:`repro.obs.causal`), blame by kind, link, node and phase,
  off-path slack, and the campaign rollup of a multi-session recording.

``--session N`` counts from 1 in recording order and filters text and
JSON alike; outside 1..M it exits 2.  ``--out`` also writes the output to
PATH.  A recording is self-describing, so CI records a run, uploads the
JSONL, and this tool is the replay; truncated or corrupt lines (a run
killed mid-write) are skipped with a warning on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs.causal import SessionProfile, aggregate_profiles, profile_recording
from repro.obs.recorder import Recording, load_recording


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _fmt_attrs(attrs: Dict[str, Any], *, skip: Sequence[str] = ()) -> str:
    return " ".join(
        f"{key}={_fmt(value)}"
        for key, value in attrs.items()
        if key not in skip and value not in (None, "")
    )


# -- the bare form: sessions and metrics -------------------------------------


def render_session(recording: Recording, session: Dict[str, Any], ordinal: int) -> List[str]:
    """The per-session block: header, attrs, merged sim-time timeline."""
    trace = session.get("trace")
    start = session.get("start") or 0.0
    end = session.get("end") or start
    lines = [
        f"session {ordinal}: {session.get('name')} "
        f"[{session.get('clock')}] {start:g} -> {end:g} "
        f"(duration {end - start:g})"
    ]
    attrs = _fmt_attrs(session.get("attrs") or {})
    if attrs:
        lines.append(f"  {attrs}")
    rows: List[tuple] = []
    root_id = session.get("span")
    for span in recording.spans_of(trace):
        if span.get("span") == root_id:
            continue
        s, e = span.get("start") or 0.0, span.get("end") or 0.0
        attrs = _fmt_attrs(span.get("attrs") or {})
        rows.append((s, 0, f"span  {span.get('name')} ({e - s:g}) {attrs}"))
    for seq, event in enumerate(recording.events_of(trace)):
        attrs = _fmt_attrs(event.get("attrs") or {})
        # events after spans at equal times, in stream order
        rows.append(
            (event.get("time") or 0.0, 1 + seq, f"event {event.get('name')} {attrs}")
        )
    if rows:
        lines.append("  timeline:")
        for when, _, text in sorted(rows, key=lambda r: (r[0], r[1])):
            lines.append(f"    {when:>10g}  {text}".rstrip())
    return lines


def render_metrics(recording: Recording) -> List[str]:
    """The metric summary block: counters with totals, histogram stats."""
    if not recording.metrics:
        return ["metrics: (no snapshot in recording)"]
    lines = ["metrics:"]
    for name in sorted(recording.metrics):
        record = recording.metrics[name]
        kind = record.get("kind")
        values = record.get("values", {})
        if kind == "counter":
            total = sum(values.values())
            lines.append(f"  counter   {name:<28} total={_fmt(total)}")
            for labels in sorted(values):
                if labels:
                    lines.append(f"            {'':<28} {labels}: {_fmt(values[labels])}")
        elif kind == "gauge":
            for labels in sorted(values):
                suffix = f" {labels}" if labels else ""
                lines.append(f"  gauge     {name:<28} {_fmt(values[labels])}{suffix}")
        elif kind == "histogram":
            for labels in sorted(values):
                series = values[labels]
                count = series.get("count", 0)
                mean = series.get("sum", 0.0) / count if count else 0.0
                suffix = f" {labels}" if labels else ""
                lines.append(f"  histogram {name:<28} count={count} mean={mean:g}{suffix}")
    return lines


def render(
    recording: Recording, *, session: Optional[int] = None, metrics: bool = True,
    metrics_only: bool = False,
) -> str:
    """The full rendering as one printable string."""
    lines: List[str] = []
    meta = recording.meta
    header = f"flight recording ({meta.get('format', 'unknown format')})"
    extra = _fmt_attrs(meta, skip=("type", "format"))
    if extra:
        header += f" {extra}"
    lines.append(header)
    summary = recording.summary
    lines.append(
        f"sessions: {len(recording.sessions())}   "
        f"spans: {summary.get('spans', len(recording.spans))}   "
        f"events: {summary.get('events', len(recording.events))}   "
        f"malformed-lines: {len(recording.errors)}"
    )
    if not metrics_only:
        for ordinal, row in enumerate(recording.sessions(), start=1):
            if session is not None and ordinal != session:
                continue
            lines.append("")
            lines.extend(render_session(recording, row, ordinal))
    if metrics or metrics_only:
        lines.append("")
        lines.extend(render_metrics(recording))
    return "\n".join(lines)


# -- report: hot spans -------------------------------------------------------


def _span_profile(recording: Recording, top_k: int) -> List[Dict[str, Any]]:
    """Aggregate spans by name: count, total sim time, total host seconds."""
    profile: Dict[str, Dict[str, Any]] = {}
    for span in recording.spans:
        name = span.get("name", "span")
        row = profile.setdefault(
            name, {"name": name, "count": 0, "sim_time": 0.0, "wall_seconds": 0.0}
        )
        row["count"] += 1
        start = float(span.get("start") or 0.0)
        end = float(span.get("end") or start)
        if span.get("clock") == "sim":
            row["sim_time"] += end - start
        wall = (span.get("attrs") or {}).get("wall_seconds")
        if isinstance(wall, (int, float)):
            row["wall_seconds"] += float(wall)
    rows = sorted(
        profile.values(), key=lambda r: (-r["sim_time"], -r["wall_seconds"], r["name"])
    )
    return rows[:top_k]


def build_report(recording: Recording, *, top_k: int = 10) -> Dict[str, Any]:
    """Summarise one recording into a plain-dict report."""
    return {
        "format": recording.meta.get("format", "unknown"),
        "spans": _span_profile(recording, top_k),
    }


def render_report(report: Dict[str, Any]) -> str:
    """The report as one printable text block."""
    lines: List[str] = [
        f"campaign report ({report['format']})",
        "",
        f"hottest span kinds (top {len(report['spans'])}):",
    ]
    if not report["spans"]:
        lines.append("  (no spans in recording)")
    else:
        lines.append(f"  {'span':<28} {'count':>6} {'sim_time':>12} {'host_s':>10}")
        for row in report["spans"]:
            lines.append(
                f"  {row['name']:<28} {row['count']:>6} "
                f"{row['sim_time']:>12g} {row['wall_seconds']:>10.4f}"
            )
    lines.append("")
    lines.append("(critical path and blame: sflow-trace profile <recording>)")
    return "\n".join(lines)


# -- profile: causal critical paths ------------------------------------------


def render_session_profile(
    profile: SessionProfile, ordinal: int, *, top_k: int = 5
) -> List[str]:
    """One session's critical-path block as printable lines."""
    lines = [
        f"session {ordinal}: {profile.name} "
        f"{profile.start:g} -> {profile.end:g} "
        f"(duration {profile.duration:g}"
        + (f", outcome {profile.outcome}" if profile.outcome else "")
        + ")"
    ]
    if not profile.steps:
        lines.append("  (no causally-stamped activity in this session)")
        return lines
    lines.append(
        f"  critical path: {profile.path_duration:g} sim-time over "
        f"{len(profile.steps)} steps"
    )
    for step in profile.steps:
        where = (
            f"{step.src} -> {step.dst}"
            if step.kind in ("transmit", "initial") and step.src != step.dst
            else step.dst
        )
        lines.append(f"    {step.start:>10g}  {step.kind:<9} {_fmt(step.duration):>10}  {where}")
    lines.append("  blame by kind:")
    for kind, (count, total) in sorted(
        profile.kind_blame.items(), key=lambda kv: (-kv[1][1], kv[0])
    ):
        lines.append(f"    {kind:<9} {_fmt(total):>10}  ({count} steps)")
    top_links = profile.top_links(top_k)
    if top_links:
        lines.append(f"  blame by link (top {len(top_links)}):")
        for src, dst, total in top_links:
            lines.append(f"    {_fmt(total):>10}  {src} -> {dst}")
    top_nodes = profile.top_nodes(top_k)
    if top_nodes:
        lines.append(f"  blame by node (top {len(top_nodes)}):")
        for node, total in top_nodes:
            lines.append(f"    {_fmt(total):>10}  {node}")
    if profile.link_slack:
        ranked = sorted(profile.link_slack.items(), key=lambda kv: (kv[1], kv[0]))
        lines.append(f"  off-path slack (tightest {min(top_k, len(ranked))}):")
        for (src, dst), slack in ranked[:top_k]:
            lines.append(f"    {_fmt(slack):>10}  {src} -> {dst}")
    if profile.undelivered:
        lines.append(f"  undelivered messages: {profile.undelivered}")
    lines.append("  phases (self vs. total sim-time):")
    for name, (count, total, self_time, wall) in sorted(
        profile.span_table.items(), key=lambda kv: (-kv[1][1], kv[0])
    ):
        lines.append(
            f"    {name:<22} total={_fmt(total):>8} self={_fmt(self_time):>8}"
            f" count={count}"
            + (f" wall={wall:.4f}s" if wall else "")
        )
    return lines


def render_profiles(
    profiles: List[SessionProfile], *, session: Optional[int] = None, top_k: int = 5
) -> str:
    """The full profile report (all sessions + campaign rollup)."""
    lines: List[str] = ["causal critical-path profile"]
    shown = 0
    for ordinal, profile in enumerate(profiles, start=1):
        if session is not None and ordinal != session:
            continue
        shown += 1
        lines.append("")
        lines.extend(render_session_profile(profile, ordinal, top_k=top_k))
    if shown == 0:
        lines.append("  (no sessions matched)")
    if session is None and len(profiles) > 1:
        campaign = aggregate_profiles(profiles)
        lines.append("")
        lines.append(
            f"campaign: {campaign.sessions} sessions, "
            f"mean critical path {campaign.mean_path_duration:g}"
        )
        for kind, (count, total) in sorted(
            campaign.kind_blame.items(), key=lambda kv: (-kv[1][1], kv[0])
        ):
            mean = total / campaign.sessions
            lines.append(
                f"  {kind:<9} mean/session={_fmt(mean):>10}  "
                f"total={_fmt(total):>10}  ({count} steps)"
            )
        for src, dst, total in campaign.top_links(top_k):
            lines.append(f"  hot link {_fmt(total):>10}  {src} -> {dst}")
    return "\n".join(lines)


# -- command line ------------------------------------------------------------

#: Every flag of every subcommand, declared once; ``_COMMANDS`` picks them.
_FLAGS: Dict[str, Dict[str, Any]] = {
    "--session": dict(
        type=int, metavar="N", help="only the Nth session (1-based, recording order)"
    ),
    "--top-k": dict(type=int, metavar="N", help="rows per ranked table (default %(default)s)"),
    "--json": dict(action="store_true", help="emit JSON instead of text"),
    "--out": dict(type=Path, metavar="PATH", help="also write the output to PATH"),
    "--metrics-only": dict(
        action="store_true", help="skip sessions, print just the metric summary"
    ),
    "--no-metrics": dict(action="store_true", help="skip the metric summary"),
}


def _load_checked(path: Path) -> Optional[Recording]:
    """Load a recording, surfacing skipped lines as stderr warnings."""
    if not path.exists():
        print(f"error: no such recording: {path}", file=sys.stderr)
        return None
    recording = load_recording(path)
    for lineno, message in recording.errors:
        print(f"warning: {path}:{lineno}: skipped {message}", file=sys.stderr)
    return recording


def _emit(text: str, out: Optional[Path]) -> None:
    """Print ``text`` and also write it to ``out``."""
    sys.stdout.write(text)
    if out is not None:
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)


def _render_cmd(args: argparse.Namespace, recording: Recording) -> int:
    print(render(
        recording, session=args.session, metrics=not args.no_metrics,
        metrics_only=args.metrics_only,
    ))
    return 0


def _report_cmd(args: argparse.Namespace, recording: Recording) -> int:
    report = build_report(recording, top_k=args.top_k)
    _emit(render_report(report) + "\n", args.out)
    return 0


def _profile_cmd(args: argparse.Namespace, recording: Recording) -> int:
    profiles = profile_recording(recording)
    if args.json:
        if args.session is not None:
            profiles = profiles[args.session - 1 : args.session]
        payload = {
            "sessions": [p.as_dict() for p in profiles],
            "campaign": aggregate_profiles(profiles).as_dict(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = render_profiles(profiles, session=args.session, top_k=args.top_k)
    _emit(text + "\n", args.out)
    return 0


class _Command(NamedTuple):
    description: str
    run: Callable[[argparse.Namespace, Recording], int]
    flags: Tuple[str, ...]
    top_k: Optional[int] = None  # the --top-k default, when it is a flag


#: The bare form ``sflow-trace REC`` is the ``""`` entry.
_COMMANDS: Dict[str, _Command] = {
    "": _Command(
        "Render an sFlow flight recording (JSONL).  Subcommands: report, "
        "profile (sflow-trace SUBCOMMAND --help).",
        _render_cmd, ("--session", "--metrics-only", "--no-metrics"),
    ),
    "report": _Command(
        "Rank the hottest span kinds of a flight recording.",
        _report_cmd, ("--top-k", "--out"), top_k=10,
    ),
    "profile": _Command(
        "Causal critical-path profile of a flight recording.",
        _profile_cmd, ("--session", "--top-k", "--json", "--out"), top_k=5,
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    name = argv.pop(0) if argv and argv[0] in _COMMANDS else ""
    command = _COMMANDS[name]
    parser = argparse.ArgumentParser(
        prog=f"sflow-trace {name}".rstrip(), description=command.description
    )
    parser.add_argument("recording", type=Path, help="recording JSONL file")
    for flag in command.flags:
        parser.add_argument(flag, **_FLAGS[flag])
    parser.set_defaults(top_k=command.top_k)
    args = parser.parse_args(argv)
    if args.top_k is not None and args.top_k < 1:
        print("error: --top-k must be >= 1", file=sys.stderr)
        return 2
    recording = _load_checked(args.recording)
    if recording is None:
        return 2
    session, count = getattr(args, "session", None), len(recording.sessions())
    if session is not None and not 1 <= session <= count:
        print(
            f"error: --session {session} is outside 1..{count} "
            f"(the recording has {count} sessions)",
            file=sys.stderr,
        )
        return 2
    return command.run(args, recording)


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
