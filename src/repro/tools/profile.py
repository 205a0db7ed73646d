"""Causal critical-path profiler for flight recordings.

Usage::

    python -m repro.tools.profile run.jsonl [--session N] [--top-k K]
        [--json] [--out PATH]
    python -m repro.tools.profile diff BASELINE.jsonl CANDIDATE.jsonl
        [--max-regression 0.2] [--json] [--out PATH]

Where ``repro.tools.trace`` replays a recording and ``repro.tools.report``
grades it, this tool explains it: :mod:`repro.obs.causal` reconstructs the
per-session causal DAG (span parentage joined with ``channel.send`` /
``channel.deliver`` / ``node.activate`` message causality) and prints

* the **critical path** -- every hop from the consumer's kick-off to the
  final activation, decomposed into transmit / process / emit / backoff
  sim-time;
* **blame tables** -- top-k links and nodes by critical-path sim-time,
  plus per-phase (span) self-time vs. child-time;
* **slack** -- for off-path links, how much their latency could grow
  before the critical path moves through them.

``diff`` aligns two recordings (e.g. the fault-free arm vs. the chaos arm
of the same seeded campaign, or the same campaign before and after an
optimization) and reports per-kind latency deltas with a regression
verdict: exit 1 when the candidate's mean critical path exceeds the
baseline by more than ``--max-regression`` (default +20%).  CI runs it on
every push -- see the chaos-smoke job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.causal import (
    ProfileDiff,
    SessionProfile,
    aggregate_profiles,
    diff_recordings,
    profile_recording,
)
from repro.tools.trace import _load_checked


def _fmt(value: float) -> str:
    return f"{value:g}"


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
        lines.append(
            f"    {step.start:>10g}  {step.kind:<9} {_fmt(step.duration):>10}"
            f"  {where}"
        )
    lines.append("  blame by kind:")
    for kind, (count, total) in sorted(
        profile.kind_blame.items(), key=lambda kv: (-kv[1][1], kv[0])
    ):
        lines.append(
            f"    {kind:<9} {_fmt(total):>10}  ({count} steps)"
        )
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
    profiles: List[SessionProfile],
    *,
    session: Optional[int] = None,
    top_k: int = 5,
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


def render_diff(diff: ProfileDiff) -> str:
    """The differential report as one printable block."""
    lines = [
        "differential critical-path profile",
        f"  baseline : {diff.baseline_sessions} sessions, "
        f"mean critical path {diff.baseline_mean:g}",
        f"  candidate: {diff.candidate_sessions} sessions, "
        f"mean critical path {diff.candidate_mean:g}",
        f"  delta    : {diff.delta:+g} "
        f"({diff.relative:+.1%} vs. threshold +{diff.threshold:.0%})",
        "",
        f"  {'kind':<9} {'baseline':>12} {'candidate':>12} {'delta':>12}",
    ]
    for kind, (a, b, d) in sorted(
        diff.kind_deltas.items(), key=lambda kv: (-abs(kv[1][2]), kv[0])
    ):
        lines.append(
            f"  {kind:<9} {_fmt(a):>12} {_fmt(b):>12} {d:>+12g}"
        )
    lines.append("")
    lines.append(
        "verdict: REGRESSION" if diff.regression else "verdict: ok"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Causal critical-path profile of a flight recording."
    )
    parser.add_argument("recording", type=Path, help="recording JSONL file")
    parser.add_argument(
        "--session",
        type=int,
        default=None,
        metavar="N",
        help="only profile the Nth session (1-based, recording order)",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=5,
        metavar="K",
        help="rows in the blame/slack tables (default 5)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the profile as JSON instead of text",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the output to PATH",
    )
    return parser


def build_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.profile diff",
        description="Compare the critical paths of two flight recordings.",
    )
    parser.add_argument("baseline", type=Path, help="baseline recording (A)")
    parser.add_argument("candidate", type=Path, help="candidate recording (B)")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.2,
        metavar="FRAC",
        help="fail (exit 1) when the candidate's mean critical path "
        "exceeds the baseline by more than this fraction (default 0.2)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the diff as JSON instead of text",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the output to PATH",
    )
    return parser


def _emit(text: str, out: Optional[Path]) -> None:
    print(text)
    if out is not None:
        out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)


def diff_main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_diff_parser().parse_args(argv)
    baseline = _load_checked(args.baseline)
    candidate = _load_checked(args.candidate)
    if baseline is None or candidate is None:
        return 2
    diff = diff_recordings(
        baseline, candidate, threshold=args.max_regression
    )
    if args.json:
        text = json.dumps(diff.as_dict(), indent=2, sort_keys=True)
    else:
        text = render_diff(diff)
    _emit(text, args.out)
    if diff.regression:
        print(
            f"FAIL: mean critical path regressed {diff.relative:+.1%} "
            f"(threshold +{diff.threshold:.0%})",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "diff":
        return diff_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.top_k < 1:
        print("error: --top-k must be >= 1", file=sys.stderr)
        return 2
    recording = _load_checked(args.recording)
    if recording is None:
        return 2
    profiles = profile_recording(recording)
    if args.json:
        payload: Dict[str, Any] = {
            "sessions": [p.as_dict() for p in profiles],
            "campaign": aggregate_profiles(profiles).as_dict(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = render_profiles(
            profiles, session=args.session, top_k=args.top_k
        )
    _emit(text, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
