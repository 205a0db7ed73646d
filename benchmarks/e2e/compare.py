"""Diff two record sets of the end-to-end benchmark against its bounds.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json
    python3 benchmarks/e2e/compare.py --self-check [--workload W] [--runs N]

One row per (workload, end-to-end metric): both medians, the change as a
share of the base median, each side's run-to-run spread (interquartile
range / median) and the bound from ``BENCHMARK.json``.  A metric whose
spread exceeds its bound is *unresolved*, not unchanged, unless every run
of one side beats every run of the other.  Exits 1 on a regression.  The
wall-clock twin of ``sflow-profile diff``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"

Values = Dict[Tuple[str, str], List[float]]


def load_bounds(path: Path = BENCHMARK) -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` for the end-to-end metrics."""
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def timed_values(record: Dict[str, Any]) -> Tuple[Values, Dict[str, set]]:
    """Metric values of the untraced runs by (workload, metric), and the
    output digests seen per workload."""
    values: Values = defaultdict(list)
    digests: Dict[str, set] = defaultdict(set)
    for run in record["runs"]:
        if run["trace"]:
            continue
        digests[run["workload"]].add(run["digest"])
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
    return values, digests


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Tuple[float, str]:
    """``(how much worse NEW's median is, as a share of BASE's; verdict)``."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(new) - base_median) / base_median
    if max(spread(base), spread(new)) <= bound:
        return worse_by, "REGRESSION" if worse_by > bound else "ok"
    # Too noisy for the medians to decide; only a clean separation does.
    if all(sign * n < sign * b for n in new for b in base):
        return worse_by, "ok"
    if worse_by > bound and all(sign * n > sign * b for n in new for b in base):
        return worse_by, "REGRESSION"
    return worse_by, "unresolved"


def compare(
    base: Dict[str, Any], new: Dict[str, Any], bounds: Dict[str, Tuple[str, float]]
) -> int:
    """Print the table; returns the number of regressions."""
    base_values, base_digests = timed_values(base)
    new_values, new_digests = timed_values(new)
    regressions = 0
    print(
        f"{'workload':<17}{'metric':<22}{'base median':>13}{'new median':>13}"
        f"{'worse by':>10} {'of base':<9}{'spread b/n':>14}{'bound':>7}  verdict"
    )
    for (workload, name), base_runs in sorted(base_values.items()):
        new_runs = new_values.get((workload, name))
        if new_runs is None or name not in bounds:
            continue
        better, bound = bounds[name]
        worse_by, word = verdict(base_runs, new_runs, better, bound)
        regressions += word == "REGRESSION"
        print(
            f"{workload:<17}{name:<22}{statistics.median(base_runs):>13.6g}"
            f"{statistics.median(new_runs):>13.6g}{worse_by:>+10.2%} "
            f"{'n=' + str(len(base_runs)) + '/' + str(len(new_runs)):<9}"
            f"{spread(base_runs):>7.2%}{spread(new_runs):>7.2%}{bound:>7.1%}  {word}"
        )
    for workload in sorted(set(base_digests) & set(new_digests)):
        if base_digests[workload] != new_digests[workload]:
            print(f"note: {workload} outputs differ between the two sets (digests)")
    print(f"{regressions} regression(s)")
    return regressions


def self_check(workload: str, runs: int, smoke: bool) -> int:
    """Run ``workload`` ``2 x runs`` times, alternating sides, and compare
    the two sets of the same code: anything but ``ok`` rows is noise."""
    out = HERE / "out"
    paths = [out / "self-check-a.json", out / "self-check-b.json"]
    for path in paths:
        path.unlink(missing_ok=True)
    for index in range(2 * runs):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(index // 2), "--record", str(paths[index % 2]),
        ]
        subprocess.run(
            command + (["--smoke"] if smoke else []),
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
    base, new = (json.loads(path.read_text()) for path in paths)
    return compare(base, new, load_bounds())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*", type=Path, metavar="RECORD.json")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--workload", default="chaos-n40")
    parser.add_argument("--runs", type=int, default=1, help="runs per side")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        regressions = self_check(args.workload, args.runs, args.smoke)
    elif len(args.records) == 2:
        base, new = (json.loads(path.read_text()) for path in args.records)
        regressions = compare(base, new, load_bounds())
    else:
        parser.error("give two record sets, or --self-check")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
