"""Command line of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload serve-warm-n50 --seed 1 \\
        --seconds 15 --trace 0

prints every end-to-end metric of the workload by name with its unit and
sample count, checks every output, appends the run to a record set, and
ends with one JSON line for the driver.  ``--trace 1`` makes the traced
run and prints the per-layer metrics instead.  See README.md beside this
file.
"""

from time import perf_counter

_STARTED = perf_counter()  # before the imports: set-up time includes them

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional, Sequence  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"


def _import_harness() -> Any:
    """Start the speed meter, then import the program and the harness."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"{ROOT / 'src' / 'repro'} not found: the benchmark measures the "
            "repro package of the checkout it sits in"
        )
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e.calibration import SpeedMeter

    meter = SpeedMeter()
    meter.start()
    from benchmarks.e2e import harness

    return harness, meter


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def record_header() -> Dict[str, Any]:
    """The header every ``BENCH_*.json`` of this repo starts with."""
    return {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
    }


def append_record(path: Path, result: Any) -> None:
    """Append one run to the record set at ``path`` (created if missing)."""
    record: Dict[str, Any] = {"runs": []}
    if path.exists():
        record = json.loads(path.read_text())
    record.update(record_header())
    record["runs"].append(
        {
            "workload": result.workload,
            "seed": result.seed,
            "trace": int(result.trace),
            "ops": result.ops,
            "passes": result.passes,
            "attempted": result.attempted,
            "failed": result.failed,
            "correct": result.correct,
            "digest": result.digest,
            "raw": result.raw,
            "metrics": {
                name: {"value": m.value, "unit": m.unit, "samples": m.samples}
                for name, m in result.metrics.items()
            },
        }
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")


def write_spans(path: Path, result: Any) -> None:
    """One JSON line per span: name, start, end, parent, op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in result.spans:
            out.write(json.dumps(span) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    harness, meter = _import_harness()
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(harness.RUN_SECONDS),
        help="length of the timed part of the run (default %(default)s)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a few ops, one pass: checks the harness, measures nothing",
    )
    parser.add_argument(
        "--record", type=Path, default=OUT_DIR / "BENCH_e2e.json",
        help="record set to append the run to (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = harness.run(
        args.workload, args.seed, args.seconds,
        trace=bool(args.trace), smoke=args.smoke, started=_STARTED, meter=meter,
    )

    kind = "traced" if result.trace else "timed"
    print(
        f"{result.workload}  seed={result.seed}  {kind} run: "
        f"{result.ops} ops x {result.passes} passes, {result.failed} failed, "
        f"outputs {'correct' if result.correct else 'INVALID'}"
    )
    width = max(len(name) for name in result.metrics)
    for name, metric in result.metrics.items():
        print(f"  {name:<{width}}  {metric.value:>14.6g} {metric.unit:<8} n={metric.samples}")
    for name, value in result.raw.items():
        print(f"  (raw) {name} = {value:.6g}")
    print(f"  digest {result.digest}")

    try:
        append_record(args.record, result)
        if result.trace and not args.smoke:
            write_spans(
                OUT_DIR / f"spans-{result.workload}-seed{result.seed}.jsonl", result
            )
    except OSError as exc:
        print(f"could not write the record: {exc}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": m.value, "unit": m.unit}
                    for name, m in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
