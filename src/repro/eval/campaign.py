"""One-shot evaluation campaigns: every figure, one results directory.

``python -m repro.eval.campaign --out results/`` reruns the paper's whole
evaluation (Fig. 10 a-d) with a single shared configuration and writes a
self-describing results directory::

    results/
      manifest.json     # config, library version, per-figure file index
      fig10a.csv .. fig10d.csv
      records.csv       # every raw trial record (tidy format)
      summary.txt       # the four rendered tables

The manifest makes a results directory reproducible in one command: it
records the exact :class:`~repro.eval.experiments.EvaluationConfig` used,
so ``run_campaign(config_from_manifest(path))`` regenerates it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro
from repro.eval.experiments import (
    EvaluationConfig,
    TrialRecord,
    run_evaluation,
    run_scalability,
)
from repro.eval.figures import (
    FigureTable,
    fig10a,
    fig10b,
    fig10c,
    fig10d,
    format_table,
    write_csv,
)
from repro.services.requirement import RequirementClass


@dataclass
class CampaignResult:
    """Everything a campaign produced, in memory."""

    config: EvaluationConfig
    tables: Dict[str, FigureTable]
    mixed_records: List[TrialRecord]
    path_records: List[TrialRecord]
    output_dir: Optional[Path] = None


def run_campaign(
    config: Optional[EvaluationConfig] = None,
    *,
    output_dir: Optional[Path] = None,
) -> CampaignResult:
    """Run the full evaluation; optionally persist a results directory."""
    config = config or EvaluationConfig()
    mixed = run_evaluation(config)
    paths = run_scalability(config)
    tables = {
        "fig10a": fig10a(config, records=mixed),
        "fig10b": fig10b(config, records=paths),
        "fig10c": fig10c(config, records=mixed),
        "fig10d": fig10d(config, records=mixed),
    }
    result = CampaignResult(
        config=config,
        tables=tables,
        mixed_records=mixed,
        path_records=paths,
        output_dir=output_dir,
    )
    if output_dir is not None:
        _persist(result, Path(output_dir))
    return result


def _persist(result: CampaignResult, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, table in result.tables.items():
        files[name] = write_csv(table, directory).name
    records_path = directory / "records.csv"
    _write_records(
        records_path, result.mixed_records + result.path_records
    )
    files["records"] = records_path.name
    summary_path = directory / "summary.txt"
    summary_path.write_text(
        "\n\n".join(format_table(t) for t in result.tables.values()) + "\n"
    )
    files["summary"] = summary_path.name
    manifest = {
        "library_version": repro.__version__,
        "config": config_to_dict(result.config),
        "files": files,
        "trial_counts": {
            "mixed": len(result.mixed_records),
            "path": len(result.path_records),
        },
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )
    result.output_dir = directory


def _write_records(path: Path, records: Sequence[TrialRecord]) -> None:
    fields = [f.name for f in dataclasses.fields(TrialRecord)]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for record in records:
            writer.writerow([getattr(record, name) for name in fields])


# -- manifest round-trip --------------------------------------------------------


def config_to_dict(config: EvaluationConfig) -> Dict:
    data = dataclasses.asdict(config)
    data["requirement_class"] = (
        config.requirement_class.value if config.requirement_class else None
    )
    return data


def config_from_manifest(path: Path) -> EvaluationConfig:
    """Rebuild the exact configuration a results directory was made with."""
    manifest = json.loads(Path(path).read_text())
    data = dict(manifest["config"])
    clazz = data.pop("requirement_class", None)
    return EvaluationConfig(
        network_sizes=tuple(data.pop("network_sizes")),
        requirement_class=RequirementClass(clazz) if clazz else None,
        **data,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the full sFlow evaluation campaign."
    )
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 20, 30, 40, 50]
    )
    parser.add_argument("--services", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    config = EvaluationConfig(
        network_sizes=tuple(args.sizes),
        trials=args.trials,
        n_services=args.services,
        seed=args.seed,
    )
    result = run_campaign(config, output_dir=args.out)
    for table in result.tables.values():
        print(format_table(table))
        print()
    print(f"results written to {result.output_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
