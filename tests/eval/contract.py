"""The serial == pooled contract every sweep family is held to.

``folds(family)`` runs one small sweep of the family through its observed
entry point -- profiled, so every fold is populated -- once
serially and once over two worker processes, and caches the pair for the
whole test session.  The ``same_*`` helpers compare one aspect of the two
folds each; ``test_sweep_contract`` applies all of them to every family.
"""

import functools
from dataclasses import replace
from typing import Tuple

from repro.eval.experiments import (
    EvaluationConfig,
    SweepFold,
    observe_evaluation,
    run_evaluation,
)
from repro.eval.robustness import (
    GrayFailureConfig,
    GrayFailureExperiment,
    RobustnessConfig,
    RobustnessExperiment,
    run_gray_failure,
    run_robustness,
)

#: family -> (config, observed entry point, plain entry point)
FAMILIES = {
    "evaluation": (
        EvaluationConfig(network_sizes=(10,), trials=3, n_services=4, seed=3),
        observe_evaluation,
        run_evaluation,
    ),
    "crash": (
        RobustnessConfig(
            network_sizes=(10,),
            crash_rates=(0.0, 0.2),
            trials=2,
            n_services=4,
            seed=5,
        ),
        lambda config, **how: RobustnessExperiment(config).observe(**how),
        run_robustness,
    ),
    "gray": (
        GrayFailureConfig(
            network_sizes=(10,),
            intensities=(0.0, 0.6),
            trials=2,
            n_services=5,
            seed=1,
        ),
        lambda config, **how: GrayFailureExperiment(config).observe(**how),
        run_gray_failure,
    ),
}


@functools.lru_cache(maxsize=None)
def folds(family: str) -> Tuple[SweepFold, SweepFold]:
    """The family's fully observed fold at ``workers=0`` and ``workers=2``."""
    config, observe, _ = FAMILIES[family]
    serial, pooled = (
        observe(replace(config, workers=workers), profile=True)
        for workers in (0, 2)
    )
    return serial, pooled


def comparable(records):
    """``elapsed_seconds`` is the one field measured in wall-clock time (it
    times the algorithm run itself), so it is zeroed before comparison;
    every other field -- seeds, qualities, correctness, virtual-time
    convergence, message counts, recovery-event counts -- must be
    bit-identical."""
    return [
        replace(r, elapsed_seconds=0.0) if hasattr(r, "elapsed_seconds") else r
        for r in records
    ]


def same_records(serial: SweepFold, pooled: SweepFold) -> None:
    assert serial.records
    assert comparable(pooled.records) == comparable(serial.records)


def integer_content(snapshot):
    """Counter values and histogram counts/buckets; only the float sums of
    histograms may differ in the last bits across the worker split."""
    out = {}
    for name, record in snapshot.items():
        if record["kind"] == "counter":
            out[name] = record["values"]
        elif record["kind"] == "histogram":
            out[name] = {
                labels: (series["count"], tuple(series["buckets"]))
                for labels, series in record["values"].items()
            }
    return out


def same_integer_metrics(serial: SweepFold, pooled: SweepFold) -> None:
    assert sum(serial.metrics["sflow.sessions"]["values"].values()) > 0
    assert integer_content(pooled.metrics) == integer_content(serial.metrics)


def same_profile(serial: SweepFold, pooled: SweepFold) -> None:
    assert serial.profile.sessions > 0
    assert serial.profile.mean_path_duration > 0
    # CampaignProfile carries only floats summed in submission order --
    # no trace ids, no wall-clock -- so the whole dict matches exactly.
    assert pooled.profile.as_dict() == serial.profile.as_dict()
