"""Agility under churn: availability vs churn intensity.

The end-to-end "agile" experiment: federations run under continuous
instance leave/rejoin while the monitor repairs incrementally.  The table
reports, per churn interval, the service availability (probes meeting the
bandwidth threshold), repair counts, and bandwidth retention.
"""

import pytest

from benchmarks.churn import ChurnConfig, run_churn_experiment
from repro.core.monitor import MonitorConfig
from repro.eval.stats import mean
from repro.services.workloads import ScenarioConfig, generate_scenario

SEEDS = range(5)
INTERVALS = (40.0, 20.0, 10.0)  # slow -> aggressive churn


def _scenarios():
    return [
        generate_scenario(
            ScenarioConfig(
                network_size=18,
                n_services=6,
                instances_per_service=(3, 4),
                seed=seed,
            )
        )
        for seed in SEEDS
    ]


def test_single_churn_run_benchmark(benchmark):
    scenario = _scenarios()[0]

    def run():
        return run_churn_experiment(
            scenario,
            ChurnConfig(
                duration=100,
                churn_interval=20,
                monitor=MonitorConfig(probe_interval=5.0),
            ),
        )

    report = benchmark(run)
    assert report.final_bandwidth > 0


def test_churn_intensity_table(benchmark):
    def sweep():
        rows = {}
        for interval in INTERVALS:
            availability, repairs, retention = [], [], []
            for scenario in _scenarios():
                report = run_churn_experiment(
                    scenario,
                    ChurnConfig(
                        duration=120,
                        churn_interval=interval,
                        rejoin_delay=15,
                        monitor=MonitorConfig(probe_interval=4.0),
                        seed=scenario.seed,
                    ),
                )
                availability.append(report.availability)
                repairs.append(report.repairs)
                retention.append(report.bandwidth_retention)
            rows[interval] = (
                mean(availability), mean(repairs), mean(retention)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("churn intensity vs federation agility (mean over 5 scenarios)")
    print(f"  {'interval':<10}{'availability':>13}{'repairs':>9}{'retention':>11}")
    for interval, (availability, repairs, retention) in rows.items():
        print(
            f"  {interval:<10}{availability:>13.2f}{repairs:>9.1f}"
            f"{retention:>11.2f}"
        )
    # The repair loop keeps the service mostly available even under the
    # most aggressive churn...
    assert rows[INTERVALS[-1]][0] >= 0.6
    # ...while naturally repairing more often than under slow churn.
    assert rows[INTERVALS[-1]][1] >= rows[INTERVALS[0]][1]
    # Bandwidth never collapses.
    for availability, _repairs, retention in rows.values():
        assert retention >= 0.5
