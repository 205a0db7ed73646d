"""Perf trajectory of the routing kernel, oracle, and parallel campaigns.

This harness is the regression baseline future PRs measure against.  It
times the routing-dominated hot paths and emits a machine-readable
record to ``benchmarks/results/perf_oracle.json``.  Every entry embeds
its measurement context (``cpu_count``, worker count) so a number can
never be read without the hardware that produced it:

* **repeated abstract-graph build**: cold vs. warm construction of the
  same abstract graph (the oracle's bread-and-butter scenario; the warm
  build must be >= 2x faster and the hit rate >= 50%, both asserted);
* **kernel cold build**: the vectorized CSR cold path vs. the pure-Python
  cold path on the same scenario (>= 5x asserted at N >= 200);
* **Fig. 10 sweep** at the configured sizes: end-to-end
  ``run_evaluation`` wall-clock with the oracle enabled vs. disabled,
  tables cross-checked identical;
* **scale probe**: a Fig. 10-style abstract-graph build at N >= 1000
  must complete (the kernel is what makes this size reachable at all);
* **parallel campaign**: the multiprocessing sweep vs. the serial sweep.
  The record tables are checked identical unconditionally; the speedup
  is *asserted* only where the hardware can deliver it (>= 2x needs
  >= 4 cores; 2-3 cores assert a real >1.3x win; single-core runners
  record an explicit skip reason instead of a misleading number).

Scale knobs for CI smoke runs (the full defaults take a few minutes):

    PERF_ORACLE_SIZES=30,40 PERF_ORACLE_TRIALS=1 PERF_ORACLE_SCALE_N=0 \
        pytest benchmarks/test_perf_oracle.py -s
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.eval.experiments import EvaluationConfig, TrialRecord, run_evaluation
from repro.routing.oracle import RouteOracle
from repro.services.abstract_graph import AbstractEdge, AbstractGraph
from repro.services.workloads import ScenarioConfig, generate_scenario

RESULTS_PATH = Path(__file__).parent / "results" / "perf_oracle.json"

#: The kernel cold-path gate only binds at sizes where the snapshot cost
#: is amortised; below this the entry is recorded but not asserted.
KERNEL_GATE_MIN_SIZE = 200
KERNEL_GATE_SPEEDUP = 5.0


def _sizes() -> Tuple[int, ...]:
    raw = os.environ.get("PERF_ORACLE_SIZES", "100,200")
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _trials() -> int:
    return int(os.environ.get("PERF_ORACLE_TRIALS", "1"))


def _scale_size() -> int:
    """Network size of the scale probe; 0 disables it (CI smoke)."""
    return int(os.environ.get("PERF_ORACLE_SCALE_N", "1000"))


def _context(workers: int = 0) -> dict:
    """Measurement context embedded in every result entry."""
    return {
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
    }


def _config(sizes: Tuple[int, ...], trials: int, *, workers: int = 0) -> EvaluationConfig:
    return EvaluationConfig(
        network_sizes=sizes, trials=trials, n_services=6, seed=0, workers=workers
    )


def _normalized(records: List[TrialRecord]) -> List[TrialRecord]:
    """Zero the only wall-clock field so tables compare bit-for-bit."""
    return [dataclasses.replace(r, elapsed_seconds=0.0) for r in records]


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _scenario(size: int, config: EvaluationConfig, seed: int = 123):
    return generate_scenario(
        ScenarioConfig(
            network_size=size,
            n_services=config.n_services,
            instances_per_service=config.instance_range(size),
            seed=seed,
        )
    )


def _build_and_read(scenario) -> List[AbstractEdge]:
    """One abstract-graph build and a full read of it.  The graph is a view
    over the oracle's trees: a build nobody reads does the warm-up and no
    lookup, so every timed arm reads what it builds, inside the timing."""
    return list(AbstractGraph.build(scenario.requirement, scenario.overlay).edges())


def _measure_repeated_build(size: int, trials_config: EvaluationConfig) -> dict:
    """Cold vs. warm abstract-graph build on one representative scenario."""
    scenario = _scenario(size, trials_config)
    oracle = RouteOracle.reset_default()
    cold_edges, cold_seconds = _timed(lambda: _build_and_read(scenario))
    # The cold build primed the cache; count only the warm build's lookups.
    oracle.reset_stats()
    warm_edges, warm_seconds = _timed(lambda: _build_and_read(scenario))
    stats = oracle.stats()
    assert cold_edges == warm_edges
    return {
        "network_size": size,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else float("inf"),
        "hit_rate": stats.hit_rate,
        "hits": stats.hits,
        "misses": stats.misses,
        "context": _context(),
    }


def _measure_kernel_cold_build(size: int, trials_config: EvaluationConfig) -> dict:
    """Vectorized CSR cold path vs. the pure-Python cold path.

    Both arms run a from-scratch abstract-graph build on a fresh oracle;
    the only difference is ``use_kernel``.  The graphs are checked
    identical edge-for-edge -- the kernel is a cost switch, never a
    result switch.
    """
    scenario = _scenario(size, trials_config)
    oracle = RouteOracle.reset_default()
    oracle.use_kernel = False
    pure_edges, pure_seconds = _timed(lambda: _build_and_read(scenario))
    RouteOracle.reset_default()  # kernel on by default
    kernel_edges, kernel_seconds = _timed(lambda: _build_and_read(scenario))
    assert pure_edges == kernel_edges
    return {
        "network_size": size,
        "pure_cold_seconds": pure_seconds,
        "kernel_cold_seconds": kernel_seconds,
        "speedup": pure_seconds / kernel_seconds if kernel_seconds else float("inf"),
        "gate_applies": size >= KERNEL_GATE_MIN_SIZE,
        "context": _context(),
    }


def _measure_scale(size: int, trials_config: EvaluationConfig) -> dict:
    """Fig. 10-style build at campaign scale: it must simply *complete*.

    At N >= 1000 the pure cold path is prohibitive; the batched kernel
    is what brings the abstract-graph build into interactive range.  The
    probe times scenario generation (overlay build, also kernel-served)
    and the abstract-graph build separately.
    """
    scenario, generate_seconds = _timed(lambda: _scenario(size, trials_config))
    oracle = RouteOracle.reset_default()
    edges, build_seconds = _timed(lambda: _build_and_read(scenario))
    stats = oracle.stats()
    return {
        "network_size": size,
        "instances": len(scenario.overlay),
        "overlay_links": scenario.overlay.num_links(),
        "abstract_edges": len(edges),
        "generate_seconds": generate_seconds,
        "build_seconds": build_seconds,
        "warmed_trees": stats.warmed,
        "completed": True,
        "context": _context(),
    }


def _measure_sweep(size: int, trials: int) -> Tuple[dict, List[TrialRecord]]:
    """One Fig. 10 sweep size: oracle on vs. off, tables cross-checked."""
    config = _config((size,), trials)
    oracle = RouteOracle.reset_default()
    on_records, on_seconds = _timed(lambda: run_evaluation(config))
    on_stats = oracle.stats()
    oracle.clear()
    oracle.enabled = False
    try:
        off_records, off_seconds = _timed(lambda: run_evaluation(config))
    finally:
        oracle.enabled = True
    # The oracle must be invisible in the results: same tables either way.
    assert _normalized(off_records) == _normalized(on_records)
    return (
        {
            "network_size": size,
            "trials": trials,
            "oracle_on_seconds": on_seconds,
            "oracle_off_seconds": off_seconds,
            "speedup": off_seconds / on_seconds if on_seconds else float("inf"),
            "hit_rate": on_stats.hit_rate,
            "hits": on_stats.hits,
            "misses": on_stats.misses,
            "records": len(on_records),
            "context": _context(),
        },
        on_records,
    )


def _parallel_gate(cpu_count: int, workers: int) -> Tuple[Optional[float], Optional[str]]:
    """The speedup threshold the hardware can honestly deliver.

    Returns ``(threshold, skip_reason)``; exactly one is set.  A whole-
    campaign wall-clock speedup is bounded by the worker count, so the
    >= 2x gate needs headroom (>= 4 cores); 2-3 cores assert a real
    multi-core win (> 1.3x); below 2 cores there is nothing to measure
    and the entry records why instead of a misleading number.
    """
    if cpu_count < 2:
        return None, (
            f"only {cpu_count} CPU core(s) available; multi-core speedup "
            "assertion skipped (a 1-core 'speedup' would be noise)"
        )
    if workers >= 4:
        return 2.0, None
    return 1.3, None


def test_perf_oracle_trajectory():
    sizes = _sizes()
    trials = _trials()
    cpu_count = os.cpu_count() or 1

    build = _measure_repeated_build(max(sizes), _config(sizes, trials))
    kernel_build = _measure_kernel_cold_build(max(sizes), _config(sizes, trials))

    sweeps = []
    serial_records: List[TrialRecord] = []
    serial_seconds = 0.0
    for size in sizes:
        sweep, records = _measure_sweep(size, trials)
        sweeps.append(sweep)
        serial_records.extend(records)
        serial_seconds += sweep["oracle_on_seconds"]

    scale_size = _scale_size()
    scale = (
        _measure_scale(scale_size, _config((scale_size,), 1))
        if scale_size
        else None
    )

    # Parallel campaign over all sizes at once.  Per-size serial sweeps
    # concatenate to the combined table (cell seeds depend only on
    # (config.seed, size, trial)), so the per-size runs above double as
    # the serial reference.
    workers = min(max(2, cpu_count), 8)
    RouteOracle.reset_default()
    parallel_records, parallel_seconds = _timed(
        lambda: run_evaluation(_config(sizes, trials, workers=workers))
    )
    identical = _normalized(parallel_records) == _normalized(serial_records)
    threshold, skip_reason = _parallel_gate(cpu_count, workers)
    parallel_speedup = (
        serial_seconds / parallel_seconds if parallel_seconds else 0.0
    )

    record = {
        "harness": "benchmarks/test_perf_oracle.py",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "cpu_count": cpu_count,
        "config": {"network_sizes": list(sizes), "trials": trials, "seed": 0},
        "repeated_abstract_graph_build": build,
        "kernel_cold_build": kernel_build,
        "fig10_sweeps": sweeps,
        "scale_probe": scale,
        "parallel_campaign": {
            "workers": workers,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": parallel_speedup if threshold is not None else None,
            "speedup_threshold": threshold,
            "speedup_skip_reason": skip_reason,
            "records_identical_to_serial": identical,
            "context": _context(workers),
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
    print(f"  -> {RESULTS_PATH}")

    # Regression gates (also the CI smoke-job gates).
    assert identical, "parallel sweep diverged from the serial table"
    assert build["speedup"] >= 2.0, (
        f"warm abstract-graph build only {build['speedup']:.1f}x faster"
    )
    assert build["hit_rate"] >= 0.5, (
        f"repeated-build hit rate {build['hit_rate']:.0%} below 50%"
    )
    if kernel_build["gate_applies"]:
        assert kernel_build["speedup"] >= KERNEL_GATE_SPEEDUP, (
            f"kernel cold build only {kernel_build['speedup']:.1f}x faster "
            f"than the pure cold path at N={kernel_build['network_size']}"
        )
    for sweep in sweeps:
        assert sweep["speedup"] > 1.0, (
            f"oracle made the N={sweep['network_size']} sweep slower"
        )
    if scale is not None:
        assert scale["completed"], "scale probe did not complete"
    if threshold is not None:
        assert parallel_speedup >= threshold, (
            f"parallel campaign only {parallel_speedup:.2f}x with "
            f"{workers} workers on {cpu_count} cores "
            f"(threshold {threshold}x)"
        )
    else:
        print(f"  multi-core speedup assertion skipped: {skip_reason}")
