"""Perf trajectory of the routing kernel at sizes no end-to-end gate reaches.

The e2e benchmark (``benchmarks/e2e``) owns the oracle's trajectory: its
count gates (``misses_per_op == 0``, ``snapshot.calls_per_op == 0`` on a
warmed overlay) are stricter than any warm-vs-cold timing, and
``fig10-cold-n200`` is the cold campaign cell.  This harness keeps the
three measurements nothing there covers, one section each of
``benchmarks/results/perf_oracle.json``, every entry with the context
(``cpu_count``, worker count) it was measured in:

* **kernel cold trees**: every source's shortest-widest tree of one
  overlay, :func:`repro.routing.kernel.batched_trees` on a fresh snapshot
  against the per-source reference ``shortest_widest_tree`` of
  ``tests/oracles/wang_crowcroft.py`` -- no route oracle in either arm,
  labels compared equal, >= 5x asserted at N >= 200;
* **scale probe**: a Fig. 10-style scenario and abstract-graph build at
  N = 1000 must complete (the kernel is what makes this size reachable),
  with the overlay build's price pass timed on its own line;
* **serial vs pooled campaign**: the same sweep through ``workers=0`` and
  a fork pool.  The tables are asserted identical; the wall-clocks are
  *recorded, never asserted* -- ten cells that total a second or two do
  not amortise a pool, and speeds are not gated.

A full-default run takes a few minutes; to try the harness quickly::

    PERF_ORACLE_SIZES=30,40 PERF_ORACLE_SCALE_N=0 \
        pytest benchmarks/test_perf_oracle.py -s
"""

from __future__ import annotations

import dataclasses
import os
import platform
import time
from typing import List, Tuple

import pytest

from repro.eval.experiments import EvaluationConfig, TrialRecord, run_evaluation
from repro.routing import kernel
from repro.routing.oracle import RouteOracle
from repro.services.abstract_graph import AbstractGraph
from repro.services.workloads import ScenarioConfig, generate_scenario
from tests.oracles.wang_crowcroft import shortest_widest_tree

RECORD = "perf_oracle.json"

#: The kernel gate only binds at sizes where the snapshot cost is
#: amortised; below this the entry is recorded but not asserted.
KERNEL_GATE_MIN_SIZE = 200
KERNEL_GATE_SPEEDUP = 5.0


def _sizes() -> Tuple[int, ...]:
    raw = os.environ.get("PERF_ORACLE_SIZES", "100,200")
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _scale_size() -> int:
    """Network size of the scale probe; 0 disables it."""
    return int(os.environ.get("PERF_ORACLE_SCALE_N", "1000"))


def _context(workers: int = 0) -> dict:
    """Measurement context embedded in every result entry."""
    return {
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
    }


def _config(sizes: Tuple[int, ...], *, workers: int = 0) -> EvaluationConfig:
    return EvaluationConfig(
        network_sizes=sizes, trials=1, n_services=6, seed=0, workers=workers
    )


def _normalized(records: List[TrialRecord]) -> List[TrialRecord]:
    """Zero the only wall-clock field so tables compare bit-for-bit."""
    return [dataclasses.replace(r, elapsed_seconds=0.0) for r in records]


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _scenario(size: int):
    return generate_scenario(
        ScenarioConfig(
            network_size=size,
            n_services=6,
            instances_per_service=_config((size,)).instance_range(size),
            seed=123,
        )
    )


def test_kernel_cold_trees(bench_record):
    size = max(_sizes())
    overlay = _scenario(size).overlay
    sources = overlay.routing_nodes()
    pure, pure_seconds = _timed(
        lambda: [shortest_widest_tree(overlay.successors, s) for s in sources]
    )
    # The snapshot build is part of the kernel's cold path: timed with it.
    batch, kernel_seconds = _timed(
        lambda: kernel.batched_trees(kernel.snapshot(overlay), sources)
    )
    assert list(batch) == pure
    speedup = pure_seconds / kernel_seconds
    gate_applies = size >= KERNEL_GATE_MIN_SIZE
    path = bench_record(
        RECORD,
        "kernel_cold_trees",
        {
            "network_size": size,
            "trees": len(sources),
            "pure_seconds": pure_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": speedup,
            "gate_applies": gate_applies,
            "context": _context(),
        },
    )
    print(f"\n  kernel x{speedup:.1f} over {len(sources)} trees at N={size} -> {path}")
    if gate_applies:
        assert speedup >= KERNEL_GATE_SPEEDUP, (
            f"kernel cold trees only {speedup:.1f}x faster than the pure "
            f"functions at N={size}"
        )


def test_scale_probe(bench_record, monkeypatch):
    """Fig. 10-style build at campaign scale: it must simply *complete*.

    Scenario generation (overlay build, also kernel-served) and the
    abstract-graph build are timed separately; the graph is a view over
    the oracle's trees, so the build is timed with a full read of it.  The
    overlay build's underlay price pass -- the widest-shortest
    ``kernel.batched_prices`` calls inside generation -- is timed on its
    own line too.
    """
    size = _scale_size()
    if not size:
        pytest.skip("PERF_ORACLE_SCALE_N=0")
    price_seconds = []
    batched_prices = kernel.batched_prices

    def timed_prices(csr, sources, targets, *, order=kernel.SHORTEST_WIDEST):
        rows, seconds = _timed(lambda: batched_prices(csr, sources, targets, order=order))
        if order == kernel.WIDEST_SHORTEST:
            price_seconds.append(seconds)
        return rows

    monkeypatch.setattr(kernel, "batched_prices", timed_prices)
    scenario, generate_seconds = _timed(lambda: _scenario(size))
    monkeypatch.undo()
    oracle = RouteOracle.reset_default()
    edges, build_seconds = _timed(
        lambda: list(
            AbstractGraph.build(scenario.requirement, scenario.overlay).edges()
        )
    )
    path = bench_record(
        RECORD,
        "scale_probe",
        {
            "network_size": size,
            "instances": len(scenario.overlay),
            "overlay_links": scenario.overlay.num_links(),
            "abstract_edges": len(edges),
            "generate_seconds": generate_seconds,
            "price_pass_seconds": sum(price_seconds),
            "build_seconds": build_seconds,
            "warmed_trees": oracle.stats().warmed,
            "context": _context(),
        },
    )
    print(
        f"\n  N={size}: generate {generate_seconds:.1f} s, "
        f"build and read {build_seconds:.1f} s -> {path}"
        f"\n  the overlay build's price pass: {sum(price_seconds):.2f} s "
        f"of generate, {len(price_seconds)} call(s)"
    )


def test_serial_vs_pooled_campaign(bench_record):
    sizes = _sizes()
    workers = min(max(2, os.cpu_count() or 1), 8)
    RouteOracle.reset_default()
    serial, serial_seconds = _timed(lambda: run_evaluation(_config(sizes)))
    RouteOracle.reset_default()
    pooled, pooled_seconds = _timed(
        lambda: run_evaluation(_config(sizes, workers=workers))
    )
    path = bench_record(
        RECORD,
        "serial_vs_pooled_campaign",
        {
            "network_sizes": list(sizes),
            "records": len(serial),
            "serial_seconds": serial_seconds,
            "pooled_seconds": pooled_seconds,
            "pooled_over_serial": pooled_seconds / serial_seconds,
            "context": _context(workers),
        },
    )
    print(
        f"\n  serial {serial_seconds:.2f} s, {workers} workers "
        f"{pooled_seconds:.2f} s on {os.cpu_count()} cores -> {path}"
    )
    assert _normalized(pooled) == _normalized(serial), (
        "pooled sweep diverged from the serial table"
    )
