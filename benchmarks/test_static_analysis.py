"""Whole-program benchmark for the ``sflow-check`` engine.

One cold :func:`~repro.tools.check.run_project` over a throwaway copy of
``src/`` + ``tests/`` -- the same work the CI gate does once per push.
The run must parse every file and find nothing; its wall time is
recorded, not gated (CI gates counts, not speeds).

Numbers land in ``benchmarks/results/BENCH_static_analysis.json`` via
the shared ``conftest.write_bench_record`` helper, so the linter's own
cost is trackable across PRs like any other subsystem.

Run: pytest benchmarks/test_static_analysis.py -s
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from repro.tools.check import run_project

BENCH_FILE = "BENCH_static_analysis.json"

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_whole_program_pass(tmp_path, bench_record):
    roots = []
    for name in ("src", "tests"):
        dst = tmp_path / name
        shutil.copytree(
            REPO_ROOT / name, dst, ignore=shutil.ignore_patterns("__pycache__")
        )
        roots.append(dst)

    started = time.perf_counter()
    result = run_project(roots)
    seconds = time.perf_counter() - started

    assert result.errors == []
    assert result.violations == []
    files = len(result.analysis.index.modules)  # one module per checked file
    print(f"\n{files} files in {seconds * 1e3:.0f} ms, {len(result.violations)} findings")
    bench_record(
        BENCH_FILE,
        "whole_program",
        {
            "files": files,
            "seconds": round(seconds, 4),
            "findings": len(result.violations),
        },
    )
