"""Tests of the end-to-end benchmark harness itself (not tier-1).

Run: PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
from pathlib import Path
from time import perf_counter

import pytest

from benchmarks.e2e import compare, fattree, harness, tracing
from benchmarks.e2e.workloads import SMOKE_OPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic -------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    spans = [
        [tracing.ROOT, 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 7.0, 0, 0],
    ]
    totals = tracing.self_times(spans)
    assert totals == {tracing.ROOT: (5.0, 1), "a": (4.0, 2), "b": (1.0, 1)}
    # Self times of a tree sum to its root's duration.
    assert sum(seconds for seconds, _ in totals.values()) == 10.0
    assert tracing.inclusive_time(spans, "a") == 5.0


def _span_point_attributes():
    for _name, module_name, dotted in tracing.SPAN_POINTS + (
        ("", "repro.sim.engine", "Environment.step"),
        ("", "repro.routing.oracle", "RouteOracle.reset_default"),
    ):
        module = importlib.import_module(module_name)
        if "." in dotted:
            owner_name, attr = dotted.split(".")
            yield dotted, getattr(module, owner_name).__dict__[attr]
        else:
            yield dotted, getattr(module, dotted)
    # A ``from m import f`` binding in the harness's own module.
    workloads = importlib.import_module("benchmarks.e2e.workloads")
    yield "workloads.fail_instances", workloads.fail_instances


def test_wrappers_are_installed_for_the_pass_and_fully_removed():
    before = dict(_span_point_attributes())
    workload, order = harness.set_up("churn-n100", 0, smoke=True)
    tracer = tracing.Tracer()
    tracer.install()
    during = dict(_span_point_attributes())
    tracer.remove()
    assert all(during[key] is not before[key] for key in before)
    harness.run_pass(workload, order, tracer)
    assert all(v is before[k] for k, v in _span_point_attributes())
    assert {span[0] for span in tracer.spans} >= {
        tracing.ROOT, "network.failures.mutate", "routing.oracle.derive",
        "core.repair.repair_flow_graph", "core.sflow.federate", "sim.engine.run",
    }
    assert tracer.counts["events"] > 0 and tracer.counts["oracle.hits"] > 0


# -- seeds and determinism ----------------------------------------------------------


def test_seed_sets_the_arrival_order_and_nothing_else():
    _, order_1 = harness.set_up("serve-warm-n50", 1, smoke=True)
    _, order_1_again = harness.set_up("serve-warm-n50", 1, smoke=True)
    _, order_2 = harness.set_up("serve-warm-n50", 2, smoke=True)
    assert order_1 == order_1_again
    assert order_1 != order_2 and sorted(order_1) == sorted(order_2)

    first = harness.run("serve-warm-n50", 1, 1, smoke=True)
    again = harness.run("serve-warm-n50", 1, 1, smoke=True)
    other = harness.run("serve-warm-n50", 2, 1, smoke=True)
    assert first.digest == again.digest == other.digest
    for name in harness.EXACT:
        assert first.metrics[name].value == again.metrics[name].value
        assert first.metrics[name].value == other.metrics[name].value


def test_a_pass_that_differs_is_refused():
    with pytest.raises(harness.DeterminismError):
        harness._require_same("pass 2", ["a", "b"], ["a", "c"])


# -- smoke runs ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_quick_correct_and_complete(name):
    started = perf_counter()
    result = harness.run(name, 0, 1, smoke=True)
    assert perf_counter() - started < 30
    assert 1 <= result.ops <= min(10, SMOKE_OPS)
    assert result.correct and result.failed == 0
    assert list(result.metrics) == list(harness.END_TO_END)
    assert all(metric.value > 0 for metric in result.metrics.values())


def test_traced_smoke_run_reports_every_layer_metric():
    # per_layer_metrics raises unless the span self times cover the pass.
    result = harness.run("chaos-n40", 0, 1, trace=True, smoke=True)
    assert sorted(result.metrics) == sorted(harness.per_layer_names())
    assert result.metrics["sim.engine.events_per_s"].value > 0
    assert result.metrics["core.sflow.federate.calls_per_op"].value == 1
    assert result.metrics["network.underlay.generate.calls_per_op"].value == 0
    assert result.metrics["routing.kernel.fattree-k8.distinct_bandwidths"].value == 3
    assert result.spans


# -- BENCHMARK.json and the command line --------------------------------------------------


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]
    } == harness.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == harness.per_layer_names()
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == harness.per_layer_unit(metric["name"])
    assert SPEC["run_seconds"] == harness.RUN_SECONDS
    assert SPEC["paths"] == ["benchmarks/e2e"]


def _last_line(command, cwd):
    done = subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=120
    )
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_command_ends_with_the_result_line(tmp_path, trace):
    code, lines = _last_line(
        SPEC["command"]
        + ["--workload", "general-dag-n40", "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--record", str(tmp_path / "r.json")],
        ROOT,
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    expected = harness.per_layer_names() if trace else list(harness.END_TO_END)
    assert sorted(result["metrics"]) == sorted(expected)
    assert all(sorted(m) == ["unit", "value"] for m in result["metrics"].values())
    (run,) = json.loads((tmp_path / "r.json").read_text())["runs"]
    assert run["workload"] == "general-dag-n40" and run["trace"] == trace


def test_command_fails_without_the_program_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    code, lines = _last_line(
        SPEC["command"] + ["--workload", "chaos-n40", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        tmp_path,
    )
    assert code != 0 and not lines


# -- compare.py --------------------------------------------------------------------------


def _record(workload, metric, values):
    return {
        "runs": [
            {"workload": workload, "trace": 0, "digest": "d",
             "metrics": {metric: {"value": v}}}
            for v in values
        ]
    }


@pytest.mark.parametrize(
    "base, new, better, word",
    [
        ([100, 101, 102], [103, 104, 105], "lower", "ok"),
        ([100, 101, 102], [120, 121, 122], "lower", "REGRESSION"),
        ([100, 101, 102], [80, 81, 82], "lower", "ok"),
        ([100, 101, 102], [80, 81, 82], "higher", "REGRESSION"),
        ([100, 101, 102], [98, 99, 100], "higher", "ok"),
        # Spread beyond the bound: only a clean separation decides.
        ([100, 130, 160], [110, 150, 190], "lower", "unresolved"),
        ([100, 130, 160], [50, 60, 70], "lower", "ok"),
        ([100, 130, 160], [200, 230, 260], "lower", "REGRESSION"),
        ([100, 130, 160], [90, 120, 150], "higher", "unresolved"),
    ],
)
def test_compare_verdicts(base, new, better, word):
    assert compare.verdict(base, new, better, 0.10)[1] == word


def test_compare_counts_regressions(capsys):
    bounds = compare.load_bounds()
    base = _record("chaos-n40", "op_ms_p50", [20.0, 20.1, 20.2])
    slow = _record("chaos-n40", "op_ms_p50", [30.0, 30.1, 30.2])
    assert compare.compare(base, base, bounds) == 0
    assert compare.compare(base, slow, bounds) == 1
    assert "REGRESSION" in capsys.readouterr().out


# -- fat-tree ------------------------------------------------------------------------------


def test_fat_tree_shape():
    underlay, hosts = fattree.fat_tree_underlay(4, 1)
    # 4 core + 4 pods x (2 aggregation + 2 edge) switches + 8 hosts.
    assert underlay.n == 28 and len(hosts) == 8
    assert len(underlay.links()) == 16 + 16 + 8
    assert underlay.is_connected()
    assert {link.bandwidth for link in underlay.links()} == {100.0, 40.0, 10.0}
    assert all(underlay.degree(host) == 1 for host in hosts)
    assert all(underlay.degree(core) == 4 for core in range(4))
    with pytest.raises(ValueError):
        fattree.fat_tree_underlay(3, 1)
