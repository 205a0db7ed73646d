"""Unit tests for the ``sflow-check`` rules, engine, and scoping logic.

Each seeded fixture under ``tests/tools/fixtures/`` demonstrates one rule
firing (and the sanctioned alternative staying clean); the tests here pin
the exact findings so a rule that goes blind -- or trigger-happy -- fails
loudly.  Inline ``check_source`` cases cover the scoping and suppression
subtleties that fixtures would make verbose.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.tools.check import (
    PROJECT_RULES,
    RULES,
    check_file,
    check_paths,
    check_source,
    rule_codes,
)
from repro.tools.check import _module_for  # white-box: scoping is load-bearing

FIXTURES = Path(__file__).parent / "fixtures"


def codes_in(violations):
    return [v.code for v in violations]


def fixture_codes(name: str):
    return codes_in(check_file(FIXTURES / name))


# ---------------------------------------------------------------------------
# the registry itself
# ---------------------------------------------------------------------------


def test_rule_codes_are_unique_and_stable():
    codes = rule_codes()
    assert len(codes) == len(set(codes))
    assert codes == sorted(codes)
    # per-file rules first (SFL001..), then whole-program rules (..SFL015)
    total = len(RULES) + len(PROJECT_RULES)
    assert codes == [f"SFL{n:03d}" for n in range(1, total + 1)]
    assert [r.code for r in RULES] == codes[: len(RULES)]


def test_every_rule_has_a_summary():
    for rule in (*RULES, *PROJECT_RULES):
        assert rule.summary, f"{rule.code} has no summary line"


# ---------------------------------------------------------------------------
# per-rule fixtures: each must fire exactly where seeded
# ---------------------------------------------------------------------------


def test_sfl001_fixture_fires_on_every_wall_clock():
    assert fixture_codes("sfl001_wall_clock.py") == ["SFL001"] * 3


def test_sfl002_fixture_fires_on_ambient_randomness_only():
    assert fixture_codes("sfl002_ambient_random.py") == ["SFL002"] * 3


def test_sfl003_fixture_fires_on_direct_tree_call():
    assert fixture_codes("sfl003_oracle_bypass.py") == ["SFL003"]


def test_sfl004_fixture_fires_on_unpaired_mutation_only():
    violations = check_file(FIXTURES / "sfl004_epoch.py")
    assert codes_in(violations) == ["SFL004"]
    # ... and on the bad function, not the fresh-graph or invalidated ones.
    assert "bad_mutation" not in violations[0].message
    assert "overlay.add_link" in violations[0].message


def test_sfl005_fixture_fires_on_computed_and_off_namespace_names():
    assert fixture_codes("sfl005_metrics.py") == ["SFL005"] * 2


def test_sfl006_fixture_fires_on_silent_broad_excepts():
    assert fixture_codes("sfl006_swallowed.py") == ["SFL006"] * 2


def test_sfl007_fixture_fires_on_computed_float_equality():
    assert fixture_codes("sfl007_float_eq.py") == ["SFL007"] * 2


def test_sfl008_fixture_fires_on_mutable_defaults():
    assert fixture_codes("sfl008_mutable_default.py") == ["SFL008"] * 2


def test_sfl009_fixture_fires_on_unbounded_retry_loops_only():
    violations = check_file(FIXTURES / "sfl009_retry_loop.py")
    assert codes_in(violations) == ["SFL009"] * 2
    assert [v.line for v in violations] == [6, 12]


def test_sfl010_fixture_fires_on_ambient_numpy_randomness_only():
    assert fixture_codes("sfl010_numpy_random.py") == ["SFL010"] * 4


def test_sfl010_out_of_scope_module_is_exempt():
    source = "import numpy as np\nx = np.random.rand()\n"
    assert check_source(source, module="repro.obs.sampling") == []
    found = check_source(source, module="repro.routing.noise")
    assert codes_in(found) == ["SFL010"]


def test_sfl011_fixture_fires_on_leaked_spans_only():
    violations = check_file(FIXTURES / "sfl011_span_leak.py")
    assert codes_in(violations) == ["SFL011"] * 3
    assert [v.line for v in violations] == [6, 11, 17]


def test_sfl012_fixture_fires_on_orphan_events_only():
    violations = check_file(FIXTURES / "sfl012_orphan_event.py")
    assert codes_in(violations) == ["SFL012"] * 2
    assert [v.line for v in violations] == [8, 14]


def test_sfl012_obs_layer_is_exempt():
    source = (
        "from repro.obs.trace import tracer\n"
        "def alert():\n"
        "    tracer().event('slo.alert')\n"
    )
    assert check_source(source, module="repro.obs.slo") == []
    found = check_source(source, module="repro.core.monitor")
    assert codes_in(found) == ["SFL012"]


def test_suppression_fixture_waives_with_justification_only():
    violations = check_file(FIXTURES / "suppressions.py")
    # waived(): suppressed cleanly.  bare_waiver(): SFL000 (no reason) and
    # the SFL001 stays suppressed.  unknown_code(): SFL000.
    assert codes_in(violations) == ["SFL000", "SFL000"]
    assert "justification" in violations[0].message
    assert "SFL999" in violations[1].message


# ---------------------------------------------------------------------------
# scoping
# ---------------------------------------------------------------------------


def test_module_mapping_from_paths():
    assert _module_for(Path("src/repro/sim/engine.py"), "") == "repro.sim.engine"
    assert _module_for(Path("src/repro/obs/__init__.py"), "") == "repro.obs"
    assert _module_for(Path("tests/core/test_sflow.py"), "") == "tests.core.test_sflow"
    assert _module_for(Path("scratch.py"), "") == "scratch"


def test_module_directive_overrides_path():
    src = "# sflow: module=repro.sim.demo\nx = 1\n"
    assert _module_for(Path("anything/else.py"), src) == "repro.sim.demo"


def test_wall_clock_outside_sim_core_is_not_flagged():
    src = "import time\n\ndef f():\n    return time.perf_counter()\n"
    assert check_source(src, module="repro.obs.clock") == []
    assert check_source(src, module="tests.test_timing") == []


def test_tree_call_inside_routing_is_not_flagged():
    src = (
        "from repro.routing.kernel import batched_trees\n"
        "def f(csr, r):\n    return batched_trees(csr, (r,))\n"
    )
    assert check_source(src, module="repro.routing.oracle") == []
    # ... and tests are exempt too (oracle-equivalence property tests).
    assert check_source(src, module="tests.routing.test_oracle") == []


def test_method_style_tree_call_is_flagged_outside_routing():
    src = "def f(kernel, csr, r):\n    return kernel.batched_trees(csr, (r,))\n"
    assert codes_in(check_source(src, module="repro.core.x")) == ["SFL003"]


# ---------------------------------------------------------------------------
# rule subtleties
# ---------------------------------------------------------------------------


def test_seeded_random_and_rng_methods_are_clean():
    src = (
        "import random\n"
        "def f(rng: random.Random) -> float:\n"
        "    return rng.uniform(0, 1)\n"
        "def g(seed: int):\n"
        "    return random.Random(seed)\n"
    )
    assert check_source(src, module="repro.eval.x") == []


def test_epoch_rule_exempts_graph_defining_modules():
    src = "def grow(self, u, v, q):\n    self.add_link(u, v, q)\n"
    # ``self`` is not a fresh local, but overlay.py implements the graph.
    assert check_source(src, module="repro.network.overlay") == []
    assert codes_in(check_source(src, module="repro.core.x")) == ["SFL004"]


def test_metrics_rule_accepts_all_registered_namespaces():
    src = (
        "def f(reg):\n"
        "    reg.counter('oracle.hits')\n"
        "    reg.gauge('engine.depth')\n"
        "    reg.histogram('sflow.latency')\n"
    )
    assert check_source(src, module="repro.routing.oracle") == []


def test_metrics_rule_exempts_the_registry_module_itself():
    src = "def f(reg, name):\n    reg.counter(name)\n"
    assert check_source(src, module="repro.obs.metrics") == []
    assert codes_in(check_source(src, module="repro.obs.recorder")) == ["SFL005"]


def test_swallowed_exception_tuple_with_broad_member_is_flagged():
    src = (
        "def f(work):\n"
        "    try:\n        work()\n"
        "    except (ValueError, Exception):\n        return None\n"
    )
    assert codes_in(check_source(src, module="repro.sim.x")) == ["SFL006"]


def test_narrow_except_is_clean():
    src = (
        "def f(work):\n"
        "    try:\n        work()\n"
        "    except ValueError:\n        return None\n"
    )
    assert check_source(src, module="repro.sim.x") == []


def test_float_rule_spares_exact_des_comparisons():
    src = (
        "def test_totals(counter):\n"
        "    assert counter.total == 3.0\n"
        "    assert counter.rate == 0.5\n"
    )
    assert check_source(src, module="tests.obs.test_metrics") == []


def test_float_rule_flags_division_results():
    src = "def test_mean(xs):\n    assert sum(xs) / len(xs) == 2.0\n"
    assert codes_in(check_source(src, module="tests.x")) == ["SFL007"]


def test_float_rule_ignores_pytest_approx():
    src = (
        "import pytest\n"
        "def test_mean(x):\n"
        "    assert x == pytest.approx(0.1 + 0.2)\n"
    )
    assert check_source(src, module="tests.x") == []


def test_mutable_default_applies_everywhere():
    src = "def f(xs=[]):\n    return xs\n"
    for module in ("repro.sim.x", "tests.x", "benchmarks.x", "scratch"):
        assert codes_in(check_source(src, module=module)) == ["SFL008"]


def test_dataclass_field_default_factory_is_clean():
    src = (
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass C:\n"
        "    xs: list = field(default_factory=list)\n"
    )
    assert check_source(src, module="repro.core.x") == []


def test_span_rule_exempts_attribute_lifecycle_and_tracer_module():
    src = (
        "def start(self, tracer):\n"
        "    self._span = tracer.session('sflow.federate')\n"
        "def phases(self, dt):\n"
        "    self._span.child('discovery').end(wall_seconds=dt)\n"
    )
    assert check_source(src, module="repro.core.x") == []
    leak = "def f(tracer):\n    s = tracer.session('x')\n    s.event('t')\n"
    assert codes_in(check_source(leak, module="repro.core.x")) == ["SFL011"]
    # The tracer implementation itself builds spans without ending them.
    assert check_source(leak, module="repro.obs.trace") == []


def test_span_rule_nested_function_scopes_are_analysed_separately():
    src = (
        "def outer(tracer):\n"
        "    def helper():\n"
        "        s = tracer.session('x')\n"
        "        s.end()\n"
        "    return helper\n"
    )
    assert check_source(src, module="repro.core.x") == []


# ---------------------------------------------------------------------------
# engine: select/ignore, suppression interplay, directory walking
# ---------------------------------------------------------------------------

_TWO_RULE_SRC = (
    "import time\n"
    "def f(xs=[]):\n"
    "    return time.perf_counter()\n"
)


def test_select_restricts_to_named_codes():
    found = check_source(_TWO_RULE_SRC, module="repro.sim.x", select={"SFL008"})
    assert codes_in(found) == ["SFL008"]


def test_ignore_drops_named_codes():
    found = check_source(_TWO_RULE_SRC, module="repro.sim.x", ignore={"SFL001"})
    assert codes_in(found) == ["SFL008"]


def test_suppression_is_per_line_and_per_code():
    src = (
        "import time\n"
        "def f():\n"
        "    return time.perf_counter()  "
        "# sflow: noqa[SFL001] -- measured host cost, reviewed\n"
        "def g():\n"
        "    return time.perf_counter()\n"
    )
    found = check_source(src, module="repro.sim.x")
    assert codes_in(found) == ["SFL001"]
    assert found[0].line == 5  # only the unsuppressed call


def test_suppressing_the_wrong_code_does_not_waive():
    src = (
        "import time\n"
        "def f():\n"
        "    return time.perf_counter()  "
        "# sflow: noqa[SFL008] -- wrong code on purpose\n"
    )
    assert codes_in(check_source(src, module="repro.sim.x")) == ["SFL001"]


def test_check_paths_skips_fixtures_by_default(tmp_path):
    tree = tmp_path / "pkg"
    (tree / "fixtures").mkdir(parents=True)
    (tree / "fixtures" / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
    (tree / "good.py").write_text("def f():\n    return 1\n")
    violations, errors = check_paths([tree])
    assert violations == [] and errors == []


def test_check_paths_lints_explicitly_named_fixture(tmp_path):
    bad = tmp_path / "fixtures" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("def f(xs=[]):\n    return xs\n")
    violations, _ = check_paths([bad])
    assert codes_in(violations) == ["SFL008"]


def test_check_paths_reports_syntax_errors(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    violations, errors = check_paths([tmp_path])
    assert violations == []
    assert len(errors) == 1 and "syntax error" in errors[0]


def test_repo_sources_are_clean():
    """The acceptance gate, as a test: src/ and tests/ lint clean."""
    repo = Path(__file__).resolve().parents[2]
    violations, errors = check_paths([repo / "src", repo / "tests"])
    assert errors == []
    assert violations == [], "\n".join(v.render() for v in violations)


def test_violation_rendering_matches_cli_format():
    found = check_source(
        "def f(xs=[]):\n    return xs\n", module="repro.x", path="src/repro/x.py"
    )
    assert len(found) == 1
    rendered = found[0].render()
    assert rendered.startswith("src/repro/x.py:1:")
    assert "SFL008" in rendered
    payload = found[0].as_dict()
    assert payload["code"] == "SFL008" and payload["line"] == 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
