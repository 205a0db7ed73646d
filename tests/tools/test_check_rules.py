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
    module_for,
    rule_codes,
)

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
    # per-file rules first, then the whole-program rule; retired codes
    # are never reused, so the catalogue keeps its gaps
    assert codes == ["SFL005", "SFL006", "SFL007", "SFL012", "SFL015"]
    assert [r.code for r in RULES] == codes[: len(RULES)]
    assert [r.code for r in PROJECT_RULES] == codes[len(RULES):]


def test_every_rule_has_a_summary():
    for rule in (*RULES, *PROJECT_RULES):
        assert rule.summary, f"{rule.code} has no summary line"


# ---------------------------------------------------------------------------
# per-rule fixtures: each must fire exactly where seeded
# ---------------------------------------------------------------------------


def test_sfl005_fixture_fires_on_computed_and_off_namespace_names():
    assert fixture_codes("sfl005_metrics.py") == ["SFL005"] * 2


def test_sfl006_fixture_fires_on_silent_broad_excepts():
    assert fixture_codes("sfl006_swallowed.py") == ["SFL006"] * 2


def test_sfl007_fixture_fires_on_computed_float_equality():
    assert fixture_codes("sfl007_float_eq.py") == ["SFL007"] * 2


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
    # the SFL012 stays suppressed.  unknown_code(): SFL000.
    assert codes_in(violations) == ["SFL000", "SFL000"]
    assert "justification" in violations[0].message
    assert "SFL999" in violations[1].message


# ---------------------------------------------------------------------------
# scoping
# ---------------------------------------------------------------------------


def test_module_mapping_from_paths():
    assert module_for(Path("src/repro/sim/engine.py"), "") == "repro.sim.engine"
    assert module_for(Path("src/repro/obs/__init__.py"), "") == "repro.obs"
    assert module_for(Path("tests/core/test_sflow.py"), "") == "tests.core.test_sflow"
    assert module_for(Path("scratch.py"), "") == "scratch"


def test_module_directive_overrides_path():
    src = "# sflow: module=repro.sim.demo\nx = 1\n"
    assert module_for(Path("anything/else.py"), src) == "repro.sim.demo"


# ---------------------------------------------------------------------------
# rule subtleties
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# engine: select/ignore, suppression interplay, directory walking
# ---------------------------------------------------------------------------

_TWO_RULE_SRC = (
    "from repro.obs import tracer\n"
    "def f(reg, name):\n"
    "    tracer().event('x')\n"
    "    return reg.counter(name)\n"
)


def test_select_restricts_to_named_codes():
    found = check_source(_TWO_RULE_SRC, module="repro.sim.x", select={"SFL005"})
    assert codes_in(found) == ["SFL005"]


def test_ignore_drops_named_codes():
    found = check_source(_TWO_RULE_SRC, module="repro.sim.x", ignore={"SFL012"})
    assert codes_in(found) == ["SFL005"]


def test_suppression_is_per_line_and_per_code():
    src = (
        "from repro.obs import tracer\n"
        "def f():\n"
        "    tracer().event('x')  "
        "# sflow: noqa[SFL012] -- span-less by design, reviewed\n"
        "def g():\n"
        "    tracer().event('x')\n"
    )
    found = check_source(src, module="repro.sim.x")
    assert codes_in(found) == ["SFL012"]
    assert found[0].line == 5  # only the unsuppressed call


def test_suppressing_the_wrong_code_does_not_waive():
    src = (
        "from repro.obs import tracer\n"
        "def f():\n"
        "    tracer().event('x')  "
        "# sflow: noqa[SFL005] -- wrong code on purpose\n"
    )
    assert codes_in(check_source(src, module="repro.sim.x")) == ["SFL012"]


#: A silent broad except, flagged by SFL006 in any ``repro`` module.
_SWALLOW_SRC = (
    "# sflow: module=repro.demo\n"
    "def f(work):\n"
    "    try:\n        work()\n"
    "    except Exception:\n        pass\n"
)


def test_check_paths_skips_fixtures_by_default(tmp_path):
    tree = tmp_path / "pkg"
    (tree / "fixtures").mkdir(parents=True)
    (tree / "fixtures" / "bad.py").write_text(_SWALLOW_SRC)
    (tree / "good.py").write_text("def f():\n    return 1\n")
    violations, errors = check_paths([tree])
    assert violations == [] and errors == []


def test_check_paths_lints_explicitly_named_fixture(tmp_path):
    bad = tmp_path / "fixtures" / "bad.py"
    bad.parent.mkdir()
    bad.write_text(_SWALLOW_SRC)
    violations, _ = check_paths([bad])
    assert codes_in(violations) == ["SFL006"]


def test_check_paths_reports_syntax_errors(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    violations, errors = check_paths([tmp_path])
    assert violations == []
    assert len(errors) == 1 and "syntax error" in errors[0]


def test_violation_rendering_matches_cli_format():
    found = check_source(
        _SWALLOW_SRC, module="repro.x", path="src/repro/x.py"
    )
    assert len(found) == 1
    rendered = found[0].render()
    assert rendered.startswith("src/repro/x.py:5:")
    assert "SFL006" in rendered
    payload = found[0].as_dict()
    assert payload["code"] == "SFL006" and payload["line"] == 5


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
