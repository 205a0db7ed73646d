"""Whole-program engine tests: golden bit-identity across the package
refactor, and cross-module rules the per-file pass provably misses.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.tools.check import check_file, check_paths, run_project

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "sfl_intrafile_findings.json"
REPO_ROOT = Path(__file__).resolve().parents[2]

PAIRS = {
    "SFL013": ("sfl013_clock_helper.py", "sfl013_sim_consumer.py"),
    "SFL014": ("sfl014_graph_helper.py", "sfl014_core_caller.py"),
    "SFL015": ("sfl015_fault_helper.py", "sfl015_handler.py"),
    "SFL015-serve": ("sfl015_serve_codec.py", "sfl015_served_node.py"),
}


def codes_in(violations):
    return [v.code for v in violations]


def run_pair(code, **kwargs):
    helper, consumer = PAIRS[code]
    return run_project([FIXTURES / helper, FIXTURES / consumer], **kwargs)


# ---------------------------------------------------------------------------
# golden bit-identity: the package refactor must not move a single finding
# ---------------------------------------------------------------------------


def _repo_relative(finding):
    out = dict(finding)
    path = Path(out["path"])
    if path.is_absolute():
        out["path"] = path.relative_to(REPO_ROOT).as_posix()
    return out


def test_golden_fixture_findings_are_bit_identical():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, expected in golden.items():
        if name == "__repo_src_tests__":
            continue
        actual = [_repo_relative(v.as_dict()) for v in check_file(FIXTURES / name)]
        assert actual == expected, f"per-file findings moved for {name}"


def test_golden_repo_gate_still_clean():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    violations, errors = check_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
    assert errors == []
    # The golden capture predates the whole-program rules; the repo must
    # be clean under the old set bit-for-bit *and* under SFL013-SFL015.
    assert [v.as_dict() for v in violations] == golden["__repo_src_tests__"] == []


# ---------------------------------------------------------------------------
# SFL013-SFL015: cross-module hazards the per-file pass cannot see
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", sorted(PAIRS))
def test_per_file_scan_is_provably_blind_on_the_pair(code):
    for name in PAIRS[code]:
        assert check_file(FIXTURES / name) == [], (
            f"{name} must be clean per-file; only the project pass may flag it"
        )


def test_sfl013_transitive_wall_clock_fires_in_sim_consumer():
    result = run_pair("SFL013")
    assert codes_in(result.violations) == ["SFL013", "SFL013"]
    direct, relayed = result.violations
    assert direct.path.endswith("sfl013_sim_consumer.py")
    assert "time.perf_counter" in direct.message
    assert "repro.util.hostclock.elapsed_ms" in direct.message
    # the two-hop laundering names the full chain
    assert "relay_elapsed -> repro.util.hostclock.elapsed_ms" in relayed.message


def test_sfl014_escape_fires_at_the_caller_only_for_preexisting_graphs():
    result = run_pair("SFL014")
    assert codes_in(result.violations) == ["SFL014"]
    finding = result.violations[0]
    assert finding.path.endswith("sfl014_core_caller.py")
    assert "repro.network.overlay.rewire" in finding.message
    assert "add_link" in finding.message


def test_sfl015_handler_escape_names_spawner_and_chain():
    result = run_pair("SFL015")
    assert codes_in(result.violations) == ["SFL015"]
    finding = result.violations[0]
    assert finding.path.endswith("sfl015_handler.py")
    assert "_pump" in finding.message
    assert "Pump.install" in finding.message
    assert "repro.core.faultlib.check_pressure" in finding.message


def test_sfl015_sees_a_callable_served_on_a_mailbox():
    # <mailbox>.serve(handler) registers a DES handler just as
    # <env>.process(handler(...)) spawns one; the shielded twin of the
    # same name in another class stays clean.
    result = run_pair("SFL015-serve")
    assert codes_in(result.violations) == ["SFL015"]
    finding = result.violations[0]
    assert finding.path.endswith("sfl015_served_node.py")
    assert "receive()" in finding.message
    assert "Relay.__init__" in finding.message
    assert "repro.core.codec.check_header" in finding.message


def test_no_project_flag_suppresses_cross_module_rules():
    # Without the whole-program pass (the per-file API), neither half of
    # the pair is flagged; the project run over both flags the consumer.
    helper, consumer = PAIRS["SFL013"]
    assert check_file(FIXTURES / helper) == []
    assert check_file(FIXTURES / consumer) == []
    assert codes_in(run_pair("SFL013").violations) == ["SFL013", "SFL013"]


def test_project_rule_respects_noqa_on_the_reported_line(tmp_path):
    helper = tmp_path / "helper.py"
    helper.write_text(
        "# sflow: module=repro.util.clockish\n"
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.perf_counter()\n",
        encoding="utf-8",
    )
    consumer = tmp_path / "consumer.py"
    consumer.write_text(
        "# sflow: module=repro.sim.thing\n"
        "from repro.util.clockish import stamp\n\n\n"
        "def run():\n"
        "    return stamp()  # sflow: noqa[SFL013] -- test-only waiver\n",
        encoding="utf-8",
    )
    result = run_project([helper, consumer])
    assert result.violations == []
    consumer.write_text(
        consumer.read_text(encoding="utf-8").replace(
            "  # sflow: noqa[SFL013] -- test-only waiver", ""
        ),
        encoding="utf-8",
    )
    result = run_project([helper, consumer])
    assert codes_in(result.violations) == ["SFL013"]
