"""Whole-program engine tests: golden bit-identity of the per-file
findings, and the cross-module rule the per-file pass provably misses.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.tools.check import check_file, run_project

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "sfl_intrafile_findings.json"
REPO_ROOT = Path(__file__).resolve().parents[2]

PAIRS = {
    "SFL015": ("sfl015_fault_helper.py", "sfl015_handler.py"),
    "SFL015-serve": ("sfl015_serve_codec.py", "sfl015_served_node.py"),
}


def codes_in(violations):
    return [v.code for v in violations]


def run_pair(code, **kwargs):
    helper, consumer = PAIRS[code]
    return run_project([FIXTURES / helper, FIXTURES / consumer], **kwargs)


# ---------------------------------------------------------------------------
# golden bit-identity: no engine change may move a single per-file finding
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
        actual = [_repo_relative(v.as_dict()) for v in check_file(FIXTURES / name)]
        assert actual == expected, f"per-file findings moved for {name}"


# ---------------------------------------------------------------------------
# SFL015: cross-module hazards the per-file pass cannot see
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", sorted(PAIRS))
def test_per_file_scan_is_provably_blind_on_the_pair(code):
    for name in PAIRS[code]:
        assert check_file(FIXTURES / name) == [], (
            f"{name} must be clean per-file; only the project pass may flag it"
        )


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
    helper, consumer = PAIRS["SFL015"]
    assert check_file(FIXTURES / helper) == []
    assert check_file(FIXTURES / consumer) == []
    assert codes_in(run_pair("SFL015").violations) == ["SFL015"]


def test_project_rule_respects_noqa_on_the_reported_line(tmp_path):
    helper = tmp_path / "helper.py"
    helper.write_text(
        "# sflow: module=repro.util.checks\n\n\n"
        "def check(level):\n"
        "    if level < 0:\n"
        "        raise ValueError(level)\n",
        encoding="utf-8",
    )
    handler = tmp_path / "handler.py"
    handler.write_text(
        "# sflow: module=repro.sim.thing\n"
        "from repro.util.checks import check\n\n\n"
        "def start(env):\n"
        "    env.process(run(env))\n\n\n"
        "def run(env):  # sflow: noqa[SFL015] -- test-only waiver\n"
        "    yield env.timeout(1.0)\n"
        "    check(-1)\n",
        encoding="utf-8",
    )
    result = run_project([helper, handler])
    assert result.violations == []
    handler.write_text(
        handler.read_text(encoding="utf-8").replace(
            "  # sflow: noqa[SFL015] -- test-only waiver", ""
        ),
        encoding="utf-8",
    )
    result = run_project([helper, handler])
    assert codes_in(result.violations) == ["SFL015"]
    assert result.violations[0].line == 9
