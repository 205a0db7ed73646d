"""End-to-end tests of the ``sflow-check`` command-line interface.

Everything here runs the real entry point in a subprocess (the same way
CI and developers invoke it), pinning the exit-code contract: 0 clean,
1 violations, 2 usage/parse errors.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def run_check(*args: str, cwd: Path = REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.tools.check", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_list_rules_prints_the_catalogue():
    proc = run_check("--list-rules")
    assert proc.returncode == 0
    for code in ["SFL000"] + [f"SFL{n:03d}" for n in range(1, 9)]:
        assert code in proc.stdout


def test_no_paths_is_a_usage_error():
    proc = run_check()
    assert proc.returncode == 2
    assert "no paths given" in proc.stderr


def test_missing_path_is_a_usage_error(tmp_path):
    proc = run_check(str(tmp_path / "does_not_exist"))
    assert proc.returncode == 2
    assert "no such path" in proc.stderr


def test_unknown_rule_code_is_a_usage_error(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    proc = run_check("--select", "SFL942", str(clean))
    assert proc.returncode == 2
    assert "SFL942" in proc.stderr


def test_clean_file_exits_zero(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def f() -> int:\n    return 1\n")
    proc = run_check(str(clean))
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_violations_exit_one_with_summary():
    proc = run_check(str(FIXTURES / "sfl008_mutable_default.py"))
    assert proc.returncode == 1
    assert "SFL008" in proc.stdout
    assert "found 2 violation(s)" in proc.stdout


def test_json_output_is_machine_readable():
    proc = run_check("--json", str(FIXTURES / "sfl001_wall_clock.py"))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["errors"] == []
    codes = [v["code"] for v in payload["violations"]]
    assert codes == ["SFL001"] * 3
    for violation in payload["violations"]:
        assert set(violation) == {"path", "line", "col", "code", "message"}


def test_select_and_ignore_filter_rules(tmp_path):
    bad = tmp_path / "both.py"
    bad.write_text(
        "# sflow: module=repro.sim.demo\n"
        "import time\n"
        "def f(xs=[]):\n"
        "    return time.perf_counter()\n"
    )
    only_008 = run_check("--select", "SFL008", "--json", str(bad))
    codes = [v["code"] for v in json.loads(only_008.stdout)["violations"]]
    assert codes == ["SFL008"]
    without_008 = run_check("--ignore", "SFL008", "--json", str(bad))
    codes = [v["code"] for v in json.loads(without_008.stdout)["violations"]]
    assert codes == ["SFL001"]


def test_syntax_error_exits_two(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    proc = run_check(str(tmp_path))
    assert proc.returncode == 2
    assert "syntax error" in proc.stderr


def test_fixture_directories_are_excluded_from_directory_walks(tmp_path):
    tree = tmp_path / "pkg" / "fixtures"
    tree.mkdir(parents=True)
    (tree / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
    proc = run_check(str(tmp_path))
    assert proc.returncode == 0
    # ... unless the caller overrides the exclude list.
    proc = run_check("--exclude", "*/nothing/*", str(tmp_path))
    assert proc.returncode == 1


def test_repo_gate_src_and_tests_are_clean():
    """The CI gate itself: the shipped tree has zero unsuppressed findings."""
    proc = run_check("src", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_console_script_is_declared():
    text = (REPO / "pyproject.toml").read_text()
    assert 'sflow-check = "repro.tools.check:main"' in text


# ---------------------------------------------------------------------------
# suppression edge cases
# ---------------------------------------------------------------------------


def test_multi_code_noqa_suppresses_every_listed_code(tmp_path):
    bad = tmp_path / "multi.py"
    bad.write_text(
        "# sflow: module=repro.sim.demo\n"
        "import time\n"
        "import random\n"
        "def f():\n"
        "    return time.perf_counter() + random.random()"
        "  # sflow: noqa[SFL001, SFL002] -- demo waiver\n"
    )
    proc = run_check(str(bad))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # listing only one code keeps the other finding alive
    bad.write_text(bad.read_text().replace("[SFL001, SFL002]", "[SFL001]"))
    proc = run_check("--json", str(bad))
    assert proc.returncode == 1
    codes = [v["code"] for v in json.loads(proc.stdout)["violations"]]
    assert codes == ["SFL002"]


def test_noqa_on_decorated_def_anchors_to_the_def_line(tmp_path):
    bad = tmp_path / "decorated.py"
    bad.write_text(
        "# sflow: module=repro.sim.demo\n"
        "import functools\n"
        "@functools.lru_cache\n"
        "def f(xs=[]):  # sflow: noqa[SFL008] -- findings anchor to the def\n"
        "    return xs\n"
    )
    proc = run_check(str(bad))
    assert proc.returncode == 0, proc.stdout + proc.stderr
