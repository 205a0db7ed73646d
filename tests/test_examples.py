"""The example scripts must stay runnable -- they are living documentation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs_cleanly(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must print their findings"


def test_at_least_three_examples_exist():
    assert len(EXAMPLES) >= 3
    assert (EXAMPLES_DIR / "quickstart.py") in EXAMPLES


def test_quickstart_accepts_seed_argument():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py"), "3"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]


def test_failure_recovery_flight_records_when_asked(tmp_path, capsys):
    """``SFLOW_RECORD`` makes the example write a flight recording the
    trace renderer replays: the federation and the mid-protocol failover
    are both in it."""
    from repro.tools.trace import main as trace_main

    recording = tmp_path / "flight-recording.jsonl"
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "failure_recovery.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "SFLOW_RECORD": str(recording)},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert trace_main([str(recording)]) == 0
    report = capsys.readouterr().out
    assert "sflow.federate" in report
    assert "recovery.failover" in report
