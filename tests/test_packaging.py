"""Packaging checks: the type marker and tools actually ship.

``src/repro/py.typed`` is what lets downstream type checkers see our
annotations (PEP 561); it only works if it lands inside the distribution,
which is a packaging-metadata concern no unit test of the code can catch.
The build runs offline via ``setup.py`` with all outputs redirected to a
temp dir, so the working tree stays clean.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def test_py_typed_marker_exists_in_tree():
    assert (REPO / "src" / "repro" / "py.typed").exists()


def test_package_data_declares_py_typed():
    text = (REPO / "pyproject.toml").read_text()
    assert '[tool.setuptools.package-data]' in text
    assert 'py.typed' in text


def _console_scripts() -> dict:
    """``[project.scripts]`` as {name: "module:attr"}, read line by line
    (Python 3.9 ships no TOML parser)."""
    scripts = {}
    in_table = False
    for line in (REPO / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            name, target = (part.strip().strip('"') for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def test_every_console_script_resolves_to_a_callable():
    scripts = _console_scripts()
    assert "sflow-trace" in scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.fixture(scope="module")
def sdist(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("dist")
    proc = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "egg_info",
            "--egg-base",
            str(out),
            "sdist",
            "--dist-dir",
            str(out),
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        pytest.skip(f"sdist build unavailable here: {proc.stderr[-500:]}")
    archives = list(out.glob("*.tar.gz"))
    assert len(archives) == 1, archives
    return archives[0]


def test_sdist_ships_py_typed(sdist: Path):
    with tarfile.open(sdist) as tar:
        names = tar.getnames()
    assert any(n.endswith("src/repro/py.typed") for n in names), names[:20]


def test_sdist_ships_the_checker(sdist: Path):
    with tarfile.open(sdist) as tar:
        names = tar.getnames()
    # the checker is a package now; every analysis layer must ship
    for module in ("engine", "symbols", "callgraph", "dataflow"):
        assert any(
            n.endswith(f"src/repro/tools/check/{module}.py") for n in names
        ), module
    assert any(
        n.endswith("src/repro/tools/check/rules/interprocedural.py") for n in names
    )


def test_wheel_ships_py_typed(tmp_path):
    try:
        import wheel  # noqa: F401  (probe only; absent in minimal envs)
    except ImportError:
        pytest.skip("wheel not installed; CI covers the wheel path")
    import zipfile

    proc = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "egg_info",
            "--egg-base",
            str(tmp_path),
            "bdist_wheel",
            "--dist-dir",
            str(tmp_path),
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    (archive,) = tmp_path.glob("*.whl")
    with zipfile.ZipFile(archive) as whl:
        assert "repro/py.typed" in whl.namelist()
