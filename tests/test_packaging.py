"""Packaging checks: the type marker and tools actually ship.

``src/repro/py.typed`` is what lets downstream type checkers see our
annotations (PEP 561); it only works if it lands inside the distribution,
which is a packaging-metadata concern no unit test of the code can catch.
The build runs offline via ``setup.py`` with all outputs redirected to a
temp dir, so the working tree stays clean.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Modules that stay in ``src/`` without a caller, each with its reason.
UNCALLED = {"repro.core.reservation": "first caller is ROADMAP item 9b"}


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


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _imports(path: Path) -> set:
    """Every dotted name ``path`` imports; ``from a import b`` yields both
    ``a`` and ``a.b``, since ``b`` may be a submodule."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_every_module_in_src_has_a_caller():
    """``src/`` is the system: a module no other module imports is a
    demonstration or a test-side reference and lives beside its users.
    Subpackage ``__init__`` re-exports do not count as callers; the
    top-level ``repro`` API, console-script targets, ``python -m`` entry
    points and the rule modules the checker's catalogue collects are
    entered from outside."""
    paths = sorted((SRC / "repro").rglob("*.py"))
    called = {
        name
        for path in paths
        if path.name != "__init__.py"
        for name in _imports(path)
    }
    called.update(_imports(SRC / "repro" / "__init__.py"))
    called.update(t.partition(":")[0] for t in _console_scripts().values())
    called.update(
        name
        for name in _imports(SRC / "repro" / "tools" / "check" / "rules" / "__init__.py")
        if name.startswith("repro.tools.check.rules.")
    )
    uncalled = {
        _module_name(path)
        for path in paths
        if path.name not in ("__init__.py", "__main__.py")
        and _module_name(path) not in called
    }
    assert uncalled == set(UNCALLED)


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
