"""Packaging checks: the type marker and tools actually ship, and the
package keeps its architecture.

``src/repro/py.typed`` is what lets downstream type checkers see our
annotations (PEP 561); it only works if it lands inside the distribution,
which is a packaging-metadata concern no unit test of the code can catch.
The build runs offline via ``setup.py`` with all outputs redirected to a
temp dir, so the working tree stays clean.

The architecture checks read ``src/`` with :mod:`ast`: every module has a
caller, the simulation imports no host clock, the deterministic packages
draw only from seeded generators, only the ``RouteOracle`` builds
routing trees, and only ``repro.network`` restricts an overlay.
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

#: Modules outside ``repro.network`` that restrict an overlay themselves.
RESTRICTS_OVERLAYS = {"repro.core.reservation": "leaves src/ under ROADMAP item 5"}

#: Packages whose results are a function of the seed and the inputs alone.
DETERMINISTIC = ("repro.sim", "repro.core", "repro.eval", "repro.routing")

#: ``numpy.random`` constructors: seeded when called with an argument.
NUMPY_SEEDED = {
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
}


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
    """Dotted name of a module file; a package is its ``__init__``."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _modules() -> dict:
    """Every module in ``src/`` as {dotted name: path}."""
    return {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}


def _in(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


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


def test_sim_and_core_reach_no_wall_clock():
    """Simulated results are a function of the DES clock and the inputs:
    no module ``repro.sim`` or ``repro.core`` imports, transitively, reads
    a host clock.  The walk stops at ``repro.obs``, whose injectable
    ``Stopwatch`` is where host timing lives."""
    modules = _modules()
    todo = [name for name in modules if _in(name, ("repro.sim", "repro.core"))]
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached or _in(name, ("repro.obs",)):
            continue
        reached.add(name)
        todo.extend(n for n in _imports(modules[name]) if n in modules)
    assert "repro.routing.kernel" in reached  # the walk left sim/core
    clocks = {
        name
        for name in reached
        if any(n.split(".")[0] in ("time", "datetime") for n in _imports(modules[name]))
    }
    assert clocks == set()


def _rng_sites(path: Path) -> list:
    """Every name in ``path`` that resolves, through its imports, into
    ``random`` or ``numpy.random``: ``(line, dotted name, call)`` with
    ``call`` the ``ast.Call`` the name is the callee of, else ``None``."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                aliases[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    sites = []
    for node in ast.walk(tree):
        parts = []
        base = node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in aliases:
            name = ".".join([aliases[base.id], *reversed(parts)])
            if name.startswith(("random.", "numpy.random.")):
                sites.append((node.lineno, name, calls.get(id(node))))
    return sites


def _deterministic_rng_sites() -> list:
    return [
        (f"{module}:{line}", name, call)
        for module, path in sorted(_modules().items())
        if _in(module, DETERMINISTIC)
        for line, name, call in _rng_sites(path)
    ]


def _is_constructor(name: str) -> bool:
    return name == "random.Random" or (
        name.startswith("numpy.random.") and name.split(".")[2] in NUMPY_SEEDED
    )


def test_deterministic_packages_draw_no_ambient_randomness():
    """``repro.sim``, ``core``, ``eval`` and ``routing`` draw only from an
    injected generator: no module-level ``random.*`` or ``numpy.random.*``
    function, which would share interpreter-global state between a
    serial loop and its forked workers, and never ``SystemRandom``."""
    ambient = [
        (where, name)
        for where, name, _ in _deterministic_rng_sites()
        if not _is_constructor(name)
    ]
    assert ambient == []


def test_every_generator_in_deterministic_packages_is_seeded():
    """Called bare, ``random.Random()`` and the ``numpy.random``
    constructors seed from the OS; every construction passes a seed."""
    built = [
        (where, name, call)
        for where, name, call in _deterministic_rng_sites()
        if call is not None and _is_constructor(name)
    ]
    assert built  # the scan sees the package's generators
    unseeded = [
        (where, name) for where, name, call in built if not (call.args or call.keywords)
    ]
    assert unseeded == []


def test_only_the_route_oracle_calls_batched_trees():
    """Every routing tree comes through ``RouteOracle``, which keeps one
    state per graph object, so no caller meets a tree its graph does not
    own.  The kernel's ``batched_trees`` has exactly one caller."""
    callers = {
        module
        for module, path in _modules().items()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "batched_trees" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    }
    assert callers == {"repro.routing.oracle"}


def test_only_the_failure_models_restrict_an_overlay():
    """A restricted overlay reaches the oracle through
    ``repro.network.failures``, which reports it to ``RouteOracle.derive``
    so it starts from its parent's trees.  Outside ``repro.network`` no
    module calls ``.subgraph(`` or ``.with_links(``."""
    callers = {
        module
        for module, path in _modules().items()
        if not _in(module, ("repro.network",))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("subgraph", "with_links")
    }
    assert callers == set(RESTRICTS_OVERLAYS)


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
