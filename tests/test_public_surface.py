"""Every exported name exists, and every module has an importer.

A name left in ``__all__`` after the thing it named was deleted fails only on
``from module import *``, which nothing here does — so a deletion can leave a
dangling export unnoticed. This walks every module of the ``repro`` package.
A module nothing imports is dead code (or a shim kept "for history") that no
test run can see either.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith("__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names things {name} does not define: {missing}"


def test_the_walk_found_the_packages():
    """Guard the guard: an empty walk would pass vacuously."""
    assert {"repro.traces", "repro.traces.io", "repro.simulation.runner"} <= set(MODULES)
    assert sum(hasattr(importlib.import_module(m), "__all__") for m in MODULES) > 20


ROOT = Path(__file__).resolve().parent.parent
#: Where a module's users live: the package itself, the benchmark, the
#: paper experiments and the examples (tests do not count).
USER_DIRS = ("src/repro", "perfbench", "experiments", "examples")


def imported_modules(path):
    """Every module name ``path`` imports (``from a import b`` names both
    ``a`` and ``a.b``: ``b`` may be a submodule)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_imported_by_another_file():
    importers = {}
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for name in imported_modules(path):
                importers.setdefault(name, set()).add(path)
    leaves = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.ispkg and not info.name.endswith("__main__")
    ]
    assert "repro.storage.filestore" in leaves  # the walk found modules
    orphans = []
    for name in leaves:
        own = ROOT / "src" / (name.replace(".", "/") + ".py")
        if not importers.get(name, set()) - {own}:
            orphans.append(name)
    assert not orphans, f"modules no other file imports: {orphans}"
