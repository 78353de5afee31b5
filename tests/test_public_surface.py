"""Every exported name exists, and every module has an importer.

A name left in ``__all__`` after the thing it named was deleted fails only on
``from module import *``, which nothing here does — so a deletion can leave a
dangling export unnoticed. This walks every module of the ``repro`` package.
A module nothing imports is dead code (or a shim kept "for history") that no
test run can see either.
"""

import ast
import importlib
import importlib.util
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


def _load_tracer():
    """``tools/never_entered.py`` as a module (its ``main`` is not run)."""
    spec = importlib.util.spec_from_file_location(
        "never_entered", ROOT / "tools" / "never_entered.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``tools/never_entered.py``: its ``REACHED_BY`` is the one table of
#: functions kept though no verb, example, experiment or perfbench run
#: enters them, each with its reason.
TRACER = _load_tracer()

#: asyncio calls a Protocol's callbacks by their protocol names, as the
#: interpreter calls dunders.
PROTOCOL_CALLBACKS = frozenset({
    "connection_made", "connection_lost", "data_received", "eof_received",
    "pause_writing", "resume_writing",
})


def reached_by_key(path, qualified):
    """``src/repro/chaos/shrink.py``, ``shrink_plan`` -> ``repro.chaos.shrink:shrink_plan``."""
    return TRACER.reached_by_key(str(path.relative_to(ROOT / "src")), qualified)


def test_every_reached_by_key_names_a_defined_function():
    """AST only, no tracer run: each key is ``module:Qualified.name`` of a
    function under ``src/repro``, and each reason says something."""
    defined = {TRACER.reached_by_key(module, name) for module, name in TRACER.defined_functions()}
    assert len(TRACER.REACHED_BY) >= 10  # the table loaded
    unknown = sorted(set(TRACER.REACHED_BY) - defined)
    assert not unknown, f"REACHED_BY names functions src/repro does not define: {unknown}"
    empty = sorted(key for key, reason in TRACER.REACHED_BY.items() if not reason.strip())
    assert not empty, f"REACHED_BY keys without a reason: {empty}"


def defined_functions(path):
    """``(qualified name, name)`` of every module-level function and method
    ``path`` defines; dunders are the interpreter's to call."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            found.extend(
                (f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return [(qualified, name) for qualified, name in found if not name.startswith("__")]


def named_identifiers(path):
    """Every identifier ``path`` uses: names, attributes, imports and
    identifier-shaped string constants (``getattr`` targets). ``__all__``
    lists do not count: an export is not a use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and node not in exported
        ):
            names.add(node.value)
    return names


def test_every_function_is_named_by_some_file():
    """A function no file under ``USER_DIRS`` names is dead code, unless
    ``REACHED_BY`` says why it stays. By name, not by binding: a method
    counts as used when any file names a method of that name."""
    named = set()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            named |= named_identifiers(path)
    defined = [
        (path, qualified, name)
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for qualified, name in defined_functions(path)
    ]
    assert len(defined) > 500  # the walk found the package
    unnamed = sorted(
        reached_by_key(path, qualified)
        for path, qualified, name in defined
        if name not in named
        and name not in PROTOCOL_CALLBACKS
        and reached_by_key(path, qualified) not in TRACER.REACHED_BY
    )
    assert not unnamed, f"functions no file names and REACHED_BY does not keep: {unnamed}"
