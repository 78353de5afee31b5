"""Every exported name exists.

A name left in ``__all__`` after the thing it named was deleted fails only on
``from module import *``, which nothing here does — so a deletion can leave a
dangling export unnoticed. This walks every module of the ``repro`` package.
"""

import importlib
import pkgutil

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
