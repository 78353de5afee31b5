"""Scheme-registry contracts: roster, round-trips, shim removal."""

import pytest

from repro import registry
from repro.core import D2TreeScheme
from repro.placement import MetadataScheme


EXPECTED_SCHEMES = {
    "anglecut",
    "d2-tree",
    "drop",
    "dynamic-subtree",
    "static-hash",
    "static-subtree",
}


def test_available_covers_the_full_roster():
    assert EXPECTED_SCHEMES.issubset(set(registry.available()))
    assert registry.available() == sorted(registry.available())


@pytest.mark.parametrize("name", sorted(EXPECTED_SCHEMES))
def test_create_returns_named_scheme(name):
    scheme = registry.create(name)
    assert isinstance(scheme, MetadataScheme)
    assert scheme.name == name


def test_get_unknown_name_lists_roster():
    with pytest.raises(KeyError, match="d2-tree"):
        registry.get("no-such-scheme")


def test_register_rejects_conflicting_factory():
    with pytest.raises(ValueError, match="already registered"):
        registry.register("d2-tree", lambda: None)


def test_register_is_idempotent_for_same_factory():
    factory = registry.get("d2-tree")
    assert registry.register("d2-tree", factory) is factory


@pytest.mark.parametrize("name", sorted(EXPECTED_SCHEMES))
def test_params_round_trip(name):
    scheme = registry.create(name)
    clone = type(scheme).from_params(scheme.params())
    assert clone is not scheme
    assert clone.name == scheme.name
    assert clone.params() == scheme.params()


def test_create_forwards_params():
    scheme = registry.create("d2-tree", global_layer_fraction=0.05)
    assert isinstance(scheme, D2TreeScheme)
    assert scheme.params()["global_layer_fraction"] == 0.05


def test_fresh_preserves_configuration():
    scheme = registry.create("d2-tree", global_layer_fraction=0.07)
    clone = scheme.fresh()
    assert clone is not scheme
    assert clone.params() == scheme.params()


def test_make_all_yields_distinct_instances():
    first = registry.make_all()
    second = registry.make_all()
    assert [s.name for s in first] == registry.available()
    assert all(a is not b for a, b in zip(first, second))


# ----------------------------------------------------------------------
# SCHEME_MAKERS shim removal: the deprecated mapping must stay gone so
# stale imports fail loudly instead of silently resurrecting the old API.
# ----------------------------------------------------------------------
def test_scheme_makers_shim_is_gone():
    import repro.cli

    assert not hasattr(repro.cli, "SCHEME_MAKERS")
    with pytest.raises(ImportError):
        from repro.cli import SCHEME_MAKERS  # noqa: F401
