"""Failure-injection tests: MDS crash recovery per scheme."""

import pytest

from repro.baselines import DropScheme, HashScheme, StaticSubtreeScheme
from repro.core import D2TreeScheme
from repro.placement import DEAD_CAPACITY
from tests.conftest import build_random_tree


@pytest.fixture(scope="module")
def tree():
    return build_random_tree(400, seed=13)


def test_surviving_capacities_marks_dead_with_sentinel(tree):
    placement = D2TreeScheme(global_layer_fraction=0.05).partition(tree, 4)
    placement.fail(2)
    caps = placement.capacities
    assert caps[2] == DEAD_CAPACITY
    assert all(c > DEAD_CAPACITY for i, c in enumerate(caps) if i != 2)


def test_d2_failure_rehomes_everything(tree):
    placement = D2TreeScheme(global_layer_fraction=0.05).partition(tree, 4)
    migrations = placement.fail(1)
    for node in tree:
        assert 1 not in placement.servers_of(node)
    for migration in migrations:
        assert migration.source == 1


def test_d2_failure_global_layer_survives(tree):
    placement = D2TreeScheme(global_layer_fraction=0.05).partition(tree, 4)
    placement.fail(0)
    for node in placement.split.global_layer:
        assert placement.servers_of(node) == (1, 2, 3)


def test_d2_failure_subtrees_stay_whole(tree):
    placement = D2TreeScheme(global_layer_fraction=0.05).partition(tree, 4)
    placement.fail(2)
    for root, server in placement.subtree_owner.items():
        assert server != 2
        for node in tree.descendants(root, include_self=True):
            assert placement.primary_of(node) == server


def test_d2_failure_balances_orphans(tree):
    placement = D2TreeScheme(global_layer_fraction=0.05).partition(tree, 4)
    before = placement.local_loads()
    placement.fail(3)
    after = placement.local_loads()
    assert after[3] == 0.0
    # The dead server's load went somewhere, split across survivors.
    assert sum(after) == pytest.approx(sum(before))
    assert max(after[:3]) < sum(before)


def test_generic_failure_rehash(tree):
    placement = HashScheme().partition(tree, 4)
    migrations = placement.fail(0)
    assert migrations
    for node in tree:
        assert placement.primary_of(node) != 0


def test_generic_failure_only_dead_nodes_move(tree):
    placement = StaticSubtreeScheme().partition(tree, 4)
    before = {n: placement.primary_of(n) for n in tree}
    placement.fail(2)
    for node, server in before.items():
        if server != 2:
            assert placement.primary_of(node) == server


def test_drop_failure_recovery(tree):
    placement = DropScheme().partition(tree, 4)
    placement.fail(1)
    placement.validate_complete(tree)
    assert all(placement.primary_of(n) != 1 for n in tree)


def test_failure_validation(tree):
    placement = HashScheme().partition(tree, 2)
    with pytest.raises(ValueError):
        placement.fail(5)
    single = HashScheme().partition(tree, 1)
    with pytest.raises(ValueError):
        single.fail(0)


def test_double_failure(tree):
    placement = D2TreeScheme(global_layer_fraction=0.05).partition(tree, 4)
    placement.fail(0)
    placement.fail(1)
    for node in tree:
        servers = placement.servers_of(node)
        assert 0 not in servers and 1 not in servers
