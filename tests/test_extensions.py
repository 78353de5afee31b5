"""Tests for the Discussion-section extensions.

Promotion/demotion between layers (Sec. IV-A's "dynamically move the
metadata node from the local layer to the global layer, and vice versa"),
the bounded global-layer replication factor (Sec. VII), and cluster growth
(the Monitor's "new MDS added" path).
"""

import pytest

from repro.core import D2TreeScheme
from repro.metrics import system_locality
from repro.simulation import SimulationConfig, simulate
from tests.conftest import build_random_tree


@pytest.fixture
def tree():
    return build_random_tree(500, seed=21)


# ----------------------------------------------------------------------
# Promotion (local -> global)
# ----------------------------------------------------------------------
def heat_subtree(tree, placement):
    """Make one local subtree overwhelmingly hot; returns its root."""
    root = max(placement.subtree_owner, key=lambda r: tree.popularity[r])
    for node in tree.descendants(root, include_self=True):
        tree.individual_popularity[node] += 200.0
    tree.aggregate_popularity()
    return root


def test_promotion_moves_hot_root_to_global(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.02)
    placement = scheme.partition(tree, 4)
    hot_root = heat_subtree(tree, placement)
    scheme.rebalance(tree, placement)
    assert placement.is_global(hot_root)
    assert placement.is_replicated(hot_root)


def test_promotion_creates_finer_subtrees(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.02)
    placement = scheme.partition(tree, 4)
    hot_root = heat_subtree(tree, placement)
    before = len(placement.subtree_owner)
    scheme.rebalance(tree, placement)
    if tree.children(hot_root):
        assert len(placement.subtree_owner) >= before


def test_promotion_disabled(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.02, promote_threshold=0.0)
    placement = scheme.partition(tree, 4)
    hot_root = heat_subtree(tree, placement)
    gl_before = set(placement.split.global_layer)
    scheme.rebalance(tree, placement)
    assert placement.split.global_layer == gl_before
    assert not placement.is_global(hot_root)


def test_promotion_improves_locality(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.02)
    placement = scheme.partition(tree, 4)
    heat_subtree(tree, placement)
    before = system_locality(tree, placement)
    scheme.rebalance(tree, placement)
    assert system_locality(tree, placement) >= before


def test_promotion_preserves_completeness_and_layers(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.02)
    placement = scheme.partition(tree, 4)
    heat_subtree(tree, placement)
    scheme.rebalance(tree, placement)
    placement.validate_complete(tree)
    # Global layer stays connected.
    for node in placement.split.global_layer:
        assert node == tree.root or tree.parent(node) in placement.split.global_layer
    # Every local node still resolves to a registered subtree root.
    for node in tree:
        if not placement.is_global(node):
            assert placement.subtree_root_of(node) in placement.subtree_owner


def test_promote_subtree_rejects_non_root(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.02)
    placement = scheme.partition(tree, 4)
    with pytest.raises(KeyError):
        placement.promote_subtree(tree.root)


# ----------------------------------------------------------------------
# Demotion (global -> local)
# ----------------------------------------------------------------------
def promote_a_leaf(placement):
    """Promote one childless subtree root into the GL; returns it."""
    leaf_roots = [r for r in placement.subtree_owner if not placement.tree.children(r)]
    root = leaf_roots[0]
    placement.promote_subtree(root)
    return root


def test_demotion_returns_cooled_leaf(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05, demote_threshold=0.5)
    placement = scheme.partition(tree, 4)
    cooled = promote_a_leaf(placement)
    tree.individual_popularity[cooled] = 0.0
    tree.aggregate_popularity()
    scheme.rebalance(tree, placement)
    assert not placement.is_global(cooled)
    assert cooled in placement.subtree_owner


def test_demotion_disabled_by_default(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(tree, 4)
    cooled = promote_a_leaf(placement)
    tree.individual_popularity[cooled] = 0.0
    tree.aggregate_popularity()
    scheme.rebalance(tree, placement)
    assert placement.is_global(cooled)


def test_demote_validation(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(tree, 4)
    with pytest.raises(ValueError):
        placement.demote_global_node(tree.root, 0)
    inner = next(n for n in placement.split.global_layer if tree.children(n))
    with pytest.raises(ValueError):
        placement.demote_global_node(inner, 0)
    local = next(iter(placement.subtree_owner))
    with pytest.raises(KeyError):
        placement.demote_global_node(local, 0)


def test_promote_demote_roundtrip(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.02)
    placement = scheme.partition(tree, 4)
    leaf_roots = [r for r in placement.subtree_owner if not tree.children(r)]
    assert leaf_roots
    root = leaf_roots[0]
    placement.promote_subtree(root)
    assert placement.is_global(root)
    placement.demote_global_node(root, 2)
    assert not placement.is_global(root)
    assert placement.subtree_owner[root] == 2
    placement.validate_complete(tree)


# ----------------------------------------------------------------------
# Bounded replication factor (Sec. VII)
# ----------------------------------------------------------------------
def test_replication_factor_limits_copies(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05, replication_factor=2)
    placement = scheme.partition(tree, 6)
    for node in placement.split.global_layer:
        assert len(placement.servers_of(node)) == 2


def test_replication_factor_clamped_to_cluster(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05, replication_factor=16)
    placement = scheme.partition(tree, 4)
    for node in placement.split.global_layer:
        assert len(placement.servers_of(node)) == 4


def test_replication_factor_validation(tree):
    with pytest.raises(ValueError):
        D2TreeScheme(replication_factor=0)


def test_bounded_replication_cuts_update_fanout(tiny_dtr_workload):
    # A 5% global layer is large enough to hold the hot files the DTR
    # updates target, so GL update fan-out actually happens.
    cfg = SimulationConfig(num_clients=50, adjust_every_ops=0)
    full = simulate(
        D2TreeScheme(global_layer_fraction=0.05), tiny_dtr_workload, 8, cfg
    )
    bounded = simulate(
        D2TreeScheme(global_layer_fraction=0.05, replication_factor=3),
        tiny_dtr_workload, 8, cfg,
    )
    # Fewer replicas -> fewer background replica writes on the servers.
    assert sum(bounded.server_visits) < sum(full.server_visits)


def test_bounded_replication_still_complete(tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05, replication_factor=1)
    placement = scheme.partition(tree, 5)
    placement.validate_complete(tree)
    # With a single GL copy, GL queries all land on one server.
    gl_servers = {placement.primary_of(n) for n in placement.split.global_layer}
    assert len(gl_servers) == 1
