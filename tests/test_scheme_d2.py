"""Tests for the D2-Tree scheme facade and its placement."""

import pytest

from repro.core import D2TreePlacement, D2TreeScheme, NamespaceTree
from tests.conftest import build_random_tree, subtree_size


def test_partition_places_every_node(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    placement.validate_complete(random_tree)


def test_global_layer_replicated_everywhere(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    for node in placement.split.global_layer:
        assert placement.servers_of(node) == (0, 1, 2, 3)


def test_global_layer_is_placed_in_node_id_order(random_tree):
    """The layer is a set; ``loads()`` (telemetry's load_factor /
    balance_degree / mu) sums the placement in node-id order, so its floats
    do not depend on the order the layer was placed in."""
    placement = D2TreeScheme().partition(random_tree, 4)
    layer = sorted(placement.split.global_layer)
    assert len(layer) > 1
    loads = placement.loads()
    for node in reversed(layer):
        placement.replicate(node, placement.servers_of(node))
    assert placement.loads() == loads
    expected = [0.0] * 4
    for node in random_tree:
        servers = placement.servers_of(node)
        for server in servers:
            expected[server] += random_tree.individual_popularity[node] / len(servers)
    assert loads == expected


def test_local_nodes_single_server(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    for node in random_tree:
        if not placement.is_global(node):
            assert len(placement.servers_of(node)) == 1


def test_subtree_integrity(random_tree):
    # Every local-layer subtree lives wholly on one server (Sec. IV-A1:
    # "each subtree is treated as an unit").
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    for root, server in placement.subtree_owner.items():
        for node in random_tree.descendants(root, include_self=True):
            assert placement.primary_of(node) == server


def test_jump_convention(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    for node in random_tree:
        expected = 0 if placement.is_global(node) else 1
        assert placement.jumps_for(node, random_tree) == expected


def test_subtree_root_of(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    for node in random_tree:
        root = placement.subtree_root_of(node)
        if placement.is_global(node):
            assert root is None
        else:
            assert root in placement.subtree_owner
            assert root in random_tree.ancestors(node, include_self=True)


def test_single_server_cluster(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 1)
    placement.validate_complete(random_tree)
    assert all(placement.primary_of(n) == 0 for n in random_tree)


def test_explicit_thresholds_used():
    tree = build_random_tree(200)
    total = sum(tree.popularity[n] for n in tree)
    scheme = D2TreeScheme(locality_threshold=total, update_threshold=1e9)
    placement = scheme.partition(tree, 2)
    assert placement.split.global_layer == {tree.root}


def test_infeasible_thresholds_raise():
    tree = build_random_tree(200)
    scheme = D2TreeScheme(locality_threshold=0.0, update_threshold=0.0)
    with pytest.raises(ValueError):
        scheme.partition(tree, 2)


def test_threshold_args_must_pair():
    with pytest.raises(ValueError):
        D2TreeScheme(locality_threshold=1.0)


def test_fraction_bounds():
    with pytest.raises(ValueError):
        D2TreeScheme(global_layer_fraction=0.0)
    with pytest.raises(ValueError):
        D2TreeScheme(global_layer_fraction=1.5)


def test_invalid_server_count(random_tree):
    scheme = D2TreeScheme()
    with pytest.raises(ValueError):
        scheme.partition(random_tree, 0)


def test_local_loads_sum_to_subtree_popularity(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    assert sum(placement.local_loads()) == pytest.approx(
        sum(random_tree.popularity[r] for r in placement.subtree_owner)
    )


def test_rebalance_moves_subtrees_after_shift(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05, imbalance_tolerance=0.05)
    placement = scheme.partition(random_tree, 4)
    # Artificially concentrate everything on server 0.
    for root in list(placement.subtree_owner):
        placement.move_subtree(root, 0)
    migrations = scheme.rebalance(random_tree, placement)
    assert migrations
    loads = placement.local_loads()
    assert loads[0] < sum(loads)  # no longer everything on one server


def test_rebalance_on_balanced_cluster_is_quiet(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    for _ in range(5):
        if not scheme.rebalance(random_tree, placement):
            break
    assert scheme.rebalance(random_tree, placement) == []


def test_move_subtree_matches_an_assign_per_node(random_tree):
    """``move_subtree`` writes the whole subtree in one pass; what readers
    can observe — every node's servers (late-created, still unplaced
    descendants are placed too) and the final ``version`` — is that of one
    ``assign()`` per node."""
    tree = random_tree
    placement = D2TreeScheme(global_layer_fraction=0.05).partition(tree, 4)
    root = max(placement.subtree_owner, key=lambda r: subtree_size(tree, r))
    assert subtree_size(tree, root) > 2
    # Late-created nodes: unplaced until first touched.
    late = [n for n in tree.descendants(root) if not tree.children(n)][::2]
    assert len(late) >= 2 and all(placement.forget(n) for n in reversed(late))
    owner = placement.subtree_owner[root]
    target = (owner + 1) % 4
    before, version = list(placement._servers_of), placement.version

    assert placement.move_subtree(root, target) == subtree_size(tree, root)
    assert placement.subtree_owner[root] == target
    assert all(
        placement.servers_of(node) == (target,)
        for node in tree.descendants(root, include_self=True)
    )
    moved, moved_version = list(placement._servers_of), placement.version
    assert all(placement.servers_of(node) == (target,) for node in late)

    placement._servers_of, placement.version = before, version
    placement.subtree_owner[root] = owner
    for node in tree.descendants(root, include_self=True):
        placement.assign(node, target)
    assert placement._servers_of == moved
    assert placement.version == moved_version


def test_move_subtree_bad_server_changes_nothing(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    root = next(iter(placement.subtree_owner))
    owner, version = placement.subtree_owner[root], placement.version
    with pytest.raises(ValueError):
        placement.move_subtree(root, 4)
    assert placement.subtree_owner[root] == owner
    assert placement.version == version


def test_move_subtree_unknown_root_rejected(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    with pytest.raises(KeyError):
        placement.move_subtree(random_tree.root, 1)


def test_refresh_global_layer_preserves_completeness(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    # Shift popularity: pump a previously-cold subtree.
    cold = [n for n in random_tree if not random_tree.is_directory(n)][-5:]
    for node in cold:
        random_tree.record_access(node, 1000.0)
    random_tree.aggregate_popularity()
    fresh = scheme.refresh_global_layer(random_tree, placement)
    fresh.validate_complete(random_tree)
    assert isinstance(fresh, D2TreePlacement)


def test_refresh_keeps_surviving_subtrees_in_place(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    fresh = scheme.refresh_global_layer(random_tree, placement)
    # Same popularity -> same split; owners should carry over.
    for root, owner in fresh.subtree_owner.items():
        if root in placement.subtree_owner:
            assert owner == placement.subtree_owner[root]


def test_sampled_allocation_mode(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05, sampled_allocation=True,
                          samples_per_server=64)
    placement = scheme.partition(random_tree, 4)
    placement.validate_complete(random_tree)


def test_deterministic_given_seed(random_tree):
    a = D2TreeScheme(seed=9).partition(random_tree, 4)
    b = D2TreeScheme(seed=9).partition(random_tree, 4)
    assert a.subtree_owner == b.subtree_owner


def test_fully_global_tree():
    tree = NamespaceTree()
    tree.add_path("/only.txt")
    tree.record_access(tree.lookup("/only.txt"), 1.0)
    tree.aggregate_popularity()
    scheme = D2TreeScheme(global_layer_fraction=1.0)
    placement = scheme.partition(tree, 3)
    assert placement.subtree_owner == {}
    for node in tree:
        assert placement.is_replicated(node)
