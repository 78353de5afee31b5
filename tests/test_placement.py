"""Unit tests for the Placement base abstraction."""

import pytest

from repro.core import NamespaceTree
from repro.placement import Migration, Placement


def small_tree():
    tree = NamespaceTree()
    tree.add_path("/a/b/c.txt")
    tree.add_path("/a/d.txt")
    tree.add_path("/e", is_directory=True)
    for node in tree:
        tree.record_access(node, 1.0)
    tree.aggregate_popularity()
    return tree


def test_requires_positive_servers():
    with pytest.raises(ValueError):
        Placement(0)


def test_capacity_length_must_match():
    with pytest.raises(ValueError):
        Placement(2, capacities=[1.0])


def test_capacities_must_be_positive():
    with pytest.raises(ValueError):
        Placement(2, capacities=[1.0, 0.0])


def test_assign_and_query():
    tree = small_tree()
    placement = Placement(3)
    node = tree.lookup("/a")
    placement.assign(node, 2)
    assert placement.servers_of(node) == (2,)
    assert placement.primary_of(node) == 2
    assert not placement.is_replicated(node)
    assert placement.is_placed(node)


def test_assign_out_of_range_rejected():
    tree = small_tree()
    placement = Placement(2)
    with pytest.raises(ValueError):
        placement.assign(tree.root, 5)


def test_reassign_touches_only_new_and_moved_nodes():
    tree = small_tree()
    placement = Placement(3)
    nodes = list(tree)
    assert placement.reassign(nodes, [0, 1, 2, 0, 1, 2]) == []  # all new
    assert placement.placed_nodes() == nodes
    version = placement.version
    moves = placement.reassign(nodes, [0, 2, 2, 1, 1, 0])
    assert [(m.node, m.source, m.target) for m in moves] == [
        (nodes[1], 1, 2), (nodes[3], 0, 1), (nodes[5], 2, 0),
    ]
    assert placement.version == version + len(moves) + 1
    assert placement.reassign(nodes, [0, 2, 2, 1, 1, 0]) == []
    assert placement.version == version + len(moves) + 2


@pytest.mark.parametrize("server", [-1, 3])
def test_reassign_rejects_an_out_of_range_server(server):
    """On a new node and on a moved one alike: an unplaced node is not a
    node placed on a sentinel server."""
    tree = small_tree()
    nodes = list(tree)
    placement = Placement(3)
    with pytest.raises(ValueError):
        placement.reassign(nodes, [0, 0, server, 0, 0, 0])
    placement = Placement(3)
    placement.reassign(nodes, [0] * len(nodes))
    with pytest.raises(ValueError):
        placement.reassign(nodes, [0, 0, server, 0, 0, 0])


def test_replicate_defaults_to_all():
    tree = small_tree()
    placement = Placement(4)
    placement.replicate(tree.root)
    assert placement.servers_of(tree.root) == (0, 1, 2, 3)
    assert placement.is_replicated(tree.root)


def test_replicate_subset_sorted_dedup():
    tree = small_tree()
    placement = Placement(4)
    placement.replicate(tree.root, [3, 1, 3])
    assert placement.servers_of(tree.root) == (1, 3)


def test_replicate_empty_rejected():
    tree = small_tree()
    placement = Placement(2)
    with pytest.raises(ValueError):
        placement.replicate(tree.root, [])


def test_unplaced_lookup_raises():
    tree = small_tree()
    placement = Placement(2)
    with pytest.raises(KeyError):
        placement.servers_of(tree.root)


def test_loads_split_replicas():
    tree = small_tree()
    placement = Placement(2)
    root = tree.root
    placement.replicate(root)
    for node in tree:
        if node is not root:
            placement.assign(node, 0)
    loads = placement.loads(tree)
    # Root's individual popularity (1.0) splits across both replicas.
    assert loads[1] == pytest.approx(0.5)
    assert sum(loads) == pytest.approx(sum(tree.individual_popularity[n] for n in tree))


def test_jumps_single_server_zero():
    tree = small_tree()
    placement = Placement(1)
    for node in tree:
        placement.assign(node, 0)
    assert all(placement.jumps_for(n, tree) == 0 for n in tree)


def test_jumps_counts_transitions():
    tree = small_tree()
    placement = Placement(3)
    for node in tree:
        placement.assign(node, 0)
    c = tree.lookup("/a/b/c.txt")
    placement.assign(tree.lookup("/a/b"), 1)
    placement.assign(c, 1)
    # Chain servers: 0 (root), 0 (/a), 1 (/a/b), 1 (c) -> one transition.
    assert placement.jumps_for(c, tree) == 1


def test_jumps_alternating_servers():
    tree = small_tree()
    placement = Placement(2)
    placement.assign(tree.root, 0)
    placement.assign(tree.lookup("/a"), 1)
    placement.assign(tree.lookup("/a/b"), 0)
    placement.assign(tree.lookup("/a/b/c.txt"), 1)
    assert placement.jumps_for(tree.lookup("/a/b/c.txt"), tree) == 3


def test_jumps_with_replication_uses_intersection():
    tree = small_tree()
    placement = Placement(2)
    placement.replicate(tree.root)  # both servers
    placement.assign(tree.lookup("/a"), 1)
    placement.assign(tree.lookup("/a/d.txt"), 1)
    # Root is everywhere, so the traversal can start on server 1: no jump.
    assert placement.jumps_for(tree.lookup("/a/d.txt"), tree) == 0


def test_validate_complete_detects_missing():
    tree = small_tree()
    placement = Placement(2)
    placement.assign(tree.root, 0)
    with pytest.raises(AssertionError):
        placement.validate_complete(tree)


def test_validate_complete_passes_when_full():
    tree = small_tree()
    placement = Placement(2)
    for node in tree:
        placement.assign(node, node % 2)
    placement.validate_complete(tree)


def test_placed_nodes_and_len():
    tree = small_tree()
    placement = Placement(2)
    placement.assign(tree.root, 0)
    placement.assign(tree.lookup("/e"), 1)
    assert len(placement.placed_nodes()) == 2
    assert set(placement.placed_nodes()) == {tree.root, tree.lookup("/e")}


def test_move_changes_assignment():
    tree = small_tree()
    placement = Placement(2)
    node = tree.lookup("/e")
    placement.assign(node, 0)
    placement.assign(node, 1)
    assert placement.primary_of(node) == 1


def test_migration_records_its_move():
    tree = small_tree()
    migration = Migration(tree.lookup("/e"), 0, 1)
    assert migration.node is tree.lookup("/e")
    assert migration.source == 0
    assert migration.target == 1
