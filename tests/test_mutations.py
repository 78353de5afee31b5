"""Tests for namespace mutations (rename/move/remove) and placement repair."""

import pytest

from repro.baselines import (
    AngleCutScheme,
    DropScheme,
    DynamicSubtreeScheme,
    HashScheme,
    StaticSubtreeScheme,
)
from repro.core import D2TreeScheme, NamespaceTree
from repro.repair import move_with_repair, rename_with_repair
from tests.conftest import build_random_tree


def small_tree():
    tree = NamespaceTree()
    tree.add_path("/a/b/c.txt")
    tree.add_path("/a/b/d.txt")
    tree.add_path("/a/e", is_directory=True)
    tree.add_path("/f/g.txt")
    for node in tree:
        tree.record_access(node, 1.0)
    tree.aggregate_popularity()
    return tree


# ----------------------------------------------------------------------
# Tree mutations
# ----------------------------------------------------------------------
def test_rename_rekeys_subtree():
    tree = small_tree()
    b = tree.lookup("/a/b")
    changed = tree.rename(b, "renamed")
    assert changed == 3  # b + two files
    assert tree.lookup("/a/renamed/c.txt") is not None
    assert tree.lookup("/a/b/c.txt") is None
    tree.validate()


def test_rename_validation():
    tree = small_tree()
    with pytest.raises(ValueError):
        tree.rename(tree.root, "x")
    with pytest.raises(ValueError):
        tree.rename(tree.lookup("/a/b"), "bad/name")
    with pytest.raises(ValueError):
        tree.rename(tree.lookup("/a/b"), "")
    with pytest.raises(ValueError):
        tree.rename(tree.lookup("/a/b"), "e")  # sibling collision


def test_move_node_reparents():
    tree = small_tree()
    b = tree.lookup("/a/b")
    f = tree.lookup("/f")
    changed = tree.move_node(b, f)
    assert changed == 3
    assert tree.lookup("/f/b/c.txt") is not None
    assert tree.lookup("/a/b") is None
    assert b.depth == 2
    tree.validate()


def test_move_validation():
    tree = small_tree()
    with pytest.raises(ValueError):
        tree.move_node(tree.root, tree.lookup("/a"))
    with pytest.raises(ValueError):  # into own subtree
        tree.move_node(tree.lookup("/a"), tree.lookup("/a/e"))
    with pytest.raises(ValueError):  # file target
        tree.move_node(tree.lookup("/a/e"), tree.lookup("/f/g.txt"))
    tree.add_path("/f/b", is_directory=True)
    with pytest.raises(ValueError):  # name collision at target
        tree.move_node(tree.lookup("/a/b"), tree.lookup("/f"))


def test_move_updates_popularity_paths():
    tree = small_tree()
    before_a = tree.lookup("/a").popularity
    b = tree.lookup("/a/b")
    b_pop = b.popularity
    tree.move_node(b, tree.lookup("/f"))
    tree.aggregate_popularity()
    assert tree.lookup("/a").popularity == pytest.approx(before_a - b_pop)
    assert tree.lookup("/f").popularity >= b_pop


def test_remove_detaches_subtree():
    tree = small_tree()
    size_before = len(tree)
    b = tree.lookup("/a/b")
    removed = tree.remove(b)
    assert removed == 3
    assert len(tree) == size_before - 3
    assert tree.lookup("/a/b") is None
    assert all(n.path != "/a/b" for n in tree)
    tree.validate()


def test_remove_root_rejected():
    tree = small_tree()
    with pytest.raises(ValueError):
        tree.remove(tree.root)


def test_removed_popularity_leaves_tree():
    tree = small_tree()
    total_before = tree.total_popularity
    b = tree.lookup("/a/b")
    b_pop = b.popularity
    tree.remove(b)
    assert tree.total_popularity == pytest.approx(total_before - b_pop)


def test_node_by_id_raises_for_removed():
    tree = small_tree()
    b = tree.lookup("/a/b")
    tree.remove(b)
    with pytest.raises(KeyError):
        tree.node_by_id(b.node_id)


def test_duplicate_names_are_refused_through_the_path_index():
    tree = NamespaceTree()
    wide = tree.add_path("/wide", is_directory=True)
    for i in range(3000):  # one index lookup per insertion, not a sibling scan
        tree.add_child(wide, f"f{i}")
    other = tree.add_path("/other", is_directory=True)
    tree.add_child(other, "f7")
    with pytest.raises(ValueError):
        tree.add_child(wide, "f2999")
    with pytest.raises(ValueError):
        tree.add_child(tree.root, "wide", is_directory=True)
    size = len(tree)
    assert tree.add_path("/wide/f5") is tree.lookup("/wide/f5")  # reused, not doubled
    assert len(tree) == size
    with pytest.raises(ValueError):
        tree.rename(tree.lookup("/wide/f1"), "f2")  # sibling collision
    with pytest.raises(ValueError):
        tree.rename(tree.lookup("/wide/f1"), "f1")  # its own name
    with pytest.raises(ValueError):
        tree.move_node(tree.lookup("/other/f7"), wide)  # /wide/f7 exists
    with pytest.raises(ValueError):
        tree.move_node(tree.lookup("/wide/f1"), wide)  # already there
    tree.rename(tree.lookup("/wide/f1"), "g1")
    tree.validate()
    tree.move_node(tree.lookup("/wide/g1"), other)
    assert tree.lookup("/other/g1") is not None and tree.lookup("/wide/g1") is None
    tree.validate()


def test_rename_then_add_same_name():
    tree = small_tree()
    tree.rename(tree.lookup("/a/b"), "old_b")
    fresh = tree.add_path("/a/b/new.txt")
    assert fresh.path == "/a/b/new.txt"
    assert tree.lookup("/a/old_b/c.txt") is not None
    tree.validate()


# ----------------------------------------------------------------------
# Repair costs per scheme
# ----------------------------------------------------------------------
@pytest.fixture
def big_tree():
    return build_random_tree(400, seed=33)


def pick_dir(tree):
    """A depth-1 directory with a decent subtree."""
    candidates = [
        n for n in tree if n.is_directory and n.depth == 1 and n.subtree_size() > 5
    ]
    return max(candidates, key=lambda n: n.subtree_size())


def test_hash_rename_moves_most_of_subtree(big_tree):
    placement = HashScheme().partition(big_tree, 8)
    target = pick_dir(big_tree)
    size = target.subtree_size()
    report = rename_with_repair(placement, big_tree, target, "zz", cut_depth=-1)
    assert report.paths_changed == size
    # Rehashing scatters: with 8 servers ~7/8 of nodes move.
    assert report.metadata_moved > 0.5 * size
    placement.validate_complete(big_tree)


def test_static_rename_of_anchor_moves_subtree(big_tree):
    placement = StaticSubtreeScheme(cut_depth=1).partition(big_tree, 8)
    target = pick_dir(big_tree)
    report = rename_with_repair(placement, big_tree, target, "zz", cut_depth=1)
    # The anchor's hash changed: with high probability the subtree relocates
    # wholesale (possibly to the same server, 1/8 of the time).
    assert report.metadata_moved in (0, target.subtree_size())
    placement.validate_complete(big_tree)


def test_static_rename_below_anchor_free(big_tree):
    placement = StaticSubtreeScheme(cut_depth=1).partition(big_tree, 8)
    deep = next(
        n for n in big_tree if n.depth >= 2 and n.is_directory and n.children
    )
    report = rename_with_repair(placement, big_tree, deep, "zz", cut_depth=1)
    assert report.metadata_moved == 0


def test_dynamic_rename_free(big_tree):
    placement = DynamicSubtreeScheme().partition(big_tree, 8)
    target = pick_dir(big_tree)
    report = rename_with_repair(placement, big_tree, target, "zz")
    assert report.metadata_moved == 0


def test_drop_pathname_rename_rehashes(big_tree):
    placement = DropScheme(key_mode="pathname").partition(big_tree, 8)
    target = pick_dir(big_tree)
    size = target.subtree_size()
    report = rename_with_repair(placement, big_tree, target, "zz")
    assert report.metadata_moved > 0.3 * size
    placement.validate_complete(big_tree)


def test_anglecut_rename_keeps_projection(big_tree):
    placement = AngleCutScheme().partition(big_tree, 8)
    target = pick_dir(big_tree)
    report = rename_with_repair(placement, big_tree, target, "zz")
    # Depth and preorder position are untouched by a same-parent rename.
    assert report.metadata_moved == 0


def test_anglecut_move_reprojects(big_tree):
    placement = AngleCutScheme(num_rings=4).partition(big_tree, 8)
    target = pick_dir(big_tree)
    deep_parent = next(
        n for n in big_tree
        if n.is_directory and n.depth == 3 and target not in n.ancestors(include_self=True)
    )
    report = move_with_repair(placement, big_tree, target, deep_parent)
    # Depth changed by 3 (not a multiple of num_rings): rings change.
    assert report.metadata_moved > 0


def test_d2_rename_moves_nothing(big_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(big_tree, 8)
    target = pick_dir(big_tree)
    report = rename_with_repair(placement, big_tree, target, "zz")
    assert report.metadata_moved == 0
    assert report.entries_updated >= 1
    placement.validate_complete(big_tree)


def test_d2_rename_global_node_updates_replicas(big_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(big_tree, 8)
    gl_child = next(
        n for n in placement.split.global_layer if n.parent is not None
    )
    report = rename_with_repair(placement, big_tree, gl_child, "zz")
    assert report.metadata_moved == 0
    assert report.entries_updated >= len(placement.servers_of(gl_child))


def test_migration_fraction_property():
    from repro.repair import RepairReport

    assert RepairReport(paths_changed=0).migration_fraction == 0.0
    assert RepairReport(paths_changed=10, metadata_moved=5).migration_fraction == 0.5
