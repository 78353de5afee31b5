"""Unit tests for repro.core.node."""

import pytest

from repro.core import NamespaceTree
from repro.core.node import PATH_SEPARATOR, MetadataNode


def chain(*names):
    """A tree holding the directory chain ``/names[0]/names[1]/...``; returns
    the tree and its nodes root-first."""
    tree = NamespaceTree()
    nodes = [tree.root]
    for name in names:
        nodes.append(tree.add_child(nodes[-1], name, is_directory=True))
    return tree, nodes


def test_root_defaults():
    root = MetadataNode(PATH_SEPARATOR)
    assert root.parent is None
    assert not root.children
    assert root.depth == 0
    assert root.path == "/"


def test_child_path_composition():
    tree, (_root, home, b) = chain("home", "b")
    f = tree.add_child(b, "h.jpg")
    assert home.path == "/home"
    assert b.path == "/home/b"
    assert f.path == "/home/b/h.jpg"
    # Composed by the property itself, for a node the tree never cached.
    assert MetadataNode("x", parent=b).path == "/home/b/x"


def test_depth_counts_edges():
    _tree, (root, a, b) = chain("a", "b")
    assert root.depth == 0
    assert a.depth == 1
    assert b.depth == 2


def test_add_child_to_file_rejected():
    tree = NamespaceTree()
    f = tree.add_child(tree.root, "x.txt", is_directory=False)
    with pytest.raises(ValueError):
        tree.add_child(f, "y")
    assert not f.children and "/x.txt/y" not in tree


def test_negative_popularity_rejected():
    with pytest.raises(ValueError):
        MetadataNode("a", individual_popularity=-1.0)


def test_negative_update_cost_rejected():
    with pytest.raises(ValueError):
        MetadataNode("a", update_cost=-0.5)


def test_ancestors_root_first():
    _tree, (root, a, b) = chain("a", "b")
    assert b.ancestors() == [root, a]
    assert b.ancestors(include_self=True) == [root, a, b]


def test_ancestors_of_root_empty():
    root = MetadataNode("/")
    assert root.ancestors() == []
    assert root.ancestors(include_self=True) == [root]


def test_descendants_covers_subtree():
    tree, (root, a) = chain("a")
    b = tree.add_child(root, "b", is_directory=True)
    c = tree.add_child(a, "c", is_directory=False)
    assert set(root.descendants()) == {a, b, c}


def test_descendants_include_self():
    _tree, (root, a) = chain("a")
    assert set(root.descendants(include_self=True)) == {root, a}


def test_subtree_size():
    tree, (root, a) = chain("a")
    tree.add_child(a, "c", is_directory=False)
    assert root.subtree_size() == 3
    assert a.subtree_size() == 2


def test_leaf_detection_with_children():
    _tree, (root, a) = chain("a")
    assert root.children == [a]


def test_path_cache_invalidated_on_reparent():
    tree, (root, a) = chain("a")
    child = tree.add_child(root, "x", is_directory=True)
    assert child.path == "/x"  # the cache is primed under the old parent
    tree.move_node(child, a)
    assert child.path == "/a/x"


def test_initial_popularity_equals_individual():
    node = MetadataNode("a", individual_popularity=4.5)
    assert node.popularity == 4.5
    assert node.individual_popularity == 4.5
