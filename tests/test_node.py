"""Unit tests for repro.core.node."""

import pytest

from repro.core.node import PATH_SEPARATOR, MetadataNode


def test_root_defaults():
    root = MetadataNode(PATH_SEPARATOR)
    assert root.parent is None
    assert not root.children
    assert root.depth == 0
    assert root.path == "/"


def test_child_path_composition():
    root = MetadataNode("/")
    home = root.add_child(MetadataNode("home"))
    b = home.add_child(MetadataNode("b"))
    f = b.add_child(MetadataNode("h.jpg", is_directory=False))
    assert home.path == "/home"
    assert b.path == "/home/b"
    assert f.path == "/home/b/h.jpg"


def test_depth_counts_edges():
    root = MetadataNode("/")
    a = root.add_child(MetadataNode("a"))
    b = a.add_child(MetadataNode("b"))
    assert root.depth == 0
    assert a.depth == 1
    assert b.depth == 2


def test_add_child_to_file_rejected():
    f = MetadataNode("x.txt", is_directory=False)
    with pytest.raises(ValueError):
        f.add_child(MetadataNode("y"))


def test_negative_popularity_rejected():
    with pytest.raises(ValueError):
        MetadataNode("a", individual_popularity=-1.0)


def test_negative_update_cost_rejected():
    with pytest.raises(ValueError):
        MetadataNode("a", update_cost=-0.5)




def test_ancestors_root_first():
    root = MetadataNode("/")
    a = root.add_child(MetadataNode("a"))
    b = a.add_child(MetadataNode("b"))
    assert b.ancestors() == [root, a]
    assert b.ancestors(include_self=True) == [root, a, b]


def test_ancestors_of_root_empty():
    root = MetadataNode("/")
    assert root.ancestors() == []
    assert root.ancestors(include_self=True) == [root]


def test_descendants_covers_subtree():
    root = MetadataNode("/")
    a = root.add_child(MetadataNode("a"))
    b = root.add_child(MetadataNode("b"))
    c = a.add_child(MetadataNode("c", is_directory=False))
    got = set(root.descendants())
    assert got == {a, b, c}


def test_descendants_include_self():
    root = MetadataNode("/")
    a = root.add_child(MetadataNode("a"))
    assert set(root.descendants(include_self=True)) == {root, a}


def test_subtree_size():
    root = MetadataNode("/")
    a = root.add_child(MetadataNode("a"))
    a.add_child(MetadataNode("c", is_directory=False))
    assert root.subtree_size() == 3
    assert a.subtree_size() == 2


def test_leaf_detection_with_children():
    root = MetadataNode("/")
    a = root.add_child(MetadataNode("a"))
    assert root.children == [a]


def test_path_cache_invalidated_on_reparent():
    root = MetadataNode("/")
    a = root.add_child(MetadataNode("a"))
    child = MetadataNode("x")
    _ = child.path  # prime the cache while detached
    a.add_child(child)
    assert child.path == "/a/x"


def test_initial_popularity_equals_individual():
    node = MetadataNode("a", individual_popularity=4.5)
    assert node.popularity == 4.5
    assert node.individual_popularity == 4.5
