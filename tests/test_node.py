"""Unit tests for a namespace node: an id whose fields are the tree's columns."""

import pytest

from repro.core import NamespaceTree


def chain(*names):
    """A tree holding the directory chain ``/names[0]/names[1]/...``; returns
    the tree and its nodes root-first."""
    tree = NamespaceTree()
    nodes = [tree.root]
    for name in names:
        nodes.append(tree.add_child(nodes[-1], name, is_directory=True))
    return tree, nodes


def test_root_defaults():
    tree = NamespaceTree()
    root = tree.root
    assert tree.parent(root) is None
    assert not tree.children(root)
    assert tree.ancestors(root) == []
    assert tree.path(root) == "/" and root == 0 and tree.is_directory(root)


def test_a_node_refers_to_no_other_node():
    """A node is its id; what it holds lives in the tree's flat columns."""
    tree, (_root, a, b) = chain("a", "b")
    assert (a, b) == (1, 2)
    for column in (tree._parent_ids, tree._last_child, tree._prev_sibling,
                   tree.individual_popularity, tree.popularity, tree.update_cost):
        assert len(column) == len(tree) and column.typecode in "id"
    assert tree.names == ["/", "a", "b"]


def test_child_path_composition():
    tree, (_root, home, b) = chain("home", "b")
    f = tree.add_child(b, "h.jpg")
    assert tree.path(home) == "/home"
    assert tree.path(b) == "/home/b"
    assert tree.path(f) == "/home/b/h.jpg"
    assert tree.paths([f, home, tree.root]) == ["/home/b/h.jpg", "/home", "/"]


def test_depth_counts_edges():
    tree, (root, a, b) = chain("a", "b")
    assert [len(tree.ancestors(n)) for n in (root, a, b)] == [0, 1, 2]
    assert tree.arena().depths() == [0, 1, 2]


def test_add_child_to_file_rejected():
    tree = NamespaceTree()
    f = tree.add_child(tree.root, "x.txt", is_directory=False)
    with pytest.raises(ValueError):
        tree.add_child(f, "y")
    for outside in (-1, len(tree)):  # an id the tree does not hold
        with pytest.raises(ValueError):
            tree.add_child(outside, "y")
    assert not tree.children(f) and tree.lookup("/x.txt/y") is None and len(tree) == 2


def test_negative_popularity_rejected():
    tree = NamespaceTree()
    with pytest.raises(ValueError):
        tree.add_child(tree.root, "a", individual_popularity=-1.0)
    assert len(tree) == 1


def test_negative_update_cost_rejected():
    tree = NamespaceTree()
    with pytest.raises(ValueError):
        tree.add_path("/a", update_cost=-0.5)
    assert len(tree) == 1


def test_ancestors_root_first():
    tree, (root, a, b) = chain("a", "b")
    assert tree.ancestors(b) == [root, a]
    assert tree.ancestors(b, include_self=True) == [root, a, b]
    assert tree.arena().chain(b) == (root, a)


def test_ancestors_of_root_empty():
    tree = NamespaceTree()
    assert tree.ancestors(tree.root) == []
    assert tree.ancestors(tree.root, include_self=True) == [tree.root]
    assert tree.arena().chain(0) == ()


def test_descendants_covers_subtree():
    tree, (root, a) = chain("a")
    b = tree.add_child(root, "b", is_directory=True)
    c = tree.add_child(a, "c", is_directory=False)
    # A stack walk that pushes children in id order pops the last first.
    assert list(tree.descendants(root)) == [b, a, c]


def test_descendants_include_self():
    tree, (root, a) = chain("a")
    assert list(tree.descendants(root, include_self=True)) == [root, a]


def test_subtree_size():
    tree, (root, a) = chain("a")
    tree.add_child(a, "c", is_directory=False)
    assert tree.arena().subtree_sizes() == [3, 2, 1]


def test_leaf_detection_with_children():
    tree, (root, a) = chain("a")
    assert tree.children(root) == [a]
    assert tree.arena().last_child[a] == -1


def test_children_in_id_order():
    tree, (root, a) = chain("a")
    b = tree.add_child(root, "b")
    c = tree.add_child(a, "c")
    d = tree.add_child(root, "d")
    assert tree.children(root) == [a, b, d]
    assert tree.children(a) == [c]
    assert [tree.parent(n) for n in (root, a, b, c, d)] == [None, root, root, a, root]


def test_initial_popularity_equals_individual():
    tree = NamespaceTree()
    node = tree.add_child(tree.root, "a", individual_popularity=4.5)
    assert tree.popularity[node] == 4.5
    assert tree.individual_popularity[node] == 4.5
