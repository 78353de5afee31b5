"""Unit tests for repro.core.namespace."""

import pytest

from repro.core import NamespaceTree, split_path


def test_split_path_basic():
    assert split_path("/home/b/h.jpg") == ["home", "b", "h.jpg"]


def test_split_path_root():
    assert split_path("/") == []


def test_split_path_trailing_slash():
    assert split_path("/a/b/") == ["a", "b"]


def test_empty_tree_has_root():
    tree = NamespaceTree()
    assert len(tree) == 1
    assert tree.root.path == "/"
    assert tree.root.node_id == 0


def test_add_path_creates_intermediates():
    tree = NamespaceTree()
    node = tree.add_path("/a/b/c.txt")
    assert node.path == "/a/b/c.txt"
    assert not node.is_directory
    assert tree.lookup("/a").is_directory
    assert tree.lookup("/a/b").is_directory
    assert len(tree) == 4


def test_add_path_idempotent():
    tree = NamespaceTree()
    first = tree.add_path("/a/b")
    second = tree.add_path("/a/b")
    assert first is second
    assert len(tree) == 3


def test_add_path_existing_prefix_reused():
    tree = NamespaceTree()
    tree.add_path("/a/b/c")
    tree.add_path("/a/b/d")
    assert len(tree) == 5
    assert tree.lookup("/a/b") is not None


def test_add_child_duplicate_name_rejected():
    tree = NamespaceTree()
    tree.add_child(tree.root, "a", is_directory=True)
    with pytest.raises(ValueError):
        tree.add_child(tree.root, "a")


def test_node_ids_dense_and_ordered():
    tree = NamespaceTree()
    tree.add_path("/a/b")
    tree.add_path("/c")
    ids = [node.node_id for node in tree]
    assert ids == list(range(len(tree)))
    for node in tree:
        assert tree.node_by_id(node.node_id) is node


def test_contains_and_lookup():
    tree = NamespaceTree()
    tree.add_path("/x/y.txt")
    assert "/x/y.txt" in tree
    assert "/x" in tree
    assert "/nope" not in tree
    assert tree.lookup("/nope") is None


def test_popularity_aggregation_sums_descendants():
    tree = NamespaceTree()
    a = tree.add_path("/a", is_directory=True)
    b = tree.add_path("/a/b", is_directory=True)
    c = tree.add_path("/a/b/c.txt")
    tree.record_access(c, 10.0)
    tree.record_access(b, 2.0)
    tree.aggregate_popularity()
    assert c.popularity == 10.0
    assert b.popularity == 12.0
    assert a.popularity == 12.0
    assert tree.root.popularity == 12.0


def test_total_popularity_property():
    tree = NamespaceTree()
    n = tree.add_path("/f.txt")
    tree.record_access(n, 7.0)
    assert tree.total_popularity == 7.0


def test_ensure_popularity_lazy():
    tree = NamespaceTree()
    n = tree.add_path("/f.txt")
    tree.record_access(n, 3.0)
    tree.ensure_popularity()
    root_before = tree.root.popularity
    tree.ensure_popularity()  # no-op: nothing changed
    assert tree.root.popularity == root_before
    tree.record_access(n, 1.0)
    tree.ensure_popularity()
    assert tree.root.popularity == root_before + 1.0


def test_aggregation_is_idempotent():
    tree = NamespaceTree()
    n = tree.add_path("/a/b/c.txt")
    tree.record_access(n, 5.0)
    tree.aggregate_popularity()
    tree.aggregate_popularity()
    assert tree.root.popularity == 5.0


def test_depth():
    tree = NamespaceTree()
    assert tree.depth() == 0
    tree.add_path("/a/b/c/d.txt")
    assert tree.depth() == 4


def test_files_and_directories():
    tree = NamespaceTree()
    tree.add_path("/a/b.txt")
    tree.add_path("/c", is_directory=True)
    files = tree.files()
    dirs = tree.directories()
    assert [f.path for f in files] == ["/a/b.txt"]
    assert {d.path for d in dirs} == {"/", "/a", "/c"}


def test_validate_passes_on_consistent_tree(sample_tree):
    sample_tree.validate()


def test_iteration_order_parents_first():
    tree = NamespaceTree()
    tree.add_path("/a/b/c/d.txt")
    seen = set()
    for node in tree:
        if node.parent is not None:
            assert node.parent in seen
        seen.add(node)
