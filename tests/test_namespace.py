"""Unit tests for repro.core.namespace."""

import gc
import hashlib
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import D2TreeScheme, NamespaceTree, split_path
from repro.core.namespace import PopularityEstimate
from repro.simulation import simulate
from repro.traces import DatasetProfile, OpType, TraceGenerator, TraceRecord, iter_op_batches
from tests.conftest import build_random_tree, check_structure, post_order_totals, trace_of
from tests.test_generator import PINNED_PROFILES


def test_split_path_basic():
    assert split_path("/home/b/h.jpg") == ["home", "b", "h.jpg"]


def test_split_path_root():
    assert split_path("/") == []


def test_split_path_trailing_slash():
    assert split_path("/a/b/") == ["a", "b"]


def test_empty_tree_has_root():
    tree = NamespaceTree()
    assert len(tree) == 1
    assert tree.path(tree.root) == "/"
    assert tree.root == 0


def test_add_path_creates_intermediates():
    tree = NamespaceTree()
    node = tree.add_path("/a/b/c.txt")
    assert tree.path(node) == "/a/b/c.txt"
    assert not tree.is_directory(node)
    assert tree.is_directory(tree.lookup("/a"))
    assert tree.is_directory(tree.lookup("/a/b"))
    assert len(tree) == 4


def test_add_path_idempotent():
    tree = NamespaceTree()
    first = tree.add_path("/a/b")
    second = tree.add_path("/a/b")
    assert first == second
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


def test_duplicate_names_are_refused_through_the_path_index():
    tree = NamespaceTree()
    wide = tree.add_path("/wide", is_directory=True)
    for i in range(3000):  # one name-index lookup per insertion, not a sibling scan
        tree.add_child(wide, f"f{i}")
    other = tree.add_path("/other", is_directory=True)
    tree.add_child(other, "f7")
    with pytest.raises(ValueError):
        tree.add_child(wide, "f2999")
    with pytest.raises(ValueError):
        tree.add_child(tree.root, "wide", is_directory=True)
    size = len(tree)
    assert tree.add_path("/wide/f5") == tree.lookup("/wide/f5")  # reused, not doubled
    assert len(tree) == size
    check_structure(tree)


@pytest.mark.parametrize("name", ["b/c", "", "/", "b/"])
def test_add_child_refuses_a_name_that_is_not_one_component(name):
    """A name holding a slash would register a node whose path claims
    directories it does not hang under (``/b/c`` at depth 1, beside a
    separate ``/b``), and an empty one a path ending in a slash."""
    tree = NamespaceTree()
    a = tree.add_path("/a", is_directory=True)
    for parent in (tree.root, a):
        with pytest.raises(ValueError, match="slash-free"):
            tree.add_child(parent, name)
    assert len(tree) == 2 and not tree.children(a)
    assert tree.lookup("/b") is None and tree.lookup("/a/") is None


def test_node_ids_dense_and_ordered():
    tree = NamespaceTree()
    tree.add_path("/a/b")
    tree.add_path("/c")
    ids = list(tree)
    assert ids == list(range(len(tree)))
    assert tree.paths(ids) == ["/", "/a", "/a/b", "/c"]


def test_contains_and_lookup():
    tree = NamespaceTree()
    tree.add_path("/x/y.txt")
    assert tree.names[tree.lookup("/x/y.txt")] == "y.txt"
    assert tree.is_directory(tree.lookup("/x"))
    assert tree.lookup("/nope") is None


def test_popularity_aggregation_sums_descendants():
    tree = NamespaceTree()
    a = tree.add_path("/a", is_directory=True)
    b = tree.add_path("/a/b", is_directory=True)
    c = tree.add_path("/a/b/c.txt")
    tree.record_access(c, 10.0)
    tree.record_access(b, 2.0)
    tree.aggregate_popularity()
    assert tree.popularity[c] == 10.0
    assert tree.popularity[b] == 12.0
    assert tree.popularity[a] == 12.0
    assert tree.popularity[tree.root] == 12.0


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
    root_before = tree.popularity[tree.root]
    tree.ensure_popularity()  # no-op: nothing changed
    assert tree.popularity[tree.root] == root_before
    tree.record_access(n, 1.0)
    tree.ensure_popularity()
    assert tree.popularity[tree.root] == root_before + 1.0


def test_aggregation_is_idempotent():
    tree = NamespaceTree()
    n = tree.add_path("/a/b/c.txt")
    tree.record_access(n, 5.0)
    tree.aggregate_popularity()
    tree.aggregate_popularity()
    assert tree.popularity[tree.root] == 5.0


def test_depth():
    tree = NamespaceTree()
    assert tree.depth() == 0
    tree.add_path("/a/b/c/d.txt")
    assert tree.depth() == 4


def test_files_and_directories():
    tree = NamespaceTree()
    tree.add_path("/a/b.txt")
    tree.add_path("/c", is_directory=True)
    dirs = tree.directories()
    assert tree.paths(n for n in tree if not tree.is_directory(n)) == ["/a/b.txt"]
    assert set(tree.paths(dirs)) == {"/", "/a", "/c"}


def test_sample_tree_keeps_the_growth_invariants(sample_tree):
    check_structure(sample_tree)


def test_iteration_order_parents_first():
    tree = NamespaceTree()
    tree.add_path("/a/b/c/d.txt")
    seen = set()
    for node in tree:
        parent = tree.parent(node)
        if parent is not None:
            assert parent in seen
        seen.add(node)


# ----------------------------------------------------------------------
# Def. 2 totals at non-dyadic popularity, pinned bit for bit
# ----------------------------------------------------------------------
#: sha256 (first 16 hex digits) of ``float.hex(p_j)`` for every
#: node in id order, after three seeded windows folded at blend 0.3 and
#: one ``materialise()``. At blend 0.3 the values are not dyadic, so the
#: totals depend on the order each parent adds its children in.
PINNED_DEF2_DIGESTS = {
    "dtr": "93206f5870543e6e",
    "lmbe": "a4e7a14b0662d71c",
    "ra": "e60c62ef85bf0219",
    "ra_creates": "e60c62ef85bf0219",
}


def def2_digest(profile) -> str:
    tree = TraceGenerator(profile).generate().tree
    estimate = PopularityEstimate(tree.arena(), 0.3)
    rng = random.Random(11)
    nodes = list(tree)
    for _ in range(3):
        estimate.fold({node: rng.randint(1, 9) for node in rng.sample(nodes, len(nodes) // 3)})
    estimate.materialise()
    h = hashlib.sha256()
    for total in tree.popularity:
        h.update(f"{total.hex()}\n".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED_PROFILES))
def test_def2_totals_are_pinned(name):
    assert def2_digest(PINNED_PROFILES[name]) == PINNED_DEF2_DIGESTS[name]


# ----------------------------------------------------------------------
# The growth invariant the reverse-id pass relies on
# ----------------------------------------------------------------------
#: One step of a random build: ``("path", dir, parts, file?)`` calls
#: ``add_path`` with a path of ``parts`` components drawn from a small name
#: pool (intermediate directories appear on the way); ``("child", pick,
#: name, dir?)`` calls ``add_child`` under the ``pick``-th directory built
#: so far, early ones included, as late-created files land.
_NAMES = st.sampled_from(["a", "b", "c", "d", "e"])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("path"), st.lists(_NAMES, min_size=1, max_size=5), st.booleans()),
        st.tuples(st.just("child"), st.integers(0, 10_000), _NAMES, st.booleans()),
    ),
    min_size=1,
    max_size=40,
)


@given(_STEPS, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_ids_grow_parents_first_under_any_build(steps, rng):
    """Under any mix of ``add_path`` and ``add_child`` — intermediate
    directories, and files added late under early directories — every id
    is larger than its parent's, each node's children are in id order,
    ``lookup(path)`` finds every node, the arena spans the tree, and the
    reverse-id pass equals the post-order walk bit for bit at non-dyadic
    ``p'``."""
    tree = NamespaceTree()
    for kind, *args in steps:
        try:
            if kind == "path":
                parts, is_file = args
                tree.add_path("/" + "/".join(parts), is_directory=not is_file)
            else:
                pick, name, is_dir = args
                dirs = tree.directories()
                tree.add_child(dirs[pick % len(dirs)], name, is_directory=is_dir)
        except ValueError:
            continue  # a file on the path, or the name is taken: nothing added
    check_structure(tree)
    individual = [rng.random() * 10 / 3 for _ in range(len(tree))]
    tree.arena().write_popularity(individual)
    assert list(tree.popularity) == post_order_totals(tree, individual)


# ----------------------------------------------------------------------
# What a tree keeps, and when it lets go
# ----------------------------------------------------------------------
def dropped_workload_lingers(profile) -> bool:
    """Generate ``profile``'s workload, read its arena, replay it once,
    drop it, all with the cyclic collector off: whether its tree, trace or
    the workload itself is still alive (a reference cycle holds it until a
    full collection)."""
    gc.collect()
    gc.disable()
    try:
        workload = TraceGenerator(profile, num_clients=8).generate()
        workload.tree.arena()
        result = simulate(D2TreeScheme(), workload, 4)
        refs = [weakref.ref(obj) for obj in (workload, workload.tree, workload.trace)]
        del workload, result
        return any(ref() is not None for ref in refs)
    finally:
        gc.enable()


def test_a_dropped_workload_is_freed_without_the_collector():
    """A node is an id, the arena holds the tree's columns and not the
    tree, and the route planner stores no bound method of its own:
    nothing a replayed workload holds forms a cycle."""
    assert not dropped_workload_lingers(DatasetProfile.dtr(num_nodes=2000, scale=2e-5))


def workload_bytes_per_node(profile) -> float:
    """Bytes a generated workload (tree and trace) retains per tree node."""
    tracemalloc.start()
    try:
        workload = TraceGenerator(profile).generate()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / len(workload.tree)


def test_a_generated_dtr_workload_retains_at_most_197_bytes_per_node():
    """A node is its id: a name, a flag byte, three 4-byte id columns and
    three 8-byte popularity / cost columns, and no path kept — ~179 B per
    node at 20 k nodes, trace included (CPython 3.10 / 3.11; ~169 on 3.12),
    where a node object with its path string and path-dict entry held
    ~461."""
    assert workload_bytes_per_node(DatasetProfile.dtr(num_nodes=20_000)) <= 197


@pytest.mark.parametrize("path", ["/a//b", "/a/", "//a", "/a/b/", "/a/c", "a/b", "", "/zz"])
def test_only_a_canonical_path_resolves(path):
    """A path resolves only when it is a node's canonical path: doubled or
    trailing slashes, a missing leading slash or an absent node resolve to
    nothing, and a trace op on one is skipped."""
    tree = NamespaceTree()
    tree.add_path("/a/b", individual_popularity=1.0)
    assert tree.lookup(path) is None
    trace = trace_of("t", [
        TraceRecord(0.0, OpType.READ, "/a/b", 0),
        TraceRecord(1.0, OpType.READ, path, 0),
        TraceRecord(2.0, OpType.UPDATE, "/a", 0),
    ])
    batches = list(iter_op_batches(trace, tree))
    nodes = [node for batch in batches for node in batch.nodes]
    assert nodes == [tree.lookup("/a/b"), tree.lookup("/a")]
    assert [op for batch in batches for op in batch.ops()] == [OpType.READ, OpType.UPDATE]


def test_a_relative_path_is_added_under_the_root():
    tree = NamespaceTree()
    node = tree.add_path("a/b")
    assert tree.lookup("/a/b") == node
    assert tree.lookup("a/b") is None
    assert tree.add_path("/a/b") == node and len(tree) == 3


@given(st.integers(1, 500), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_rendered_paths_round_trip(num_nodes, seed):
    """Every node's rendered path is the one it was added under and
    resolves back to its id; the root's is ``/`` and a node's children's
    paths come out in id order."""
    added = {}
    tree = build_random_tree(num_nodes, seed, added=added)
    nodes = list(tree)
    paths = tree.paths(nodes)
    assert paths == [added[node] for node in nodes]
    assert paths[tree.root] == tree.path(tree.root) == "/"
    assert tree.resolve(paths) == nodes
    assert all(tree.lookup(added[node]) == node for node in nodes[::7])
    for node in tree.directories():
        children = tree.children(node)
        assert children == sorted(children)
        assert tree.paths(children) == [added[child] for child in children]
