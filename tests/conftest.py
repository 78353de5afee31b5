"""Shared fixtures: small deterministic trees and workloads."""

import random

import pytest

from repro.chaos.harness import check_run
from repro.core import NamespaceTree
from repro.traces import OP_CODES, DatasetProfile, OpType, Trace, TraceGenerator, TraceRecord


def build_sample_tree() -> NamespaceTree:
    """A hand-written tree mirroring the paper's Fig. 2 example."""
    tree = NamespaceTree()
    tree.add_path("/home", is_directory=True)
    tree.add_path("/home/a", is_directory=True)
    tree.add_path("/home/b", is_directory=True)
    tree.add_path("/home/a/c.txt")
    tree.add_path("/home/b/g.pdf")
    tree.add_path("/home/b/h.jpg")
    tree.add_path("/var", is_directory=True)
    tree.add_path("/var/d", is_directory=True)
    tree.add_path("/var/e", is_directory=True)
    tree.add_path("/var/e/j.doc")
    tree.add_path("/usr", is_directory=True)
    tree.add_path("/usr/f", is_directory=True)
    for i, path in enumerate(
        ["/home/a/c.txt", "/home/b/g.pdf", "/home/b/h.jpg", "/var/e/j.doc"]
    ):
        tree.record_access(tree.lookup(path), weight=10.0 * (i + 1))
    tree.record_access(tree.lookup("/home"), weight=5.0)
    for node in tree:
        tree.update_cost[node] = 1.0
    tree.aggregate_popularity()
    return tree


def build_random_tree(num_nodes: int = 400, seed: int = 3, added=None) -> NamespaceTree:
    """A random tree with Zipf-ish popularity, deterministic per seed.
    ``added``, a dict, records each node's path as the builder composed it
    (parent's path, a slash, the name it chose)."""
    rng = random.Random(seed)
    tree = NamespaceTree()
    composed = {tree.root: ""}
    dirs = [tree.root]
    for i in range(num_nodes // 5):
        parent = rng.choice(dirs)
        if len(tree.ancestors(parent)) < 8:
            dirs.append(tree.add_child(parent, f"d{i}", is_directory=True))
            composed[dirs[-1]] = f"{composed[parent]}/d{i}"
    for i in range(num_nodes - len(tree)):
        parent = rng.choice(dirs)
        node = tree.add_child(parent, f"f{i}", is_directory=False)
        composed[node] = f"{composed[parent]}/f{i}"
        tree.record_access(node, weight=rng.expovariate(0.02) + 1.0)
    if added is not None:
        added.update((node, path or "/") for node, path in composed.items())
    for node in tree:
        tree.update_cost[node] = 0.1 + rng.random()
    tree.aggregate_popularity()
    return tree


def check_structure(tree: NamespaceTree) -> None:
    """What the tree's only structural mutation, ``add_child``, keeps true:
    every node's id is larger than its parent's, each node's children are
    in id order, every node's rendered path resolves back to it, and the
    arena spans the tree."""
    nodes = list(tree)
    assert tree.resolve(tree.paths(nodes)) == nodes
    for node in tree:
        children = tree.children(node)
        assert children == sorted(children) and all(cid > node for cid in children)
        assert all(tree.parent(child) == node for child in children)
    assert len(tree) == tree.arena().size


def post_order_totals(tree: NamespaceTree, individual) -> list:
    """Def. 2 totals of an id-indexed ``p'`` column by a post-order walk of
    the tree, the reference the arena's reverse-id pass must equal bit for
    bit: children are pushed in id order, so each parent takes its last
    child's total first."""
    totals = list(individual)
    stack = [(tree.root, False)]
    while stack:
        node, children_done = stack.pop()
        if children_done:
            parent = tree.parent(node)
            if parent is not None:
                totals[parent] += totals[node]
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in tree.children(node))
    return totals


def subtree_size(tree: NamespaceTree, node) -> int:
    """Nodes in the subtree rooted at ``node`` (itself included), counted
    by a walk of that subtree: the reference for the arena's
    ``subtree_sizes`` column."""
    return sum(1 for _ in tree.descendants(node, include_self=True))


def trace_of(name, records, description="") -> Trace:
    """A trace's columns built from hand-written ``TraceRecord`` rows."""
    return Trace.from_rows(
        name,
        ((r.timestamp, OP_CODES[r.op], r.client_id, r.path) for r in records),
        description,
    )


def ops_trace(ops) -> Trace:
    """A trace of ``(path, op_value)`` pairs: op ``i`` has op_id ``i``."""
    return trace_of("ops", [TraceRecord(0.0, OpType(op), path) for path, op in ops])


def live_audit(cluster, generator):
    """The run audit ``serve_workload`` ends with, for a live cluster a test
    drove with its own load generator (op ids ``0..len(trace)-1``)."""
    cluster.control.history = generator.history
    return check_run(
        cluster.control, len(generator.trace),
        ledgers={mds.server_id: mds.acked for mds in cluster.servers},
    )


@pytest.fixture
def sample_tree() -> NamespaceTree:
    return build_sample_tree()


@pytest.fixture
def random_tree() -> NamespaceTree:
    return build_random_tree()


@pytest.fixture(scope="session")
def tiny_dtr_workload():
    """A miniature DTR-profile workload shared across test modules."""
    profile = DatasetProfile.dtr(num_nodes=1200, scale=6e-5)
    return TraceGenerator(profile, num_clients=20).generate()


@pytest.fixture(scope="session")
def tiny_lmbe_workload():
    profile = DatasetProfile.lmbe(num_nodes=1200, scale=3e-5)
    return TraceGenerator(profile, num_clients=20).generate()


def index_size(index) -> int:
    """Entries a ``RoutingIndex`` holds: global-layer paths plus subtree roots."""
    return len(index.global_layer) + len(index.roots)
