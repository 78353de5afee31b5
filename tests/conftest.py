"""Shared fixtures: small deterministic trees and workloads."""

import random

import pytest

from repro.chaos.harness import check_run
from repro.core import NamespaceTree
from repro.traces import DatasetProfile, OpType, Trace, TraceGenerator, TraceRecord


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
        node.update_cost = 1.0
    tree.aggregate_popularity()
    return tree


def build_random_tree(num_nodes: int = 400, seed: int = 3) -> NamespaceTree:
    """A random tree with Zipf-ish popularity, deterministic per seed."""
    rng = random.Random(seed)
    tree = NamespaceTree()
    dirs = [tree.root]
    for i in range(num_nodes // 5):
        parent = rng.choice(dirs)
        if parent.depth < 8:
            dirs.append(tree.add_child(parent, f"d{i}", is_directory=True))
    for i in range(num_nodes - len(tree)):
        parent = rng.choice(dirs)
        node = tree.add_child(parent, f"f{i}", is_directory=False)
        tree.record_access(node, weight=rng.expovariate(0.02) + 1.0)
    for node in tree:
        node.update_cost = 0.1 + rng.random()
    tree.aggregate_popularity()
    return tree


def ops_trace(ops) -> Trace:
    """A trace of ``(path, op_value)`` pairs: op ``i`` has op_id ``i``."""
    return Trace.from_records(
        "ops", [TraceRecord(0.0, OpType(op), path) for path, op in ops]
    )


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
