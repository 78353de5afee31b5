"""The placements ``partition()`` produces, pinned byte for byte.

Each registered scheme partitions small DTR / LMBE / RA trees; a digest
covers everything a reader of the placement can observe: every ``(node id,
servers)`` pair in node-id order, the final ``version``, and DROP's
``keys`` / AngleCut's ``angles`` in their insertion order.
"""

import hashlib
import json

import pytest

from repro import registry
from repro.baselines.dynamic_subtree import DynamicSubtreePlacement
from repro.core import NamespaceTree
from repro.placement import Migration, stable_hash
from repro.simulation import ClusterSimulator, FaultPlan, SimulationConfig
from repro.traces import DatasetProfile, TraceGenerator
from tests.conftest import build_random_tree

NUM_SERVERS = 5

PROFILES = {
    "dtr": DatasetProfile.dtr(num_nodes=1500, scale=2e-5),
    "lmbe": DatasetProfile.lmbe(num_nodes=1200, scale=2e-5),
    "ra": DatasetProfile.ra(num_nodes=1000, scale=2e-5),
}


def placed_by_id(placement):
    """``(node id, servers)`` of every placed node, in id order."""
    return [(nid, servers) for nid, servers in enumerate(placement._servers_of) if servers]


def placement_digest(placement) -> str:
    h = hashlib.sha256()
    for nid, servers in placed_by_id(placement):
        h.update(f"{nid} {servers}\n".encode())
    h.update(f"version {placement.version}\n".encode())
    for attr in ("keys", "angles"):
        for node, value in getattr(placement, attr, {}).items():
            h.update(f"{attr} {node} {value!r}\n".encode())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def trees():
    return {name: TraceGenerator(profile).generate().tree for name, profile in PROFILES.items()}


PINNED = {
    "anglecut": {
        "dtr": "9e43caa9b3911966",
        "lmbe": "4fb3de9c6c718277",
        "ra": "22c47dd7af1ddb47",
    },
    "d2-tree": {
        "dtr": "227339fe9d046515",
        "lmbe": "8d5c0277980a9f6c",
        "ra": "c4596fa5454dd5f5",
    },
    "drop": {
        "dtr": "184fb099162608b0",
        "lmbe": "e4e69ef0f3eb70b9",
        "ra": "ab8a00e06e633620",
    },
    "dynamic-subtree": {
        "dtr": "5e9e4e0a1e531593",
        "lmbe": "4f68a3bc3db1abdb",
        "ra": "ed06f7824ec56995",
    },
    "static-hash": {
        "dtr": "67935e9ad4c6fbd6",
        "lmbe": "84dddf437625884f",
        "ra": "c6ebdeed4034d54e",
    },
    "static-subtree": {
        "dtr": "87bc83fb2214311c",
        "lmbe": "067dbf712c299b32",
        "ra": "d801318dcb62b7b7",
    },
}


def test_every_registered_scheme_is_pinned():
    assert sorted(PINNED) == registry.available()


@pytest.mark.parametrize("case", ["dtr", "lmbe", "ra"])
@pytest.mark.parametrize("scheme", sorted(PINNED))
def test_partition_bytes_are_pinned(trees, scheme, case):
    placement = registry.create(scheme).partition(trees[case], NUM_SERVERS)
    assert placement_digest(placement) == PINNED[scheme][case]


def test_every_node_is_placed_by_its_ancestors(trees):
    """Every node sits where the per-node rule puts it: static subtree on
    its cut-depth anchor's hash, dynamic subtree on its deepest zone root's
    server."""
    tree = trees["dtr"]
    static = registry.create("static-subtree").partition(tree, NUM_SERVERS)
    root_server = stable_hash("/") % NUM_SERVERS
    for node in tree:
        chain = tree.ancestors(node, include_self=True)
        want = stable_hash(tree.path(chain[1])) % NUM_SERVERS if len(chain) > 1 else root_server
        assert static.primary_of(node) == want
    dynamic = registry.create("dynamic-subtree").partition(tree, NUM_SERVERS)
    for node in tree:
        assert dynamic.primary_of(node) == dynamic.zone_of[dynamic.zone_root_of(node)]


# ----------------------------------------------------------------------
# Membership changes: failure re-homing, rejoin pull-back, migration sizes
# ----------------------------------------------------------------------
#: fail 1, fail 3, rejoin 1, fail 0, rejoin 3 (with an explicit live set
#: that leaves out server 1), rejoin 0.
MEMBERSHIP_STEPS = (
    ("fail", 1, None),
    ("fail", 3, None),
    ("rejoin", 1, None),
    ("fail", 0, None),
    ("rejoin", 3, [2, 3, 4]),
    ("rejoin", 0, None),
)


@pytest.fixture(scope="module")
def membership_trees():
    return {
        "random": build_random_tree(400, seed=13),
        "ra": TraceGenerator(DatasetProfile.ra(num_nodes=1500, scale=2e-5)).generate().tree,
    }


def membership_digest(placement) -> str:
    h = hashlib.sha256()
    for kind, server, live in MEMBERSHIP_STEPS:
        if kind == "fail":
            moves = placement.fail(server)
        else:
            moves = placement.rejoin(server, live=live)
        h.update(f"{kind} {server}\n".encode())
        # A step's moves as a set: their order is not what a step decides.
        for nid, source, target in sorted((m.node, m.source, m.target) for m in moves):
            h.update(f"{nid} {source} {target}\n".encode())
    for nid, servers in placed_by_id(placement):
        h.update(f"{nid} {servers}\n".encode())
    h.update(f"version {placement.version}\n".encode())
    h.update(f"capacities {placement.capacities!r}\n".encode())
    return h.hexdigest()[:16]


MEMBERSHIP_PINNED = {
    "anglecut": {"random": "513aa450cb3ed495", "ra": "344358a0c6ed9096"},
    "d2-tree": {"random": "9329ceb4a45f6ec1", "ra": "dc30836abd902031"},
    "drop": {"random": "fe7d380a9fedbe1f", "ra": "404b3ef265a18381"},
    "dynamic-subtree": {"random": "d84fad90b818fbad", "ra": "0f5a3d3a79b4b698"},
    "static-hash": {"random": "e75874ccd1c142b4", "ra": "430c01e73285818f"},
    "static-subtree": {"random": "0dc4b23a3b2e8040", "ra": "527797a79025cc1e"},
}


@pytest.mark.parametrize("case", ["random", "ra"])
@pytest.mark.parametrize("scheme", sorted(MEMBERSHIP_PINNED))
def test_fail_and_rejoin_moves_are_pinned(membership_trees, scheme, case):
    tree = membership_trees[case]
    placement = registry.create(scheme).partition(tree, NUM_SERVERS)
    assert membership_digest(placement) == MEMBERSHIP_PINNED[scheme][case]


@pytest.fixture(scope="module")
def faulted_workload():
    return TraceGenerator(
        DatasetProfile.ra(num_nodes=1500, scale=2e-5), num_clients=20
    ).generate()


FAULTED_PINNED = {
    "anglecut": "2510a1637764dd67",
    "d2-tree": "4a7b813d38ed34d0",
    "drop": "88187fdd298d9d94",
    "dynamic-subtree": "74c1b3808c9d825b",
    "static-hash": "ccaac47656afcb99",
    "static-subtree": "454fc571506d88ae",
}


@pytest.mark.parametrize("scheme", sorted(FAULTED_PINNED))
def test_faulted_replay_is_pinned(faulted_workload, scheme):
    """Evictions, rejoins and the adjustment rounds between them, priced:
    migration sizes land in ``busy_time``."""
    config = SimulationConfig(
        num_clients=20, adjust_every_ops=300, seed=11,
        fault_plan=FaultPlan.parse([
            "crash:1@ops=200", "kill9:3@ops=400",
            "recover:1@ops=900", "recover:3@ops=1300",
        ]),
    )
    sim = ClusterSimulator(registry.create(scheme), faulted_workload, NUM_SERVERS, config)
    result = sim.run()
    assert result.availability.rejoins == 2
    record = json.dumps([result.to_dict(), sim.busy_time], sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest()[:16] == FAULTED_PINNED[scheme]


def nested_zone_case():
    """A dynamic-subtree placement whose zone ``/a`` holds the zone
    ``/a/x/b``, which holds the zone ``/a/x/b/c``; ``/a/x`` is no zone."""
    tree = NamespaceTree()
    for path in ("/a", "/a/x", "/a/x/b", "/a/x/b/c"):
        tree.add_path(path, is_directory=True)
    for path in (
        "/a/i0", "/a/i1", "/a/i2", "/a/i3", "/a/x/h0",
        "/a/x/b/g0", "/a/x/b/c/f0", "/a/x/b/c/f1", "/top",
    ):
        tree.add_path(path)
    tree.aggregate_popularity()
    placement = DynamicSubtreePlacement(tree, NUM_SERVERS)
    for path, server in (("/", 0), ("/a", 1), ("/a/x/b", 2), ("/a/x/b/c", 3)):
        placement.zone_of[tree.lookup(path)] = server
    placement.rebuild_assignments(tree)
    return tree, placement


def test_nested_zone_migration_sizes_are_pinned():
    """A zone's migration size is its subtree minus every zone below it,
    clamped at 1: a zone two levels down is subtracted twice (once inside
    the zone that holds it), so ``/a`` (7 exclusive nodes) counts 4 and
    ``/`` (2) clamps to 1; a non-zone node pays for the zones below it."""
    tree, placement = nested_zone_case()
    paths = ("/", "/a", "/a/x", "/a/x/b", "/a/x/b/c", "/top")
    moves = [Migration(tree.lookup(p), 0, 4) for p in paths]
    sizes = placement.migration_sizes(moves, tree)
    assert dict(zip(paths, sizes)) == {
        "/": 1, "/a": 4, "/a/x": 1, "/a/x/b": 2, "/a/x/b/c": 3, "/top": 1,
    }
