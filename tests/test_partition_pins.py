"""The placements ``partition()`` produces, pinned byte for byte.

Each registered scheme partitions small DTR / LMBE / RA trees; a digest
covers everything a reader of the placement can observe: every ``(node id,
servers)`` pair in ``_servers_of`` insertion order, the final ``version``,
and DROP's ``keys`` / AngleCut's ``angles`` in their insertion order. The
``moved`` case re-parents a subtree under a directory registered after it,
so registration order is no longer parents-first there.
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


def placement_digest(placement) -> str:
    h = hashlib.sha256()
    for node, servers in placement._servers_of.items():
        h.update(f"{node.node_id} {servers}\n".encode())
    h.update(f"version {placement.version}\n".encode())
    for attr in ("keys", "angles"):
        for node, value in getattr(placement, attr, {}).items():
            h.update(f"{attr} {node.node_id} {value!r}\n".encode())
    return h.hexdigest()[:16]


def moved_tree(profile):
    """The profile's tree after ``move_node`` re-parents the first
    mid-sized subtree (10-200 nodes, depth >= 2) of another top-level
    directory under the last directory registered."""
    tree = TraceGenerator(profile).generate().tree
    late = max((n for n in tree if n.is_directory), key=lambda n: n.node_id)
    top = late.ancestors(include_self=True)[1]
    victim = next(
        n for n in tree
        if n.is_directory and n.depth >= 2 and n.ancestors()[1] is not top
        and 10 <= n.subtree_size() <= 200
    )
    assert victim.node_id < late.node_id
    tree.move_node(victim, late)
    return tree


@pytest.fixture(scope="module")
def trees():
    built = {name: TraceGenerator(profile).generate().tree for name, profile in PROFILES.items()}
    built["dtr_moved"] = moved_tree(PROFILES["dtr"])
    return built


PINNED = {
    "anglecut": {
        "dtr": "76cbfa8468942fa7",
        "lmbe": "9429a0d0abb3e9d7",
        "ra": "40d28ed0dfca0501",
        "dtr_moved": "d71e18a21f250571",
    },
    "d2-tree": {
        "dtr": "aca81978a690791a",
        "lmbe": "0b1e384ce1736eae",
        "ra": "705860f6a5c1dbd6",
        "dtr_moved": "030ecff1af15ad34",
    },
    "drop": {
        "dtr": "184fb099162608b0",
        "lmbe": "e4e69ef0f3eb70b9",
        "ra": "ab8a00e06e633620",
        "dtr_moved": "d7d1f4ebb4995df5",
    },
    "dynamic-subtree": {
        "dtr": "5e9e4e0a1e531593",
        "lmbe": "4f68a3bc3db1abdb",
        "ra": "ed06f7824ec56995",
        "dtr_moved": "abad6f64e7e5de02",
    },
    "static-hash": {
        "dtr": "67935e9ad4c6fbd6",
        "lmbe": "84dddf437625884f",
        "ra": "c6ebdeed4034d54e",
        "dtr_moved": "25a523727f308c36",
    },
    "static-subtree": {
        "dtr": "87bc83fb2214311c",
        "lmbe": "067dbf712c299b32",
        "ra": "d801318dcb62b7b7",
        "dtr_moved": "c5739cdc93bc5df6",
    },
}


def test_every_registered_scheme_is_pinned():
    assert sorted(PINNED) == registry.available()


@pytest.mark.parametrize("case", ["dtr", "lmbe", "ra", "dtr_moved"])
@pytest.mark.parametrize("scheme", sorted(PINNED))
def test_partition_bytes_are_pinned(trees, scheme, case):
    placement = registry.create(scheme).partition(trees[case], NUM_SERVERS)
    assert placement_digest(placement) == PINNED[scheme][case]


def test_a_moved_subtree_is_placed_by_its_new_ancestors(trees):
    """On the moved tree every node sits where the per-node rule puts it:
    static subtree on its cut-depth anchor's hash, dynamic subtree on its
    deepest zone root's server."""
    tree = trees["dtr_moved"]
    static = registry.create("static-subtree").partition(tree, NUM_SERVERS)
    root_server = stable_hash("/") % NUM_SERVERS
    for node in tree:
        chain = node.ancestors(include_self=True)
        want = stable_hash(chain[1].path) % NUM_SERVERS if len(chain) > 1 else root_server
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
        for move in moves:
            h.update(f"{move.node.node_id} {move.source} {move.target}\n".encode())
    for node, servers in placement._servers_of.items():
        h.update(f"{node.node_id} {servers}\n".encode())
    h.update(f"version {placement.version}\n".encode())
    h.update(f"capacities {placement.capacities!r}\n".encode())
    return h.hexdigest()[:16]


MEMBERSHIP_PINNED = {
    "anglecut": {"random": "06eb0258ec621147", "ra": "c712b8a46cc4fbce"},
    "d2-tree": {"random": "ac9346f11d1a89fb", "ra": "f9cd468efdb75e69"},
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
    placement = DynamicSubtreePlacement(NUM_SERVERS)
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
