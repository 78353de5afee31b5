"""The placements ``partition()`` produces, pinned byte for byte.

Each registered scheme partitions small DTR / LMBE / RA trees; a digest
covers everything a reader of the placement can observe: every ``(node id,
servers)`` pair in ``_servers_of`` insertion order, the final ``version``,
and DROP's ``keys`` / AngleCut's ``angles`` in their insertion order. The
``moved`` case re-parents a subtree under a directory registered after it,
so registration order is no longer parents-first there.
"""

import hashlib

import pytest

from repro import registry
from repro.baselines.hashing import stable_hash
from repro.traces import DatasetProfile, TraceGenerator

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
