"""Tests for the comparator schemes of Section VI."""

import bisect
import dataclasses
import hashlib
import random

import pytest

from repro.baselines import (
    AngleCutScheme,
    DropPlacement,
    DropScheme,
    DynamicSubtreeScheme,
    HashScheme,
    StaticSubtreeScheme,
    pathname_cluster_keys,
    preorder_keys,
)
from repro.core import NamespaceTree
from repro.metrics import balance_from_placement, system_locality
from repro.placement import DEAD_CAPACITY, Placement, stable_hash
from repro.simulation import ClusterSimulator, FaultPlan, SimulationConfig
from repro.traces import DatasetProfile, load_workload
from tests.conftest import build_random_tree

ALL_SCHEMES = [
    HashScheme,
    StaticSubtreeScheme,
    DynamicSubtreeScheme,
    DropScheme,
    AngleCutScheme,
]


@pytest.fixture(scope="module")
def tree():
    return build_random_tree(500, seed=7)


# ----------------------------------------------------------------------
# Generic contract: every scheme places every node
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_cls", ALL_SCHEMES)
def test_partition_complete(tree, scheme_cls):
    placement = scheme_cls().partition(tree, 4)
    placement.validate_complete(tree)


@pytest.mark.parametrize("scheme_cls", ALL_SCHEMES)
def test_partition_single_server(tree, scheme_cls):
    placement = scheme_cls().partition(tree, 1)
    assert all(placement.primary_of(n) == 0 for n in tree)
    assert system_locality(tree, placement) == float("inf")


@pytest.mark.parametrize("scheme_cls", ALL_SCHEMES)
def test_partition_deterministic(tree, scheme_cls):
    a = scheme_cls().partition(tree, 4)
    b = scheme_cls().partition(tree, 4)
    assert [a.primary_of(n) for n in tree] == [b.primary_of(n) for n in tree]


# ----------------------------------------------------------------------
# stable_hash
# ----------------------------------------------------------------------
def test_stable_hash_deterministic():
    assert stable_hash("/a/b") == stable_hash("/a/b")
    assert stable_hash("/a/b") != stable_hash("/a/c")


def test_stable_hash_range():
    assert 0 <= stable_hash("x") < 2 ** 64


# ----------------------------------------------------------------------
# Static hash
# ----------------------------------------------------------------------
def test_hash_scheme_spreads_nodes(tree):
    placement = HashScheme().partition(tree, 8)
    counts = [0] * 8
    for node in tree:
        counts[placement.primary_of(node)] += 1
    assert min(counts) > 0
    assert max(counts) < len(tree)


def test_hash_scheme_poor_locality_vs_static(tree):
    hash_pl = HashScheme().partition(tree, 8)
    static_pl = StaticSubtreeScheme().partition(tree, 8)
    assert system_locality(tree, static_pl) > system_locality(tree, hash_pl)


# ----------------------------------------------------------------------
# Static subtree
# ----------------------------------------------------------------------
def test_static_subtree_keeps_subtrees_whole(tree):
    placement = StaticSubtreeScheme(cut_depth=1).partition(tree, 4)
    for node in tree:
        chain = tree.ancestors(node, include_self=True)
        if len(chain) > 1:
            assert placement.primary_of(node) == placement.primary_of(chain[1])


def test_static_subtree_jumps_bounded(tree):
    placement = StaticSubtreeScheme(cut_depth=1).partition(tree, 4)
    assert all(placement.jumps_for(n, tree) <= 1 for n in tree)


def test_static_subtree_locality_flat_in_cluster_size(tree):
    values = [
        system_locality(tree, StaticSubtreeScheme().partition(tree, m))
        for m in (4, 8, 16)
    ]
    # Flat up to hash-collision luck with the root server (the (1-1/M)
    # factor): well within 2x while hash-like schemes move an order of
    # magnitude.
    assert max(values) / min(values) < 2.0


def test_static_subtree_never_rebalances(tree):
    scheme = StaticSubtreeScheme()
    placement = scheme.partition(tree, 4)
    assert scheme.rebalance(tree, placement) == []


def test_static_cut_depth_validation():
    with pytest.raises(ValueError):
        StaticSubtreeScheme(cut_depth=0)


def test_static_anchor_is_the_cut_depth_ancestor(tiny_dtr_workload):
    """Down a DTR tree's deepest chain (49 levels), a created node at or
    below the cut hashes its ancestor at the cut depth; above the cut it
    takes the root's server."""
    tree = tiny_dtr_workload.tree
    depths = tree.arena().depths()
    deepest = max(tree, key=lambda n: depths[n])
    chain = tree.ancestors(deepest, include_self=True)
    assert len(chain) == 50
    servers = 10007  # wide enough that distinct anchors hash apart
    for cut_depth in (1, 2, 7, 49):
        scheme = StaticSubtreeScheme(cut_depth=cut_depth)
        placement = Placement(servers)
        for node in chain:
            path = tree.ancestors(node, include_self=True)
            want = path[cut_depth] if len(path) > cut_depth else tree.root
            want_server = stable_hash(tree.path(want)) % servers
            assert scheme.place_created(tree, placement, node) == want_server


# ----------------------------------------------------------------------
# Dynamic subtree
# ----------------------------------------------------------------------
def test_dynamic_zone_roots_cover_tree(tree):
    placement = DynamicSubtreeScheme().partition(tree, 4)
    assert tree.root in placement.zone_of
    for node in tree:
        root = placement.zone_root_of(node)
        assert placement.primary_of(node) == placement.zone_of[root]


def test_dynamic_zone_loads_sum_to_total(tree):
    placement = DynamicSubtreeScheme().partition(tree, 4)
    loads = placement.zone_loads(tree)
    assert sum(loads.values()) == pytest.approx(tree.popularity[tree.root])


def test_dynamic_rebalance_reduces_overload(tree):
    scheme = DynamicSubtreeScheme(imbalance_tolerance=0.05)
    placement = scheme.partition(tree, 4)
    # Concentrate: move every depth-1..2 zone to server 0.
    for zone in list(placement.zone_of):
        placement.zone_of[zone] = 0
    placement.rebuild_assignments(tree)

    def spread():
        loads = [0.0] * 4
        zl = placement.zone_loads(tree)
        for root, server in placement.zone_of.items():
            loads[server] += zl[root]
        return max(loads) - min(loads)

    before = spread()
    for _ in range(5):
        if not scheme.rebalance(tree, placement):
            break
    assert spread() < before


def test_dynamic_rebalance_reports_migrations(tree):
    scheme = DynamicSubtreeScheme(imbalance_tolerance=0.01)
    placement = scheme.partition(tree, 4)
    for zone in list(placement.zone_of):
        placement.zone_of[zone] = 1
    placement.rebuild_assignments(tree)
    migrations = scheme.rebalance(tree, placement)
    assert migrations
    for migration in migrations:
        assert placement.zone_of[migration.node] == migration.target


def test_dynamic_scheme_validation():
    with pytest.raises(ValueError):
        DynamicSubtreeScheme(cut_depth=0)
    with pytest.raises(ValueError):
        DynamicSubtreeScheme(zones_per_server=0)


def test_dynamic_splits_toward_target_zone_count(tree):
    scheme = DynamicSubtreeScheme(zones_per_server=16)
    placement = scheme.partition(tree, 8)
    # Either reached the target or ran out of splittable zones.
    assert len(placement.zone_of) >= min(16 * 8, len(tree)) * 0.5


# ----------------------------------------------------------------------
# DROP
# ----------------------------------------------------------------------
def test_preorder_keys_contiguous_subtrees(tree):
    keys = preorder_keys(tree)
    # Every subtree occupies a contiguous key interval.
    for node in tree:
        if tree.children(node):
            subtree_keys = [keys[d] for d in tree.descendants(node, include_self=True)]
            lo, hi = min(subtree_keys), max(subtree_keys)
            inside = sum(1 for k in keys.values() if lo <= k <= hi)
            assert inside == len(subtree_keys)


def test_pathname_cluster_keys_cluster_siblings(tree):
    keys = pathname_cluster_keys(tree)
    window = 1.0 / (4 * len(tree))
    for node in tree:
        children = tree.children(node)
        if tree.is_directory(node) and len(children) >= 2:
            child_keys = sorted(keys[c] for c in children)
            assert child_keys[-1] - child_keys[0] <= window


def test_drop_balances_loads(tree):
    placement = DropScheme().partition(tree, 4)
    balance = balance_from_placement(tree, placement)
    static = balance_from_placement(tree, StaticSubtreeScheme().partition(tree, 4))
    assert balance > static


def test_drop_locality_worse_than_static(tree):
    drop = DropScheme().partition(tree, 8)
    static = StaticSubtreeScheme().partition(tree, 8)
    assert system_locality(tree, static) > system_locality(tree, drop)


def test_drop_rebalance_refits_boundaries(tree):
    scheme = DropScheme()
    placement = scheme.partition(tree, 4)
    hot = [n for n in tree if not tree.is_directory(n)][:10]
    for node in hot:
        tree.record_access(node, 500.0)
    tree.aggregate_popularity()
    migrations = scheme.rebalance(tree, placement)
    assert migrations  # boundaries moved
    placement.validate_complete(tree)


def test_drop_virtual_node_validation():
    with pytest.raises(ValueError):
        DropScheme(virtual_nodes_per_server=0)
    with pytest.raises(ValueError):
        DropScheme(key_mode="nope")


def test_drop_preorder_ablation_mode(tree):
    placement = DropScheme(key_mode="preorder").partition(tree, 4)
    placement.validate_complete(tree)
    # Idealised keys preserve more locality than pathname hashing.
    pathname = DropScheme(key_mode="pathname").partition(tree, 4)
    assert system_locality(tree, placement) >= system_locality(tree, pathname)


# ----------------------------------------------------------------------
# AngleCut
# ----------------------------------------------------------------------
def test_anglecut_rings_by_depth(tree):
    scheme = AngleCutScheme(num_rings=3)
    placement = scheme.partition(tree, 4)
    for node, (ring, angle) in placement.angles.items():
        assert ring == len(tree.ancestors(node)) % 3
        assert 0.0 <= angle < 1.0


def test_anglecut_balances_loads(tree):
    placement = AngleCutScheme().partition(tree, 4)
    static = StaticSubtreeScheme().partition(tree, 4)
    assert balance_from_placement(tree, placement) > balance_from_placement(tree, static)


def test_anglecut_locality_poor(tree):
    anglecut = AngleCutScheme().partition(tree, 8)
    static = StaticSubtreeScheme().partition(tree, 8)
    assert system_locality(tree, static) > system_locality(tree, anglecut)


def test_anglecut_rebalance_consistency(tree):
    scheme = AngleCutScheme()
    placement = scheme.partition(tree, 4)
    hot = [n for n in tree if not tree.is_directory(n)][-10:]
    for node in hot:
        tree.record_access(node, 300.0)
    tree.aggregate_popularity()
    scheme.rebalance(tree, placement)
    placement.validate_complete(tree)


def test_anglecut_ring_validation():
    with pytest.raises(ValueError):
        AngleCutScheme(num_rings=0)


# ----------------------------------------------------------------------
# The DROP / AngleCut re-fit against the full reassign it replaced
# ----------------------------------------------------------------------
def _quantiles(entries, shares, count, seen=None):
    """Keys where the running weight of sorted ``(key, weight)`` entries
    crosses each cumulative share of the total, padded with 1.0.

    ``seen`` collects the cases the fit met: a cut ``"on a key"`` (the
    key crossing a target is the boundary, and ``bisect_right`` puts it in
    the next range), one ``"straddled"`` across equal keys (crossed past
    the first of a run, so the run's earlier keys follow it), and a
    ``"padded"`` one (a target past the total weight)."""
    total = sum(weight for _key, weight in entries)
    targets, acc = [], 0.0
    for share in shares:
        acc += share
        targets.append(acc * total)
    bounds, running, t = [], 0.0, 0
    for i, (key, weight) in enumerate(entries):
        if t >= len(targets):
            break
        running += weight
        while t < len(targets) and running >= targets[t]:
            bounds.append(key)
            t += 1
            if seen is not None:
                seen.add("on a key")
                if i and entries[i - 1][0] == key:
                    seen.add("straddled")
    if seen is not None and len(bounds) < count:
        seen.add("padded")
    return bounds + [1.0] * (count - len(bounds))


def _owner(caps, position, rotation):
    """Owner of a range / arc, a failed one merging into the next live."""
    m = len(caps)
    floor = max(DEAD_CAPACITY, 1e-6 * max(caps))
    for step in range(m):
        if caps[(position + step + rotation) % m] > floor:
            return (position + step + rotation) % m
    return (position + rotation) % m


def _reference_refit(placement, seen=None):
    """The re-fit as it was: the whole keyspace sorted afresh, every key
    re-owned and reassigned, every key compared. Returns the moves."""
    caps, m = placement.capacities, placement.num_servers
    cap_total = sum(caps)
    individual = placement.tree.individual_popularity
    if isinstance(placement, DropPlacement):
        v, ranges = placement.virtual_nodes_per_server, placement.num_ranges
        entries = sorted(
            ((key, individual[node] + 1e-9) for node, key in placement.keys.items()),
            key=lambda item: item[0],
        )
        shares = [caps[r % m] / (cap_total * v) for r in range(ranges - 1)]
        new = _quantiles(entries, shares, ranges - 1, seen)
        if new == placement.boundaries:
            return []
        placement.boundaries = new
        where = {
            node: _owner(caps, bisect.bisect_right(new, key), 0)
            for node, key in placement.keys.items()
        }
    else:
        shares = [cap / cap_total for cap in caps]
        new = []
        for ring in range(placement.num_rings):
            entries = sorted(
                (angle, placement.tree.individual_popularity[node] + 1e-9)
                for node, (r, angle) in placement.angles.items()
                if r == ring
            )
            ring_shares = [shares[(k + ring) % m] for k in range(m - 1)]
            new.append(_quantiles(entries, ring_shares, m - 1, seen))
        if new == placement.ring_boundaries:
            return []
        placement.ring_boundaries = new
        where = {
            node: _owner(caps, bisect.bisect_right(new[ring], angle), ring)
            for node, (ring, angle) in placement.angles.items()
        }
    old = {node: placement.primary_of(node) for node in where}
    for node, server in where.items():
        placement.assign(node, server)
    return [(node, old[node], server) for node, server in where.items() if server != old[node]]


def _tied_tree(scheme, servers):
    """``/d`` and ``/e`` with three siblings created under ``/d`` — they take
    its preorder key / angle — weighted so that the order equal keys are
    summed in decides the fit: 2**53 swallows a lone 1.0 but not two. The
    heavy one comes first, so only a sort of the whole run of four equal
    keys (``/d`` included) puts it last."""
    tree = NamespaceTree()
    parent = tree.add_path("/d", is_directory=True)
    tree.record_access(tree.add_path("/e"), 2.0 ** 53 + 4)
    tree.aggregate_popularity()
    placement = scheme.partition(tree, servers)
    for name, weight in (("x", 2.0 ** 53), ("y", 1.0), ("z", 1.0)):
        node = tree.add_child(parent, name)
        tree.record_access(node, weight)
        scheme.place_created(tree, placement, node)
    return tree, placement


def test_anglecut_orders_equal_angles_by_weight():
    scheme = AngleCutScheme(num_rings=1)
    tree, placement = _tied_tree(scheme, 2)
    entries = [
        (angle, placement.tree.individual_popularity[node] + 1e-9)
        for node, (_ring, angle) in placement.angles.items()
    ]
    by_weight = _quantiles(sorted(entries), [0.5], 1)
    by_creation = _quantiles(sorted(entries, key=lambda item: item[0]), [0.5], 1)
    assert by_weight != by_creation  # the case is sharp
    individual = tree.arena().individual_popularity()
    assert AngleCutScheme._quantile_boundaries(placement, individual) == [by_weight]


def test_drop_key_order_is_the_stable_sort_of_the_current_keys():
    scheme = DropScheme(virtual_nodes_per_server=2, key_mode="preorder")
    tree, placement = _tied_tree(scheme, 1)
    kept = placement.key_order()
    assert placement.key_order() is kept  # nothing changed: not re-sorted

    def fit():
        individual = placement.tree.individual_popularity
        entries = sorted(
            ((key, individual[node] + 1e-9) for node, key in placement.keys.items()),
            key=lambda item: item[0],
        )
        return _quantiles(entries, [0.5], 1)

    before = fit()
    individual = tree.arena().individual_popularity()
    assert DropScheme._quantile_boundaries(placement, individual) == before
    # Forgotten and placed again, x now sorts last among the equal keys.
    node = tree.lookup("/d/x")
    placement.forget(node)
    scheme.place_created(tree, placement, node)
    assert fit() != before
    assert DropScheme._quantile_boundaries(placement, individual) == fit()
    # A key written in place is seen too.
    placement.keys[tree.lookup("/d/y")] = 0.9
    assert placement.key_order()[0] == sorted(placement.keys, key=placement.keys.get)


@pytest.mark.parametrize(
    "scheme",
    [DropScheme(key_mode="pathname"), DropScheme(key_mode="preorder"), AngleCutScheme()],
    ids=["drop-pathname", "drop-preorder", "anglecut"],
)
def test_refit_moves_what_the_full_reassign_moved(scheme):
    """Kept key order, per-range owner table and owner-changed-only
    reassign give the same boundaries, moves (order, source, target) and
    assignment as the full reassign — through created siblings (equal
    keys / angles, told apart by weight), a direct key write, a failed
    server (its ranges fall to the next live one) and popularity shifts.
    The cases a span cut could get wrong all occur: a key on a boundary,
    a heavy run of equal keys straddling one, and cuts padded with 1.0."""
    tree = build_random_tree(600, seed=11)
    new, ref = scheme.partition(tree, 5), scheme.partition(tree, 5)
    table = "keys" if isinstance(new, DropPlacement) else "angles"
    bounds = "boundaries" if table == "keys" else "ring_boundaries"
    rng = random.Random(5)
    dirs = [node for node in tree if tree.is_directory(node) and len(tree.ancestors(node)) >= 2]
    moved_rounds = 0
    seen = set()
    for round_ in range(8):
        if round_ == 1:
            parent = dirs[0]
            # Descending weights in creation order: the tie-break reorders.
            for i, weight in enumerate((90.0, 40.0, 7.0, 40.0)):
                node = tree.add_child(parent, f"created{i}")
                tree.record_access(node, weight)
                for placement in (new, ref):
                    scheme.place_created(tree, placement, node)
        if round_ == 3:
            for placement in (new, ref):
                placement.fail(2)
            # Before the re-fit the dead server's ranges are still wide:
            # the owner table hands each to the next live server.
            if table == "keys":
                owners, rows = [new.range_owners()], [new.boundaries]
            else:
                owners, rows = new.arc_owners(), new.ring_boundaries
            assert owners == [
                [_owner(new.capacities, position, rotation) for position in range(len(row) + 1)]
                for rotation, row in enumerate(rows)  # DROP: one row, no rotation
            ]
            assert 2 not in {owner for row in owners for owner in row}
        if round_ == 4:
            node = dirs[1]
            value = getattr(new, table)[dirs[2]]  # an equal key, written in place
            for placement in (new, ref):
                getattr(placement, table)[node] = value
            # The two equal keys carry four tenths of the weight: cuts
            # fall on the first of them and across the pair.
            heavy = 0.2 * sum(tree.individual_popularity[n] for n in tree)
            for equal in (node, dirs[2]):
                tree.record_access(equal, heavy)
        if round_ == 5:
            # A second failure, and the live capacities in absolute units:
            # the dead servers' shares fall under an ulp and the summed
            # shares round past 1, so the last targets lie past the total
            # weight and their cuts are padded with 1.0.
            for placement in (new, ref):
                placement.fail(4)
                for server, capacity in ((0, 3.3e6), (1, 5.3e6), (3, 7.5e5)):
                    placement.capacities[server] = capacity
        if round_ != 6:  # round 6 shifts nothing: the fit must stand still
            for node in rng.sample(list(tree), 60):
                tree.record_access(node, rng.expovariate(0.05))
        tree.aggregate_popularity()
        before = getattr(new, bounds)
        moves = scheme.rebalance(tree, new)
        expected = _reference_refit(ref, seen)
        assert [(m.node, m.source, m.target) for m in moves] == expected
        assert getattr(new, bounds) == getattr(ref, bounds)
        assert new._servers_of == ref._servers_of
        refit = getattr(new, bounds) != before
        moved_rounds += refit and bool(moves)
    assert moved_rounds >= 5
    assert seen == {"on a key", "straddled", "padded"}
    assert new.capacities[2] == new.capacities[4] == DEAD_CAPACITY
    assert all(servers not in ((2,), (4,)) for servers in new._servers_of)
    # Applying the boundaries again moves no owner.
    assert new.apply_boundaries() == []


# ----------------------------------------------------------------------
# A whole adjusted replay, pinned round by round
# ----------------------------------------------------------------------
#: Seeded RA replay with CREATEs (new keys mid-run), a crash + recover and
#: a Monitor quorum loss (skipped rounds): sha256 prefix of every round's
#: boundaries and moves, then ``_servers_of`` in node-id order.
REPLAY_PINS = {
    "drop-pathname": "d46624b179ae4db3",
    "drop-preorder": "82d61e49cced69e5",
    "anglecut": "b43743d8784dc61e",
}

_REPLAY_SCHEMES = {
    "drop-pathname": lambda: DropScheme(key_mode="pathname"),
    "drop-preorder": lambda: DropScheme(key_mode="preorder"),
    "anglecut": lambda: AngleCutScheme(),
}


@pytest.mark.parametrize("name", sorted(REPLAY_PINS))
def test_adjusted_replay_is_pinned(name):
    """Per round the boundaries and the moves (node id, source, target);
    at the end ``_servers_of`` in node-id order."""
    scheme = _REPLAY_SCHEMES[name]()
    refit = scheme.rebalance
    rounds = []

    def recording(tree, placement):
        moves = refit(tree, placement)
        bounds = getattr(placement, "boundaries", None) or placement.ring_boundaries
        rounds.append((bounds, [(m.node, m.source, m.target) for m in moves]))
        return moves

    scheme.rebalance = recording
    profile = DatasetProfile.ra(1500).scaled(num_operations=9000)
    sim = ClusterSimulator(
        scheme,
        load_workload(dataclasses.replace(profile, create_fraction=0.08)),
        6,
        SimulationConfig(
            adjust_every_ops=600, seed=5, num_monitors=3,
            fault_plan=FaultPlan.parse([
                "crash:2@ops=2200", "recover:2@ops=5600",
                "monitor_crash:0@ops=3000", "monitor_crash:1@ops=3100",
                "monitor_recover:1@ops=4400",
            ]),
        ),
    )
    sim.run()
    sim.close()
    placement = sim.placement
    assert len(rounds) >= 8 and sum(bool(moves) for _, moves in rounds) >= 4
    assert sim.monitor.aborted_directives > 0
    h = hashlib.sha256()
    for bounds, moves in rounds:
        h.update(f"{bounds!r} {moves!r}\n".encode())
    for nid, servers in enumerate(placement._servers_of):
        if servers is None:
            continue
        h.update(f"{nid} {servers}\n".encode())
    assert h.hexdigest()[:16] == REPLAY_PINS[name]
