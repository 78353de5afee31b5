"""MDS failure and membership-change handling.

The Monitor "detects cluster status, including MDS failure and new MDS
added" (Sec. IV-A3). This module implements the recovery actions:

* **failure** — the dead server's metadata must be re-homed. For D2-Tree the
  global layer needs nothing (it is replicated everywhere); the dead server's
  local-layer subtrees flow through the pending pool to the survivors via
  mirror division. For single-assignment schemes the dead server's nodes are
  re-hashed across survivors (zone-granular for dynamic subtree partitioning,
  so zones stay whole).
* **rejoin** — a recovered (or new) server comes back empty with its capacity
  restored. For D2-Tree the global layer is re-replicated onto it and
  local-layer subtrees are pulled back mirror-division style (one explicit
  offer/claim round with zero tolerance — the "new-coming server can
  initiatively request some subtrees from the pending pool" of Sec. IV-B).
  Schemes with their own load-driven rebalance (dynamic subtree, DROP,
  AngleCut) pull load through that path once the capacity is back; static
  hash-keyed placements re-hash over the live set.

Dead servers are marked with the :data:`~repro.placement.DEAD_CAPACITY`
sentinel in ``placement.capacities`` — the one convention shared with the
adjuster's deficit math — so every capacity-driven policy (mirror division,
HDLB targets, boundary shares) treats them as unable to host anything
without renumbering the cluster.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.placement import DEAD_CAPACITY, Migration, Placement
from repro.baselines.dynamic_subtree import DynamicSubtreePlacement
from repro.baselines.hashing import stable_hash
from repro.core.allocation import mirror_division
from repro.core.partition import D2TreePlacement
from repro.numeric import ordered_sum

__all__ = [
    "check_state_invariants",
    "fail_server",
    "rejoin_server",
    "surviving_capacities",
]


def surviving_capacities(placement: Placement, dead: int) -> List[float]:
    """Capacities with the dead server at the sentinel (it can host nothing)."""
    return [
        DEAD_CAPACITY if server == dead else cap
        for server, cap in enumerate(placement.capacities)
    ]


def fail_server(placement: Placement, dead: int) -> List[Migration]:
    """Re-home everything the dead server held; returns the moves made.

    The placement keeps its width (server ids stay stable); the dead server
    simply ends up owning nothing.
    """
    if not 0 <= dead < placement.num_servers:
        raise ValueError("no such server")
    if placement.num_servers < 2:
        raise ValueError("cannot fail the only server")
    migrations: List[Migration] = []
    # Mark the server unusable for every capacity-driven policy (mirror
    # division, the adjuster's deficits, HDLB targets) without renumbering
    # the cluster.
    placement.capacities[dead] = DEAD_CAPACITY

    alive = [
        s for s, cap in enumerate(placement.capacities) if cap > DEAD_CAPACITY
    ]

    if isinstance(placement, D2TreePlacement):
        # Global layer: drop the dead replica (the remaining replicas keep
        # serving it). Deriving survivors from the *current* replica sets
        # keeps earlier failures excluded too. When cascading failures kill
        # a node's *last* replica, it is re-seeded across the live set —
        # the global layer must never lose its only copy (if no server is
        # left alive the stale set stays; rejoins will top it back up).
        for node in placement.split.global_layer:
            remaining = [s for s in placement.servers_of(node) if s != dead]
            if not remaining:
                if not alive:
                    continue
                remaining = alive
            placement.replicate(node, remaining)
        live = {
            s
            for node in placement.split.global_layer
            for s in placement.servers_of(node)
        } or {s for s in range(placement.num_servers) if s != dead}
        # Local layer: dead server's subtrees go through the pending pool —
        # mirror division over the survivors' remaining deficits.
        orphans = [
            root for root, server in placement.subtree_owner.items() if server == dead
        ]
        if orphans:
            loads = placement.local_loads()
            total_pop = ordered_sum(loads)
            caps = [
                cap if server in live else DEAD_CAPACITY
                for server, cap in enumerate(placement.capacities)
            ]
            total_cap = ordered_sum(caps)
            deficits = [
                max(total_pop * cap / total_cap - load, DEAD_CAPACITY)
                if cap > DEAD_CAPACITY
                else DEAD_CAPACITY
                for cap, load in zip(caps, loads)
            ]
            deficits[dead] = DEAD_CAPACITY
            allocation = mirror_division([r.popularity for r in orphans], deficits)
            for root, target in zip(orphans, allocation.assignment):
                if target not in live:  # numerical corner: best live server
                    target = max(live, key=lambda s: deficits[s])
                placement.move_subtree(root, target)
                migrations.append(Migration(root, dead, target))
        return migrations

    # Prefer servers that are actually alive; under cascading failures the
    # index-based complement may itself contain earlier casualties (falling
    # back to it only when nothing is left alive).
    survivors = alive or [s for s in range(placement.num_servers) if s != dead]
    if isinstance(placement, DynamicSubtreePlacement):
        # Zone-granular re-homing keeps the "one zone, one server" invariant
        # intact: each of the dead server's zones is re-hashed as a unit and
        # its exclusive node set follows.
        for zone, server in list(placement.zone_of.items()):
            if server != dead:
                continue
            target = survivors[stable_hash(zone.path) % len(survivors)]
            placement.zone_of[zone] = target
            migrations.append(Migration(zone, dead, target))
        for node in placement.placed_nodes():
            if placement.servers_of(node) == (dead,):
                placement.assign(node, placement.zone_of[placement.zone_root_of(node)])
        return migrations

    # Generic single-assignment scheme: re-hash the dead server's nodes
    # across the survivors.
    for node in placement.placed_nodes():
        servers = placement.servers_of(node)
        if len(servers) > 1:
            if dead in servers:
                remaining = [s for s in servers if s != dead]
                placement.replicate(node, remaining)
            continue
        if servers[0] == dead:
            target = survivors[stable_hash(node.path) % len(survivors)]
            placement.assign(node, target)
            migrations.append(Migration(node, dead, target))
    return migrations


def rejoin_server(
    placement: Placement,
    server: int,
    capacity: float = 1.0,
    live: Optional[Sequence[int]] = None,
) -> List[Migration]:
    """Re-admit a failed server (or welcome a new one); returns the moves.

    Restores ``placement.capacities[server]`` and pulls metadata back onto
    the newcomer. ``live`` is the set of currently-alive server ids
    (including ``server``); it defaults to every server whose capacity is
    above the :data:`~repro.placement.DEAD_CAPACITY` sentinel.
    """
    if not 0 <= server < placement.num_servers:
        raise ValueError("no such server")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    placement.capacities[server] = float(capacity)
    if live is None:
        live = [
            s
            for s, cap in enumerate(placement.capacities)
            if cap > DEAD_CAPACITY
        ]
    live = sorted(set(live) | {server})
    migrations: List[Migration] = []

    if isinstance(placement, D2TreePlacement):
        # Global layer follows the rejoined server (a bounded replica set is
        # only topped back up to its factor).
        for node in placement.split.global_layer:
            current = set(placement.servers_of(node))
            if server not in current and len(current) < placement.replication_factor:
                placement.replicate(node, sorted(current | {server}))
        # Local layer: one explicit offer/claim round with zero tolerance —
        # survivors above the new ideal load shed the largest subtrees that
        # fit their excess and the empty newcomer's deficit claims the pool
        # mirror-division style. The newcomer receives load, not a
        # count-balanced share: zero-popularity subtrees stay where they are.
        from repro.core.adjustment import DynamicAdjuster

        owners = dict(placement.subtree_owner)
        report = DynamicAdjuster(imbalance_tolerance=0.0).adjust(
            owners, placement.local_loads(), placement.capacities
        )
        for root, source, target in report.migrations:
            placement.move_subtree(root, target)
            migrations.append(Migration(root, source, target))
        return migrations

    if isinstance(placement, DynamicSubtreePlacement) or hasattr(
        placement, "apply_boundaries"
    ):
        # Load-driven schemes (dynamic subtree, DROP, AngleCut) pull load to
        # the light newcomer through their own rebalance once the capacity
        # is restored; moving keys here would fight their policies.
        return migrations

    # Hash-keyed static placements: re-hash single-assigned nodes over the
    # live set; nodes that now key to the newcomer move back (the mirror of
    # fail_server's survivor re-hash).
    for node in placement.placed_nodes():
        servers = placement.servers_of(node)
        if len(servers) > 1:
            continue
        target = live[stable_hash(node.path) % len(live)]
        if target == server and servers[0] != server:
            placement.assign(node, server)
            migrations.append(Migration(node, servers[0], server))
    return migrations


def check_state_invariants(placement: Placement, tree, servers, group) -> List[str]:
    """Safety invariants 1–3 over a quiesced cluster; returns violations.

    One statement of the state invariants for both drivers: the chaos
    harness passes the simulator's ``MetadataServer`` list and the live
    transport its ``LiveMDS`` list (anything with ``server_id``, ``alive``
    and ``fence_epoch``); ``group`` is the ``MonitorGroup``. The violation
    strings are compared verbatim by the corpus and hunt reports.
    """
    violations: List[str] = []

    # 1. Single live ownership: no placed node owned by a dead server, no
    #    empty replica sets. Post-quiescence everything is alive, so any
    #    dead owner is state that survived recovery — exactly the bug class
    #    (resurrected pre-crash assignments) fencing exists to prevent.
    dead = {s for s, cap in enumerate(placement.capacities) if cap <= DEAD_CAPACITY}
    dead.update(s.server_id for s in servers if not s.alive)
    bad_owner: List[str] = []
    empty: List[str] = []
    for node in placement.placed_nodes():
        owners = placement.servers_of(node)
        if not owners:
            empty.append(node.path)
        elif dead.intersection(owners):
            bad_owner.append(node.path)
    if empty:
        violations.append(
            f"ownership: {len(empty)} nodes with an empty replica set "
            f"(e.g. {empty[:3]})"
        )
    if bad_owner:
        violations.append(
            f"ownership: {len(bad_owner)} nodes owned by a dead server "
            f"{sorted(dead)} (e.g. {bad_owner[:3]})"
        )

    # 2. No subtree lost (Eq. 4 completeness over placements + pool).
    missing = [n.path for n in tree if not placement.is_placed(n)]
    if missing:
        violations.append(
            f"completeness: {len(missing)} namespace nodes unplaced "
            f"(e.g. {missing[:3]})"
        )

    # 3. Epoch monotonicity: journalled epochs never decrease and no MDS
    #    fence ran ahead of the group's epoch.
    if not group.journal.epochs_monotone():
        violations.append("epochs: committed directive epochs regressed")
    for server in servers:
        if server.fence_epoch > group.epoch:
            violations.append(
                f"epochs: server {server.server_id} fence "
                f"{server.fence_epoch} ahead of monitor epoch "
                f"{group.epoch}"
            )
    return violations
