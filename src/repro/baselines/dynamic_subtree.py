"""Dynamic subtree partitioning (Ceph / Kosha style).

Starts from a static subtree partition at a finer cut depth, then reacts to
load: when a server is relatively overloaded it migrates busy directory
fragments to lighter servers, *splitting* fragments into smaller pieces when
a whole fragment would overshoot. The paper's critique — finer granularity
buys balance but fragments path prefixes across servers (hurting locality as
the cluster scales), and migration can thrash — emerges directly from this
mechanism.

The placement keeps an explicit set of *zone roots*: every node belongs to
the zone of its deepest zone-root ancestor, zones nest by exclusion, and
migrating a zone moves exactly its exclusive node set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.placement import DEAD_CAPACITY, MetadataScheme, Migration, Placement, stable_hash
from repro.registry import register
from repro.core.namespace import NamespaceTree
from repro.numeric import ordered_sum

__all__ = ["DynamicSubtreeScheme", "DynamicSubtreePlacement"]


class DynamicSubtreePlacement(Placement):
    """Placement with an explicit zone-root map supporting splits and moves."""

    def __init__(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(num_servers, capacities, tree)
        #: zone root -> owning server; the tree root is always a zone root.
        self.zone_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def zone_root_of(self, node: int) -> int:
        """Deepest zone-root ancestor (or self) of ``node``."""
        walk = node
        while walk not in self.zone_of:
            walk = self.tree.parent(walk)
        return walk

    def rebuild_assignments(self, tree: NamespaceTree) -> None:
        """Recompute every node's server from the zone map: a node's zone
        is its own entry or its parent's, resolved in one pass in id
        order (parents first), then reassigned."""
        arena = tree.arena()
        zone_servers = self.zone_of
        server_of = [zone_servers[tree.root]] * arena.size
        for cid, pid in arena.descent():
            server = zone_servers.get(cid)
            server_of[cid] = server_of[pid] if server is None else server
        self.reassign(range(arena.size), server_of)

    def assign(self, node: int, server: int) -> None:
        """Place ``node``; a zone root takes its zone along, or a later
        rebuild would put the zone back on its old server."""
        super().assign(node, server)
        if node in self.zone_of:
            self.zone_of[node] = server

    def _rehome(self, dead: int, alive: List[int]) -> List[Migration]:
        """Zone-granular re-homing keeps "one zone, one server" intact:
        each of the dead server's zones is re-hashed as a unit and its
        exclusive node set follows."""
        survivors = alive or [s for s in range(self.num_servers) if s != dead]
        moves: List[Migration] = []
        zones = [zone for zone, server in self.zone_of.items() if server == dead]
        for zone, path in zip(zones, self.tree.paths(zones)):
            target = survivors[stable_hash(path) % len(survivors)]
            self.zone_of[zone] = target
            moves.append(Migration(zone, dead, target))
        for node, servers in enumerate(self._servers_of):
            if servers == (dead,):
                self.assign(node, self.zone_of[self.zone_root_of(node)])
        return moves

    def _pull_back(self, server: int, live: List[int]) -> List[Migration]:
        """Nothing: the rebalance pulls load to the light newcomer once its
        capacity is back, and moving zones here would fight it."""
        return []

    def migration_sizes(self, moves: Sequence[Migration], tree: NamespaceTree) -> List[int]:
        """A moved zone's subtree minus every zone below it, clamped at 1.

        Every zone below counts, nested ones too, so a zone two levels
        down is subtracted twice (the size undercounts; ROADMAP lists it).
        One walk up from each zone serves the whole round's moves."""
        arena = tree.arena()
        sizes, parent = arena.subtree_sizes(), arena.parent
        below = {move.node: 0 for move in moves}
        for zone in self.zone_of:
            pid = parent[zone]
            while pid >= 0:
                if pid in below:
                    below[pid] += sizes[zone]
                pid = parent[pid]
        return [max(1, sizes[m.node] - below[m.node]) for m in moves]

    def counted_nodes(self) -> None:
        """Every node: a zone's load and a split's candidates are read off
        the whole tree."""
        return None

    def forget(self, node: int) -> bool:
        """Drop a node and any zone-root entry it held."""
        self.zone_of.pop(node, None)
        return super().forget(node)

    def zone_loads(self, tree: NamespaceTree) -> Dict[int, float]:
        """Exclusive popularity covered by each zone root."""
        tree.ensure_popularity()
        popularity = tree.popularity
        loads = {root: popularity[root] for root in self.zone_of}
        for root in self.zone_of:
            parent = tree.parent(root)
            if parent is not None:
                loads[self.zone_root_of(parent)] -= popularity[root]
        return loads


@register("dynamic-subtree")
class DynamicSubtreeScheme(MetadataScheme):
    """Migrate-when-overloaded subtree partitioning.

    Parameters
    ----------
    cut_depth:
        Initial fragment depth (finer than static subtree partitioning,
        matching the paper's "subtrees need to be split into smaller subtrees
        with finer granularity").
    imbalance_tolerance:
        Relative overload that triggers migration.
    max_migrations_per_round:
        Caps migration work per rebalance call (real systems throttle this).
    migration_budget:
        Fraction of total popularity allowed to move per round; bounds
        thrashing.
    """

    name = "dynamic-subtree"

    def __init__(
        self,
        cut_depth: int = 2,
        imbalance_tolerance: float = 0.15,
        max_migrations_per_round: int = 64,
        zones_per_server: int = 4,
        migration_budget: float = 0.15,
    ) -> None:
        if cut_depth < 1:
            raise ValueError("cut_depth must be at least 1")
        if zones_per_server < 1:
            raise ValueError("zones_per_server must be at least 1")
        self.cut_depth = cut_depth
        self.imbalance_tolerance = imbalance_tolerance
        self.max_migrations_per_round = max_migrations_per_round
        self.zones_per_server = zones_per_server
        self.migration_budget = migration_budget

    # ------------------------------------------------------------------
    def partition(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> DynamicSubtreePlacement:
        tree.ensure_popularity()
        placement = DynamicSubtreePlacement(tree, num_servers, capacities)
        placement.zone_of[tree.root] = stable_hash(tree.path(tree.root)) % num_servers
        depths = tree.arena().depths()
        shallow = [node for node in tree if 1 <= depths[node] <= self.cut_depth]
        for node, path in zip(shallow, tree.paths(shallow)):
            placement.zone_of[node] = stable_hash(path) % num_servers
        # Finer granularity as the cluster scales (the paper's observation:
        # dynamic partitioning keeps splitting subtrees so every server can
        # get a share): split the hottest zones until there are enough
        # fragments to spread.
        target = self.zones_per_server * num_servers
        while len(placement.zone_of) < target:
            zone_loads = placement.zone_loads(tree)
            splittable = [
                (load, root)
                for root, load in zone_loads.items()
                if any(c not in placement.zone_of for c in tree.children(root))
            ]
            if not splittable:
                break
            splittable.sort(key=lambda item: (-item[0], item[1]))
            _load, zone = splittable[0]
            for child in tree.children(zone):
                if child not in placement.zone_of:
                    placement.zone_of[child] = stable_hash(tree.path(child)) % num_servers
        placement.rebuild_assignments(tree)
        placement.validate_complete(tree)
        return placement

    # ------------------------------------------------------------------
    def place_created(self, tree, placement, node):
        """New shallow nodes open fresh zones; deep ones join the parent's."""
        if 1 <= len(tree.ancestors(node)) <= self.cut_depth:
            server = stable_hash(tree.path(node)) % placement.num_servers
            placement.zone_of[node] = server
        else:
            server = placement.zone_of[placement.zone_root_of(tree.parent(node))]
        placement.assign(node, server)
        return server

    # ------------------------------------------------------------------
    def rebalance(
        self,
        tree: NamespaceTree,
        placement: DynamicSubtreePlacement,  # type: ignore[override]
    ) -> List[Migration]:
        tree.ensure_popularity()
        migrations: List[Migration] = []
        moved_popularity = 0.0
        total_cap = ordered_sum(placement.capacities)
        # Failed servers sit at the DEAD_CAPACITY sentinel (see
        # Placement.fail): they hold no load, which would otherwise
        # make them the "lightest" migration target.
        cap_floor = max(DEAD_CAPACITY, 1e-6 * max(placement.capacities))
        usable = [k for k in range(placement.num_servers)
                  if placement.capacities[k] > cap_floor]
        if len(usable) < 2:
            return migrations
        for _ in range(self.max_migrations_per_round):
            zone_loads = placement.zone_loads(tree)
            server_loads = [0.0] * placement.num_servers
            for root, server in placement.zone_of.items():
                server_loads[server] += zone_loads[root]
            mu = ordered_sum(server_loads) / total_cap
            if mu <= 0:
                break
            heavy = max(
                usable,
                key=lambda k: server_loads[k] / placement.capacities[k],
            )
            heavy_rel = server_loads[heavy] / placement.capacities[heavy]
            if heavy_rel <= mu * (1 + self.imbalance_tolerance):
                break
            light = min(
                usable,
                key=lambda k: server_loads[k] / placement.capacities[k],
            )
            excess = server_loads[heavy] - mu * placement.capacities[heavy]
            # All of the heavy server's zones; the tree-root zone may only be
            # split (its exclusive set must keep a home), never migrated.
            candidates = [
                (zone_loads[root], root)
                for root, server in placement.zone_of.items()
                if server == heavy
            ]
            movable = [
                (load, zone) for load, zone in candidates if zone != tree.root
            ]
            if not candidates:
                break
            candidates.sort(key=lambda item: (-item[0], item[1]))
            movable.sort(key=lambda item: (-item[0], item[1]))
            # Prefer the biggest fragment that fits the excess AND the
            # remaining migration budget; oversized fragments get split
            # instead of bounced between servers (the thrashing failure mode
            # the paper describes).
            budget_left = self.migration_budget * ordered_sum(server_loads) - moved_popularity
            cap = min(excess * 1.5, budget_left)
            fitting = [(load, zone) for load, zone in movable if 0 < load <= cap]
            if fitting:
                load, zone = fitting[0]
            else:
                _load, big = candidates[0]
                added = 0
                for child in tree.children(big):
                    if child not in placement.zone_of:
                        placement.zone_of[child] = heavy
                        added += 1
                if added:
                    continue
                if not movable or migrations:
                    break
                # Unsplittable oversized fragment and nothing moved yet:
                # move the smallest movable fragment to make some progress.
                load, zone = movable[-1]
                if load <= 0:
                    break
            placement.zone_of[zone] = light
            moved_popularity += load
            migrations.append(Migration(zone, heavy, light))
        if migrations:
            placement.rebuild_assignments(tree)
        return migrations
