"""D2-Tree placement: a two-layer :class:`Placement` with a local index.

The global layer is replicated on every server; each local-layer subtree
lives wholly on one server. The *local index* (Sec. IV-A1) maps every
local-layer subtree root to its owner so clients — and the jump accounting —
can route a query in at most one hop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.placement import DEAD_CAPACITY, Migration, Placement
from repro.core.adjustment import DynamicAdjuster
from repro.core.allocation import mirror_division
from repro.core.namespace import NamespaceTree
from repro.core.splitting import SplitResult
from repro.numeric import ordered_sum

__all__ = ["D2TreePlacement"]


class D2TreePlacement(Placement):
    """Placement produced by the D2-Tree scheme.

    Besides the node→servers map it records the split (global layer, inter
    nodes) and the subtree-root→owner local index, and implements the paper's
    jump convention: ``jp = 0`` for global-layer nodes, ``jp = 1`` for
    local-layer nodes (Eq. 7 — "at most one hop ... when accessing a node in
    local layer").
    """

    def __init__(
        self,
        tree: NamespaceTree,
        num_servers: int,
        split: SplitResult,
        capacities: Optional[Sequence[float]] = None,
        replication_factor: Optional[int] = None,
    ) -> None:
        super().__init__(num_servers, capacities, tree)
        self.split = split
        #: subtree root -> owning server (the client-cached local index).
        self.subtree_owner: Dict[int, int] = {}
        #: Bumped whenever two-layer *membership* changes — a subtree root
        #: appears or disappears, or a node changes layer (promotion /
        #: demotion). Plain migrations keep the root set intact and do NOT
        #: bump it, which is what lets the routing engine's node→root cache
        #: survive adjustment churn. Owner lookups always read
        #: ``subtree_owner`` live, so ownership changes are visible
        #: immediately either way.
        self.index_version = 0
        if replication_factor is None:
            replication_factor = num_servers
        if not 1 <= replication_factor <= num_servers:
            raise ValueError("replication_factor must lie in [1, num_servers]")
        #: Number of servers holding each global-layer node. The paper's
        #: Discussion proposes "setting a threshold to control the number of
        #: replications of global layer" to tame update overhead at scale.
        self.replication_factor = replication_factor

    def global_replicas(self) -> List[int]:
        """Servers hosting the global layer (the first R of the cluster)."""
        return list(range(self.replication_factor))

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def place_global_layer(self) -> None:
        """Replicate every global-layer node to the replica set."""
        replicas = self.global_replicas()
        for node in sorted(self.split.global_layer):
            self.replicate(node, replicas)

    def place_subtree(self, root: int, server: int) -> None:
        """Assign an entire local-layer subtree to ``server``."""
        self._check_server(server)
        self.subtree_owner[root] = server
        self.index_version += 1
        self._assign_subtree(root, server)

    def _assign_subtree(self, root: int, server: int) -> int:
        """``assign`` every node of a subtree; returns how many.

        What a reader can observe — each node's servers, the final
        ``version`` — is that of an ``assign()`` call per node; the server
        is the caller's to check, once.
        """
        owner = self._single[server]
        servers_of = self._reserve(len(self.tree))
        servers_of[root] = owner
        count = 1
        for node in self.tree.descendants(root):
            servers_of[node] = owner
            count += 1
        self.version += count
        return count

    def promote_subtree(self, root: int) -> List[int]:
        """Move a local-layer subtree root into the global layer (Sec. IV-A).

        The root is replicated to every server; each of its children becomes
        an independent (finer) local-layer subtree, initially staying on the
        old owner so promotion itself moves only one node. Returns the new
        subtree roots.
        """
        if root not in self.subtree_owner:
            raise KeyError(f"{self.tree.path(root)!r} is not a local-layer subtree root")
        owner = self.subtree_owner.pop(root)
        self.index_version += 1
        self.split.global_layer.add(root)
        if root in self.split.subtree_roots:
            self.split.subtree_roots.remove(root)
        # Eq. 7 bookkeeping: only the promoted node leaves the local layer;
        # its descendants remain local and keep contributing their p_j.
        self.split.local_popularity -= self.tree.popularity[root]
        self.split.update_cost += self.tree.update_cost[root]
        # Join the parent's replica set (it is global by construction), so a
        # shrunken global layer — e.g. after an MDS failure — stays shrunken.
        parent = self.tree.parent(root)
        if parent is not None and self.is_placed(parent):
            self.replicate(root, self.servers_of(parent))
        else:
            self.replicate(root)
        new_roots: List[int] = []
        for child in self.tree.children(root):
            self.subtree_owner[child] = owner
            self.split.subtree_roots.append(child)
            new_roots.append(child)
        if new_roots and root not in self.split.inter_nodes:
            self.split.inter_nodes.append(root)
        return new_roots

    def forget(self, node: int) -> bool:
        """Drop a node's assignment plus its two-layer bookkeeping.

        Replicated (global-layer) nodes are never forgotten.
        """
        if self.is_placed(node) and self.is_replicated(node):
            return False
        if node in self.subtree_owner:
            del self.subtree_owner[node]
            self.index_version += 1
            if node in self.split.subtree_roots:
                self.split.subtree_roots.remove(node)
            self.split.local_popularity -= self.tree.popularity[node]
        return super().forget(node)

    def demote_global_node(self, node: int, owner: int) -> None:
        """Move a cooled-off global-layer node back to the local layer.

        Only childless nodes qualify (demoting an inner node would orphan
        its global children or force subtree merges); these are exactly the
        hot files earlier promotions replicated. The node becomes a
        single-node subtree owned by ``owner``.
        """
        if node not in self.split.global_layer:
            raise KeyError(f"{self.tree.path(node)!r} is not in the global layer")
        if self.tree.children(node):
            raise ValueError("only childless global nodes can be demoted")
        if node == self.tree.root:
            raise ValueError("the root cannot leave the global layer")
        self.split.global_layer.discard(node)
        self.split.local_popularity += self.tree.popularity[node]
        self.split.update_cost -= self.tree.update_cost[node]
        self.split.subtree_roots.append(node)
        self.subtree_owner[node] = owner
        self.index_version += 1
        self.assign(node, owner)

    def move_subtree(self, root: int, server: int) -> int:
        """Migrate a subtree to ``server``; returns the number of nodes moved."""
        if root not in self.subtree_owner:
            raise KeyError(f"{self.tree.path(root)!r} is not a local-layer subtree root")
        self._check_server(server)
        self.subtree_owner[root] = server
        return self._assign_subtree(root, server)

    # ------------------------------------------------------------------
    # Membership (Sec. IV-A3, IV-B)
    # ------------------------------------------------------------------
    def _rehome(self, dead: int, alive: List[int]) -> List[Migration]:
        """The global layer drops the dead replica (the others keep serving
        it); the dead server's subtrees go through the pending pool to the
        survivors via mirror division."""
        # Deriving survivors from the *current* replica sets keeps earlier
        # failures excluded too. When cascading failures kill a node's
        # *last* replica, it is re-seeded across the live set — the global
        # layer must never lose its only copy (if no server is left alive
        # the stale set stays; rejoins will top it back up).
        for node in self.split.global_layer:
            remaining = [s for s in self.servers_of(node) if s != dead]
            if not remaining:
                if not alive:
                    continue
                remaining = alive
            self.replicate(node, remaining)
        live = {
            s for node in self.split.global_layer for s in self.servers_of(node)
        } or {s for s in range(self.num_servers) if s != dead}
        orphans = [root for root, server in self.subtree_owner.items() if server == dead]
        if not orphans:
            return []
        # Mirror division over the survivors' remaining deficits.
        loads = self.local_loads()
        total_pop = ordered_sum(loads)
        caps = [
            cap if server in live else DEAD_CAPACITY
            for server, cap in enumerate(self.capacities)
        ]
        total_cap = ordered_sum(caps)
        deficits = [
            max(total_pop * cap / total_cap - load, DEAD_CAPACITY)
            if cap > DEAD_CAPACITY
            else DEAD_CAPACITY
            for cap, load in zip(caps, loads)
        ]
        deficits[dead] = DEAD_CAPACITY
        popularity = self.tree.popularity
        allocation = mirror_division([popularity[r] for r in orphans], deficits)
        moves: List[Migration] = []
        for root, target in zip(orphans, allocation.assignment):
            if target not in live:  # numerical corner: best live server
                target = max(live, key=lambda s: deficits[s])
            self.move_subtree(root, target)
            moves.append(Migration(root, dead, target))
        return moves

    def _pull_back(self, server: int, live: List[int]) -> List[Migration]:
        """The global layer follows the rejoined server (a bounded replica
        set is only topped back up to its factor); then one explicit
        offer/claim round with zero tolerance — the "new-coming server can
        initiatively request some subtrees from the pending pool" of
        Sec. IV-B. Survivors above the new ideal load shed the largest
        subtrees that fit their excess and the empty newcomer's deficit
        claims the pool mirror-division style: it receives load, not a
        count-balanced share, so zero-popularity subtrees stay put."""
        for node in self.split.global_layer:
            current = set(self.servers_of(node))
            if server not in current and len(current) < self.replication_factor:
                self.replicate(node, sorted(current | {server}))
        report = DynamicAdjuster(imbalance_tolerance=0.0).adjust(
            dict(self.subtree_owner), self.local_loads(), self.capacities, self.tree.popularity
        )
        moves: List[Migration] = []
        for root, source, target in report.migrations:
            self.move_subtree(root, target)
            moves.append(Migration(root, source, target))
        return moves

    def migration_sizes(self, moves: Sequence[Migration], tree: NamespaceTree) -> List[int]:
        """A moved subtree carries every node in it."""
        sizes = tree.arena().subtree_sizes()
        return [sizes[move.node] for move in moves]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_global(self, node: int) -> bool:
        """True when ``node`` belongs to the replicated global layer."""
        return node in self.split.global_layer

    def subtree_root_of(self, node: int) -> Optional[int]:
        """Local-layer subtree root above ``node`` (None for global nodes)."""
        if self.is_global(node):
            return None
        walk = node
        while walk is not None and walk not in self.subtree_owner:
            walk = self.tree.parent(walk)
        return walk

    def index_entries(self):
        """The global layer's replica sets and the local index."""
        layer, owner = list(self.split.global_layer), self.subtree_owner
        return (zip(self.tree.paths(layer), map(self.servers_of, layer)),
                zip(self.tree.paths(owner), owner.values()))

    def jumps_for(self, node: int, tree: NamespaceTree) -> int:
        """Paper convention (Eq. 7): 0 inside the global layer, else 1."""
        return 0 if self.is_global(node) else 1

    def counted_nodes(self) -> List[int]:
        """Sec. IV-B's access counters: the local-layer subtree roots (whole
        subtrees are what gets balanced, promoted and re-homed) and the
        childless global-layer nodes (the demotion candidates)."""
        last_child = self.tree.arena().last_child
        leaves = (n for n in self.split.global_layer if last_child[n] < 0)
        return [*self.subtree_owner, *leaves]

    def lightest(self, loads: Sequence[float]) -> int:
        """The server with the least of ``loads`` per unit capacity; a dead one never."""
        caps = self.capacities
        return min(
            range(self.num_servers),
            key=lambda k: loads[k] / caps[k] if caps[k] > 1e-9 else float("inf"),
        )

    def local_loads(self) -> List[float]:
        """Per-server local-layer load (what heartbeats report to Monitor)."""
        popularity = self.tree.popularity
        loads = [0.0] * self.num_servers
        for root, server in self.subtree_owner.items():
            loads[server] += popularity[root]
        return loads
