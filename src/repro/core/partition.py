"""D2-Tree placement: a two-layer :class:`Placement` with a local index.

The global layer is replicated on every server; each local-layer subtree
lives wholly on one server. The *local index* (Sec. IV-A1) maps every
local-layer subtree root to its owner so clients — and the jump accounting —
can route a query in at most one hop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.placement import Placement
from repro.core.node import MetadataNode
from repro.core.splitting import SplitResult

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
        num_servers: int,
        split: SplitResult,
        capacities: Optional[Sequence[float]] = None,
        replication_factor: Optional[int] = None,
    ) -> None:
        super().__init__(num_servers, capacities)
        self.split = split
        #: subtree root -> owning server (the client-cached local index).
        self.subtree_owner: Dict[MetadataNode, int] = {}
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
        """Replicate every global-layer node to the replica set.

        In ``node_id`` order: the layer is a set of nodes hashed by address,
        and the insertion order of ``_servers_of`` fixes the float summation
        order of ``loads()`` — it must not depend on the allocator.
        """
        replicas = self.global_replicas()
        for node in sorted(self.split.global_layer, key=lambda n: n.node_id):
            self.replicate(node, replicas)

    def place_subtree(self, root: MetadataNode, server: int) -> None:
        """Assign an entire local-layer subtree to ``server``."""
        self._check_server(server)
        self.subtree_owner[root] = server
        self.index_version += 1
        self._assign_subtree(root, server)

    def _assign_subtree(self, root: MetadataNode, server: int) -> int:
        """``assign`` every node of a subtree; returns how many.

        What a reader can observe — the dict insertion order of
        not-yet-placed descendants, the final ``version`` — is that of an
        ``assign()`` call per node; the server is the caller's to check,
        once, and the nodes share one ``(server,)`` tuple.
        """
        owner = (server,)
        servers_of = self._servers_of
        servers_of[root] = owner
        count = 1
        for node in root.descendants():
            servers_of[node] = owner
            count += 1
        self.version += count
        return count

    def promote_subtree(self, root: MetadataNode) -> List[MetadataNode]:
        """Move a local-layer subtree root into the global layer (Sec. IV-A).

        The root is replicated to every server; each of its children becomes
        an independent (finer) local-layer subtree, initially staying on the
        old owner so promotion itself moves only one node. Returns the new
        subtree roots.
        """
        if root not in self.subtree_owner:
            raise KeyError(f"{root.path!r} is not a local-layer subtree root")
        owner = self.subtree_owner.pop(root)
        self.index_version += 1
        self.split.global_layer.add(root)
        if root in self.split.subtree_roots:
            self.split.subtree_roots.remove(root)
        # Eq. 7 bookkeeping: only the promoted node leaves the local layer;
        # its descendants remain local and keep contributing their p_j.
        self.split.local_popularity -= root.popularity
        self.split.update_cost += root.update_cost
        # Join the parent's replica set (it is global by construction), so a
        # shrunken global layer — e.g. after an MDS failure — stays shrunken.
        if root.parent is not None and self.is_placed(root.parent):
            self.replicate(root, self.servers_of(root.parent))
        else:
            self.replicate(root)
        new_roots: List[MetadataNode] = []
        for child in root.children:
            self.subtree_owner[child] = owner
            self.split.subtree_roots.append(child)
            new_roots.append(child)
        if new_roots and root not in self.split.inter_nodes:
            self.split.inter_nodes.append(root)
        return new_roots

    def forget(self, node: MetadataNode) -> bool:
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
            self.split.local_popularity -= node.popularity
        return super().forget(node)

    def demote_global_node(self, node: MetadataNode, owner: int) -> None:
        """Move a cooled-off global-layer node back to the local layer.

        Only childless nodes qualify (demoting an inner node would orphan
        its global children or force subtree merges); these are exactly the
        hot files earlier promotions replicated. The node becomes a
        single-node subtree owned by ``owner``.
        """
        if node not in self.split.global_layer:
            raise KeyError(f"{node.path!r} is not in the global layer")
        if node.children:
            raise ValueError("only childless global nodes can be demoted")
        if node.parent is None:
            raise ValueError("the root cannot leave the global layer")
        self.split.global_layer.discard(node)
        self.split.local_popularity += node.popularity
        self.split.update_cost -= node.update_cost
        self.split.subtree_roots.append(node)
        self.subtree_owner[node] = owner
        self.index_version += 1
        self.assign(node, owner)

    def add_server(self, capacity: float = 1.0) -> int:
        """Grow the cluster by one (empty) server; returns its index.

        If the global layer was fully replicated it follows the cluster onto
        the newcomer; a bounded replica set stays bounded. The newcomer
        starts empty and pulls local-layer subtrees through the normal
        pending-pool adjustment ("new-coming server can initiatively request
        some subtrees from the pending pool", Sec. IV-B).
        """
        follow = self.replication_factor == self.num_servers
        new_server = self.grow(capacity)
        if follow:
            self.replication_factor = self.num_servers
            for node in self.split.global_layer:
                current = self.servers_of(node)
                self.replicate(node, list(current) + [new_server])
        return new_server

    def move_subtree(self, root: MetadataNode, server: int) -> int:
        """Migrate a subtree to ``server``; returns the number of nodes moved."""
        if root not in self.subtree_owner:
            raise KeyError(f"{root.path!r} is not a local-layer subtree root")
        self._check_server(server)
        self.subtree_owner[root] = server
        return self._assign_subtree(root, server)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_global(self, node: MetadataNode) -> bool:
        """True when ``node`` belongs to the replicated global layer."""
        return node in self.split.global_layer

    def subtree_root_of(self, node: MetadataNode) -> Optional[MetadataNode]:
        """Local-layer subtree root above ``node`` (None for global nodes)."""
        if self.is_global(node):
            return None
        walk = node
        while walk is not None and walk not in self.subtree_owner:
            walk = walk.parent
        return walk

    def jumps_for(self, node: MetadataNode) -> int:
        """Paper convention (Eq. 7): 0 inside the global layer, else 1."""
        return 0 if self.is_global(node) else 1

    def counted_nodes(self) -> List[MetadataNode]:
        """Sec. IV-B's access counters: the local-layer subtree roots (whole
        subtrees are what gets balanced, promoted and re-homed) and the
        childless global-layer nodes (the demotion candidates)."""
        leaves = (n for n in self.split.global_layer if not n.children)
        return [*self.subtree_owner, *leaves]

    def local_loads(self) -> List[float]:
        """Per-server local-layer load (what heartbeats report to Monitor)."""
        loads = [0.0] * self.num_servers
        for root, server in self.subtree_owner.items():
            loads[server] += root.popularity
        return loads
