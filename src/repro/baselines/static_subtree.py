"""Static subtree partitioning.

Following the paper's implementation note (Sec. VI, Implements): "the initial
metadata partition was created by hashing directories near the root of the
hierarchy". Every directory at ``cut_depth`` anchors a subtree placed at
``hash(path) mod M``; nodes shallower than the cut inherit the root's server.

Locality is excellent (whole subtrees never fragment; the jump count per
access is at most 1 and independent of cluster size — Fig. 6) but load
balance is at the mercy of how popularity happens to hash (Fig. 7), and the
scheme never reacts to skew.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.placement import MetadataScheme, Placement, stable_hash
from repro.registry import register
from repro.core.namespace import NamespaceTree
from repro.core.node import MetadataNode

__all__ = ["StaticSubtreeScheme"]


@register("static-subtree")
class StaticSubtreeScheme(MetadataScheme):
    """Hash depth-``cut_depth`` directories (with their subtrees) to servers."""

    name = "static-subtree"

    def __init__(self, cut_depth: int = 1) -> None:
        if cut_depth < 1:
            raise ValueError("cut_depth must be at least 1")
        self.cut_depth = cut_depth

    def _anchor_of(self, node: MetadataNode) -> MetadataNode:
        """The ancestor (or self) at the cut depth that anchors placement
        (``node`` itself when it sits above the cut): one depth walk, then
        ``depth - cut_depth`` steps up."""
        anchor = node
        for _ in range(node.depth - self.cut_depth):
            anchor = anchor.parent
        return anchor

    def partition(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> Placement:
        tree.ensure_popularity()
        placement = Placement(num_servers, capacities)
        arena = tree.arena()
        depths = arena.depths()
        cut = self.cut_depth
        # One pass, parents first: a node at the cut depth hashes its own
        # path, a deeper one takes its parent's server, and a shallower one
        # keeps the root's.
        server_of = [stable_hash(tree.root.path) % num_servers] * arena.size
        for cid, pid in arena.descent():
            depth = depths[cid]
            if depth == cut:
                server_of[cid] = stable_hash(tree.node_by_id(cid).path) % num_servers
            elif depth > cut:
                server_of[cid] = server_of[pid]
        for node in tree:
            placement.assign(node, server_of[node.node_id])
        placement.validate_complete(tree)
        return placement

    def place_created(self, tree, placement, node):
        """A new node joins its anchor's subtree."""
        if node.depth < self.cut_depth:
            server = stable_hash(tree.root.path) % placement.num_servers
        else:
            anchor = self._anchor_of(node)
            server = stable_hash(anchor.path) % placement.num_servers
        placement.assign(node, server)
        return server
