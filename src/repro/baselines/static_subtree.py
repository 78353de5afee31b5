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

__all__ = ["StaticSubtreeScheme"]


@register("static-subtree")
class StaticSubtreeScheme(MetadataScheme):
    """Hash depth-``cut_depth`` directories (with their subtrees) to servers."""

    name = "static-subtree"

    def __init__(self, cut_depth: int = 1) -> None:
        if cut_depth < 1:
            raise ValueError("cut_depth must be at least 1")
        self.cut_depth = cut_depth

    def partition(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> Placement:
        tree.ensure_popularity()
        placement = Placement(num_servers, capacities, tree)
        arena = tree.arena()
        depths = arena.depths()
        cut = self.cut_depth
        # A node at the cut depth hashes its own path; then one pass, parents
        # first: a deeper one takes its parent's server, and a shallower one
        # keeps the root's.
        server_of = [stable_hash(tree.path(tree.root)) % num_servers] * arena.size
        anchors = [nid for nid, depth in enumerate(depths) if depth == cut]
        for nid, path in zip(anchors, tree.paths(anchors)):
            server_of[nid] = stable_hash(path) % num_servers
        for cid, pid in arena.descent():
            if depths[cid] > cut:
                server_of[cid] = server_of[pid]
        for node in tree:
            placement.assign(node, server_of[node])
        placement.validate_complete(tree)
        return placement

    def place_created(self, tree, placement, node):
        """A new node joins its anchor's subtree: the node on its root chain
        at the cut depth (the root when it sits above the cut)."""
        chain = tree.ancestors(node, include_self=True)
        anchor = chain[self.cut_depth] if len(chain) > self.cut_depth else tree.root
        server = stable_hash(tree.path(anchor)) % placement.num_servers
        placement.assign(node, server)
        return server
