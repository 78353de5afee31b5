"""Static hash-based mapping (CalvinFS / Giga+ style).

Every node is placed by hashing its full pathname modulo the cluster size.
Perfect load spreading, terrible locality: consecutive nodes on a path land
on unrelated servers, so a traversal of depth ``d`` incurs ``O(d)`` jumps.
Not one of the paper's four plotted comparators but the canonical extreme the
Introduction argues against (Fig. 1b); used by ablation benches.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.placement import MetadataScheme, Placement, stable_hash
from repro.registry import register
from repro.core.namespace import NamespaceTree

__all__ = ["HashScheme"]


@register("static-hash")
class HashScheme(MetadataScheme):
    """Place each node at ``hash(path) mod M``."""

    name = "static-hash"

    def partition(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> Placement:
        tree.ensure_popularity()
        placement = Placement(num_servers, capacities)
        for node in tree:
            placement.assign(node, stable_hash(node.path) % num_servers)
        placement.validate_complete(tree)
        return placement

    def place_created(self, tree, placement, node):
        """New nodes hash like everything else."""
        server = stable_hash(node.path) % placement.num_servers
        placement.assign(node, server)
        return server
