"""Metadata node model for the namespace tree.

The paper (Section III-A) models the file-system namespace as a tree of
*metadata nodes* ``{n_j | 1 <= j <= N}``, each being a file or a directory.
Every node carries two popularity figures (Def. 2):

* ``individual_popularity`` (``p'_j``) — accesses addressed to the node itself,
* ``popularity`` (``p_j``) — ``p'_j`` plus the individual popularity of every
  descendant, i.e. the traffic that *passes through* the node during
  POSIX-style path traversal.

Nodes also carry an ``update_cost`` (``u_j``, Def. 4) — the cost incurred when
the node is replicated in the global layer and must be kept consistent.
"""

from __future__ import annotations

__all__ = ["MetadataNode", "PATH_SEPARATOR"]

PATH_SEPARATOR = "/"


class MetadataNode:
    """A single file or directory entry in the namespace tree.

    A node refers to no other node: where it sits in the tree is its
    ``node_id`` in the owning :class:`~repro.core.namespace.NamespaceTree`,
    whose id columns hold parent and children.

    Parameters
    ----------
    name:
        Path component (e.g. ``"home"`` or ``"c.txt"``). The root node uses
        ``"/"``.
    path:
        Absolute path, e.g. ``"/home/b/h.jpg"`` (the root's is ``"/"``).
    is_directory:
        Whether the node may hold children.
    individual_popularity:
        Initial ``p'_j`` value.
    update_cost:
        ``u_j`` — cost of keeping a replicated copy of this node up to date.
    """

    __slots__ = (
        "node_id",
        "name",
        "is_directory",
        "individual_popularity",
        "popularity",
        "update_cost",
        "path",
    )

    def __init__(
        self,
        name: str,
        path: str,
        is_directory: bool = True,
        individual_popularity: float = 0.0,
        update_cost: float = 0.0,
        node_id: int = -1,
    ) -> None:
        if individual_popularity < 0:
            raise ValueError("individual_popularity must be non-negative")
        if update_cost < 0:
            raise ValueError("update_cost must be non-negative")
        self.node_id = node_id
        self.name = name
        self.is_directory = is_directory
        self.individual_popularity = float(individual_popularity)
        # Total popularity p_j; recomputed by NamespaceTree.aggregate_popularity.
        self.popularity = float(individual_popularity)
        self.update_cost = float(update_cost)
        #: A node never moves, so its path is fixed at creation.
        self.path = path
