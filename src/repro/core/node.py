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

from typing import Iterator, List, Optional

__all__ = ["MetadataNode", "PATH_SEPARATOR"]

PATH_SEPARATOR = "/"


class MetadataNode:
    """A single file or directory entry in the namespace tree.

    Parameters
    ----------
    name:
        Path component (e.g. ``"home"`` or ``"c.txt"``). The root node uses
        ``"/"``.
    parent:
        Parent node, or ``None`` for the root.
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
        "parent",
        "children",
        "is_directory",
        "individual_popularity",
        "popularity",
        "update_cost",
        "_path_cache",
    )

    def __init__(
        self,
        name: str,
        parent: Optional["MetadataNode"] = None,
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
        self.parent = parent
        self.children: List["MetadataNode"] = []
        self.is_directory = is_directory
        self.individual_popularity = float(individual_popularity)
        # Total popularity p_j; recomputed by NamespaceTree.aggregate_popularity.
        self.popularity = float(individual_popularity)
        self.update_cost = float(update_cost)
        self._path_cache: Optional[str] = None

    # ------------------------------------------------------------------
    # Tree structure helpers
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of edges from the root (root has depth 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    @property
    def path(self) -> str:
        """Absolute path of the node, e.g. ``"/home/b/h.jpg"``."""
        if self._path_cache is None:
            if self.parent is None:
                self._path_cache = PATH_SEPARATOR
            elif self.parent.parent is None:
                self._path_cache = PATH_SEPARATOR + self.name
            else:
                self._path_cache = self.parent.path + PATH_SEPARATOR + self.name
        return self._path_cache

    # ------------------------------------------------------------------
    # Walks (A_j and D_j in the paper's notation)
    # ------------------------------------------------------------------
    def ancestors(self, include_self: bool = False) -> List["MetadataNode"]:
        """Ancestors ordered root-first (the set ``A_j``).

        POSIX-style access of a node requires visiting every ancestor from the
        root down, so the root-first order mirrors the traversal order used
        when counting jumps (Def. 1).
        """
        chain: List["MetadataNode"] = [self] if include_self else []
        node = self.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    def descendants(self, include_self: bool = False) -> Iterator["MetadataNode"]:
        """Iterate over the subtree below this node (the set ``D_j``)."""
        stack = [self] if include_self else list(self.children)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (including itself)."""
        return 1 + sum(1 for _ in self.descendants())

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_directory else "file"
        return f"MetadataNode({self.path!r}, {kind}, p={self.popularity:.3g})"
