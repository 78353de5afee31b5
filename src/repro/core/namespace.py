"""Namespace tree container.

``NamespaceTree`` owns the :class:`~repro.core.node.MetadataNode` objects
and the id columns that link them, and provides path-based insertion/lookup,
popularity bookkeeping (Def. 2 of the paper), and the traversal utilities
the partitioning algorithms rely on.
"""

from __future__ import annotations

from array import array
from operator import mul
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.node import PATH_SEPARATOR, MetadataNode
from repro.numeric import ordered_sum

__all__ = ["NamespaceTree", "NodeArena", "PopularityEstimate", "split_path"]


def split_path(path: str) -> List[str]:
    """Split an absolute path into components, ignoring blank segments.

    >>> split_path("/home/b/h.jpg")
    ['home', 'b', 'h.jpg']
    >>> split_path("/")
    []
    """
    return [part for part in path.split(PATH_SEPARATOR) if part]


class NodeArena:
    """The column (id-indexed) view of one tree size.

    What the replay reads by dense node id. The tree's structure is its id
    columns — ``parent`` and the child links ``last_child`` /
    ``prev_sibling`` (-1: none) — and no node object refers to another.
    The tree only grows (:meth:`NamespaceTree.add_child` is its one
    structural mutation), so every node's id is larger than its parent's
    and a node's children, read back from its last, are in id order.
    ``size`` is the node count the arena was issued at;
    :meth:`NamespaceTree.arena` re-issues it once the tree holds more
    nodes, and popularity updates do not invalidate it. It holds the
    tree's columns and node list, not the tree.

    :meth:`write_popularity` is the whole-tree pass (Def. 2 totals of a
    caller-owned ``p'_j`` column, both written to the node objects) and
    :meth:`subtree_sizes` the nodes per subtree, each one pass in reverse
    id order: every child is added into its parent after all of its own
    descendants, and a parent takes its children last-born first. Those
    are the additions, in the same order, of a post-order walk that pushes
    children in id order, so float totals are bit-identical to that
    walk's. Forward id order
    is parents before children (:meth:`descent`): :meth:`depths` is one
    pass over it, and so is any top-down placement rule. :meth:`chain`
    hands the route planner a node's ancestor ids as one shared tuple.

    It is shared by every reader of the tree, so per-run state (a replay's
    :class:`PopularityEstimate`) stays with the caller.
    """

    __slots__ = (
        "nodes", "size", "parent", "last_child", "prev_sibling",
        "_subtree_sizes", "_depths", "_chains",
    )

    def __init__(self, tree: "NamespaceTree") -> None:
        #: The tree's node list and id columns, appended to by
        #: ``add_child``: only the first ``size`` entries are this view's.
        self.nodes = tree._nodes
        self.size = len(tree._nodes)
        self.parent = tree._parent_ids  # the root's reads -1
        self.last_child = tree._last_child
        self.prev_sibling = tree._prev_sibling
        self._subtree_sizes: Optional[List[int]] = None
        self._depths: Optional[List[int]] = None
        #: node id -> ancestor ids root-first, excluding the node (lazy).
        self._chains: List[Optional[Tuple[int, ...]]] = [None] * self.size

    def children(self, nid: int) -> List[int]:
        """Ids of node ``nid``'s children, in id order."""
        prev = self.prev_sibling
        out = []
        cid = self.last_child[nid]
        while cid >= 0:
            out.append(cid)
            cid = prev[cid]
        out.reverse()
        return out

    def subtree(self, nid: int, include_self: bool = False) -> Iterator[int]:
        """Ids of the subtree below node ``nid`` (the set ``D_j``): last
        child first, each child's subtree before its previous sibling (the
        order a stack walk that pushes children in id order pops them)."""
        if include_self:
            yield nid
        last, prev = self.last_child, self.prev_sibling
        stack = [last[nid]]
        while stack:
            nid = stack.pop()
            if nid >= 0:
                yield nid
                stack += (prev[nid], last[nid])

    def chain(self, nid: int) -> Tuple[int, ...]:
        """Ids of node ``nid``'s ancestors root-first, excluding it (set
        ``A_j``).

        Allocates once per node per arena — the tuple is cached and
        shared, which is what lets the generic planner walk POSIX prefixes
        without per-operation list builds. Chains compose: a node's chain
        is its parent's (up the parent column) plus the parent.
        """
        chains = self._chains
        cached = chains[nid]
        if cached is None:
            pid = self.parent[nid]
            cached = chains[nid] = () if pid < 0 else self.chain(pid) + (pid,)
        return cached

    def individual_popularity(self) -> List[float]:
        """The nodes' current ``p'_j`` as an id-indexed column."""
        return [node.individual_popularity for node in self.nodes]

    def _ascent(self) -> Iterator[Tuple[int, int]]:
        """``(child id, parent id)`` of every edge, highest child id first:
        each child after all of its descendants."""
        last = self.size - 1
        return zip(range(last, 0, -1), self.parent[last:0:-1])

    def write_popularity(self, individual: List[float]) -> None:
        """The whole-tree pass: aggregate the Def. 2 totals ``p_j`` of an
        id-indexed ``p'_j`` column and write both to every node object."""
        totals = list(individual)
        for cid, pid in self._ascent():
            totals[pid] += totals[cid]
        for node, p, total in zip(self.nodes, individual, totals):
            node.individual_popularity = p
            node.popularity = total

    def subtree_sizes(self) -> List[int]:
        """Nodes per subtree (root included), indexed by node id.

        Equal to the length of :meth:`subtree` plus one for every node;
        built on first use by one reverse-id pass.
        """
        sizes = self._subtree_sizes
        if sizes is None:
            sizes = [1] * self.size
            for cid, pid in self._ascent():
                sizes[pid] += sizes[cid]
            self._subtree_sizes = sizes
        return sizes

    def descent(self) -> Iterator[Tuple[int, int]]:
        """``(child id, parent id)`` of every edge in id order, parents
        before children. The root is nobody's child, so it is the one node
        the walk never names."""
        return zip(range(1, self.size), self.parent[1:self.size])

    def depths(self) -> List[int]:
        """Edges from the root, indexed by node id.

        Equal to the length of :meth:`chain` for every node; built on first
        use by one pass over :meth:`descent`, where a node's depth is its
        parent's plus one.
        """
        depths = self._depths
        if depths is None:
            depths = [0] * self.size
            for cid, pid in self.descent():
                depths[cid] = depths[pid] + 1
            self._depths = depths
        return depths


class PopularityEstimate:
    """One replay's running estimate of every node's ``p'_j``, kept lazily.

    An adjustment round blends the window's access counts into the
    estimate, ``p' <- (1 - blend) * p' + blend * count``. Only the nodes a
    window touched are ever written: a value carries the round it was last
    written in and decays on read by ``(1 - blend) ** rounds_elapsed``, and
    a window waits, as counted, until somebody reads the columns or as many
    entries wait as the tree has nodes. The node objects catch up two ways:
    :meth:`fold` blends the Def. 2 total of each *counted* node — the ones
    the placement's control plane reads between rounds, Sec. IV-B's "access
    counters" — straight from the counts completed under it, at the cost of
    the window; :meth:`materialise` is the whole-tree pass, for a reader of
    per-node popularity beyond those. A reader of ``p'_j`` alone (DROP's and
    AngleCut's quantile fits) takes the column itself, :meth:`individual`,
    and leaves the node objects behind.

    With integer counts and ``blend = 0.5`` every value is a dyadic
    rational, so a total blended directly and the total of its blended
    nodes are the same float; at other blends the two (and a lazy decay
    against a per-round one) agree to the last ulp or so, not bit for bit.
    """

    __slots__ = (
        "arena", "blend", "keep", "round", "_value", "_stamp", "_pending", "_stale", "_rebased",
    )

    def __init__(self, arena: NodeArena, blend: float) -> None:
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must lie in [0, 1]")
        self.arena = arena
        self.blend = blend
        self.keep = 1 - blend
        self.round = 0  # windows folded so far
        #: ``p'_j`` as of round ``_stamp[j]``, by node id.
        self._value = arena.individual_popularity()
        self._stamp = [0] * arena.size
        #: Folded windows not yet written into the columns (``_settle``).
        self._pending: List[Dict[MetadataNode, int]] = []
        #: True while some node object is behind the columns.
        self._stale = False
        #: The round every ``_stamp`` was last set to (by :meth:`individual`).
        self._rebased = 0

    def fold(self, counts, counted=None, counter_ids=None) -> None:
        """Blend one window: ``counts`` maps each node to the accesses that
        completed on it (the mapping is kept, not copied).

        Each of the ``counted`` nodes has its ``popularity`` blended with
        the counts under it: ``counter_ids(nodes)`` names, per node, the
        counted node whose total includes it (-1: none). ``None`` means
        every node carries a counter; the caller materialises. With no
        counted node (a static placement) the window is only queued.
        """
        self.round += 1
        self._pending.append(counts)
        if sum(map(len, self._pending)) > self.arena.size:
            self._settle()  # the backlog never outgrows the columns it feeds
        self._stale = True
        if not counted:
            return
        blend, keep = self.blend, self.keep
        under: Dict[int, int] = {}
        for count, cid in zip(counts.values(), counter_ids(counts)):
            if cid >= 0:
                under[cid] = under.get(cid, 0) + count
        # ``keep * p + blend * n`` in two steps (the same two roundings),
        # the second only where the window has something to add.
        for node in counted:
            node.popularity *= keep
        nodes = self.arena.nodes
        for cid, count in under.items():
            nodes[cid].popularity += blend * count

    def _settle(self) -> None:
        """Write the pending windows into the columns, oldest first."""
        blend, keep = self.blend, self.keep
        value, stamp = self._value, self._stamp
        now = self.round - len(self._pending)
        for counts in self._pending:
            now += 1
            for node, count in counts.items():
                nid = node.node_id
                value[nid] = keep * (value[nid] * keep ** (now - 1 - stamp[nid])) + blend * count
                stamp[nid] = now
        self._pending.clear()

    def subtree_total(self, node: MetadataNode) -> float:
        """Def. 2 total of ``node``'s subtree as of the last folded round —
        what a node that starts carrying a counter mid-window begins from."""
        self._settle()
        now, keep = self.round, self.keep
        value, stamp = self._value, self._stamp
        return ordered_sum(
            value[nid] * keep ** (now - stamp[nid])
            for nid in self.arena.subtree(node.node_id, include_self=True)
        )

    def individual(self) -> List[float]:
        """Every node's ``p'_j`` as of the last folded round, by node id:
        the pending windows settled and every value decayed to the round.
        The columns are rebased to it, so a second call in the same
        round costs nothing. The list is the estimate's own: read it, do not
        write it."""
        now = self.round
        if self._rebased == now and not self._pending:
            return self._value
        self._settle()
        keep = self.keep
        value = self._value
        # By the round a value was stamped in: ``keep ** rounds_elapsed``.
        decay = [keep ** (now - at) for at in range(now + 1)]
        current = list(map(mul, value, map(decay.__getitem__, self._stamp)))
        self._value = current
        self._stamp = [now] * len(current)
        self._rebased = now
        return current

    def materialise(self) -> None:
        """Bring every node object up to date (no-op when they all are):
        the whole-tree pass over :meth:`individual`."""
        if not self._stale:
            return
        self.arena.write_popularity(self.individual())
        self._stale = False


class NamespaceTree:
    """A file-system namespace tree of :class:`MetadataNode` objects.

    The tree assigns every node a dense integer ``node_id`` (the root is 0) so
    partitioning schemes can use arrays keyed by id; its structure is id
    columns (:class:`NodeArena`), so no node refers to another. It only grows:
    :meth:`add_child` (which :meth:`add_path` calls) is its one structural
    mutation, so ids are parents-first and a node's path never changes.
    """

    def __init__(self) -> None:
        self.root = MetadataNode(PATH_SEPARATOR, PATH_SEPARATOR, node_id=0)
        self._nodes: List[MetadataNode] = [self.root]
        #: The structure, by node id (the columns every NodeArena reads):
        #: parent, last child, previous sibling; -1 reads "none".
        self._parent_ids = array("i", [-1])
        self._last_child = array("i", [-1])
        self._prev_sibling = array("i", [-1])
        self._by_path: Dict[str, MetadataNode] = {PATH_SEPARATOR: self.root}
        self._popularity_dirty = False
        self._arena: Optional[NodeArena] = None
        #: The running replay's estimate, or None. While one is installed a
        #: reader of popularity beyond the placement's counted nodes calls
        #: its ``materialise()`` first.
        self.estimate: Optional[PopularityEstimate] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_path(
        self,
        path: str,
        is_directory: bool = False,
        individual_popularity: float = 0.0,
        update_cost: float = 0.0,
    ) -> MetadataNode:
        """Insert ``path``, creating intermediate directories as needed.

        Existing nodes are returned unchanged (their popularity is *not*
        overwritten); intermediate components are created as directories with
        zero individual popularity.
        """
        existing = self._by_path.get(path if path.startswith(PATH_SEPARATOR) else PATH_SEPARATOR + path)
        if existing is not None:
            return existing

        parts = split_path(path)
        last = len(parts) - 1
        node = self.root
        prefix = ""
        for i, part in enumerate(parts):
            prefix += PATH_SEPARATOR + part
            child = self._by_path.get(prefix)
            if child is None:
                child = self.add_child(
                    node,
                    part,
                    is_directory=is_directory or i != last,
                    individual_popularity=individual_popularity if i == last else 0.0,
                    update_cost=update_cost if i == last else 0.0,
                )
            node = child
        return node

    def add_child(
        self,
        parent: MetadataNode,
        name: str,
        is_directory: bool = False,
        individual_popularity: float = 0.0,
        update_cost: float = 0.0,
    ) -> MetadataNode:
        """Create a child node directly under ``parent`` and register it.

        ``name`` is one path component: non-empty and slash-free. The
        duplicate check is one lookup in the path index, not a scan of
        ``parent``'s children, so filling a wide directory stays linear.
        """
        if not parent.is_directory:
            raise ValueError(f"cannot add a child to file node {parent.path!r}")
        if not name or PATH_SEPARATOR in name:
            raise ValueError(f"names must be non-empty and slash-free, not {name!r}")
        nodes = self._nodes
        cid, pid = len(nodes), parent.node_id
        path = parent.path + name if parent is self.root else parent.path + PATH_SEPARATOR + name
        by_path = self._by_path
        if path in by_path:
            raise ValueError(f"{parent.path!r} already has a child named {name!r}")
        child = MetadataNode(name, path, is_directory, individual_popularity, update_cost, cid)
        nodes.append(child)
        by_path[path] = child
        self._parent_ids.append(pid)
        self._prev_sibling.append(self._last_child[pid])
        self._last_child[pid] = cid
        self._last_child.append(-1)
        self._popularity_dirty = True
        return child

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, path: str) -> Optional[MetadataNode]:
        """Return the node at ``path``, or ``None`` when absent."""
        return self._by_path.get(path)

    def arena(self) -> NodeArena:
        """The column view of the tree at its current size.

        Cached until the tree grows; see :class:`NodeArena`.
        """
        arena = self._arena
        if arena is None or arena.size != len(self._nodes):
            arena = NodeArena(self)
            self._arena = arena
        return arena

    def parent(self, node: MetadataNode) -> Optional[MetadataNode]:
        """``node``'s parent (``None`` for the root)."""
        pid = self._parent_ids[node.node_id]
        return None if pid < 0 else self._nodes[pid]

    def children(self, node: MetadataNode) -> List[MetadataNode]:
        """``node``'s children, in id (creation) order."""
        return list(map(self._nodes.__getitem__, self.arena().children(node.node_id)))

    def ancestors(self, node: MetadataNode, include_self: bool = False) -> List[MetadataNode]:
        """Ancestors root-first (the set ``A_j``; as many as the node's
        depth): the order of a POSIX traversal, which counts jumps (Def. 1)."""
        nodes, parent = self._nodes, self._parent_ids
        chain = [node] if include_self else []
        pid = parent[node.node_id]
        while pid >= 0:
            chain.append(nodes[pid])
            pid = parent[pid]
        chain.reverse()
        return chain

    def descendants(self, node: MetadataNode, include_self: bool = False) -> Iterator[MetadataNode]:
        """Iterate over the subtree below ``node`` (the set ``D_j``), in
        :meth:`NodeArena.subtree` order."""
        return map(self._nodes.__getitem__, self.arena().subtree(node.node_id, include_self))

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[MetadataNode]:
        return iter(self._nodes)

    @property
    def nodes(self) -> List[MetadataNode]:
        """Every node in id (registration) order, parents first."""
        return self._nodes

    # ------------------------------------------------------------------
    # Popularity bookkeeping (Def. 2)
    # ------------------------------------------------------------------
    def record_access(self, node: MetadataNode, weight: float = 1.0) -> None:
        """Add ``weight`` to a node's individual popularity ``p'_j``."""
        node.individual_popularity += weight
        self._popularity_dirty = True

    def aggregate_popularity(self) -> None:
        """Recompute total popularity ``p_j = p'_j + Σ p' (descendants)``.

        The paper sums only the *individual* popularity of descendants into
        the parent (Def. 2), which makes ``p_j`` the total traffic passing
        through ``n_j`` under POSIX-style path traversal. One reverse-id pass
        over the arena (:meth:`NodeArena.write_popularity`).
        """
        arena = self.arena()
        arena.write_popularity(arena.individual_popularity())
        self._popularity_dirty = False

    def ensure_popularity(self) -> None:
        """Aggregate popularity only when a write invalidated it (a replay's
        passes leave the flag as they found it: one pass too many at worst)."""
        if self._popularity_dirty:
            self.aggregate_popularity()

    @property
    def total_popularity(self) -> float:
        """Total access popularity of the system (== root popularity)."""
        self.ensure_popularity()
        return self.root.popularity

    # ------------------------------------------------------------------
    # Whole-tree utilities
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        return max(self.arena().depths())

    def directories(self) -> List[MetadataNode]:
        """All directory nodes (including the root)."""
        return [n for n in self._nodes if n.is_directory]
