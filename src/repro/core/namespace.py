"""Namespace tree container.

``NamespaceTree`` owns the root :class:`~repro.core.node.MetadataNode` and
provides path-based insertion/lookup, popularity bookkeeping (Def. 2 of the
paper), and the traversal utilities the partitioning algorithms rely on.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.node import PATH_SEPARATOR, MetadataNode

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
    """The column (id-indexed) snapshot of one tree structure.

    What the replay reads by dense node id instead of walking the object
    graph. ``size`` is the id space — live *and* retired slots, so every
    id-indexed column is sized from it. The **recorded aggregation order**
    is the exact child→parent addition sequence of
    :meth:`NamespaceTree.aggregate_popularity`, captured symbolically at
    build time: :meth:`write_popularity` is the whole-tree pass over it
    (Def. 2 totals of a caller-owned ``p'_j`` column, both written to the
    node objects) and :meth:`subtree_sizes` the nodes per subtree, by id.
    :meth:`chain` hands the route planner a node's ancestors as one shared
    tuple.

    Replaying the recorded sequence performs the same float additions in
    the same order as the object walk, so the sums are bit-identical to
    it. An arena is valid for one ``structure_version`` and is re-issued by
    :meth:`NamespaceTree.arena` after any structural mutation; popularity
    updates do not invalidate it. It is shared by every reader of the
    tree, so per-run state (a replay's :class:`PopularityEstimate`) stays
    with the caller.
    """

    __slots__ = (
        "tree",
        "version",
        "size",
        "_agg_child",
        "_agg_parent",
        "_subtree_sizes",
        "_chains",
    )

    def __init__(self, tree: "NamespaceTree") -> None:
        self.tree = tree
        self.version = tree.structure_version
        self.size = len(tree._nodes)
        # One symbolic replay of the aggregation stack records the
        # child->parent addition order (registration order is NOT
        # topological after move_node). Packed arrays, not lists: the
        # replay then reads ids from contiguous memory instead of chasing
        # a pointer per id to int objects scattered among the nodes.
        agg_child = array("q")
        agg_parent = array("q")
        agg_stack: List[Tuple[MetadataNode, bool]] = [(tree.root, False)]
        while agg_stack:
            node, children_done = agg_stack.pop()
            if children_done:
                if node.parent is not None:
                    agg_child.append(node.node_id)
                    agg_parent.append(node.parent.node_id)
            else:
                agg_stack.append((node, True))
                for child in node.children:
                    agg_stack.append((child, False))
        self._agg_child = agg_child
        self._agg_parent = agg_parent
        self._subtree_sizes: Optional[List[int]] = None
        #: node id -> ancestors root-first, excluding the node (lazy).
        self._chains: List[Optional[Tuple[MetadataNode, ...]]] = [None] * self.size

    def chain(self, node: MetadataNode) -> Tuple[MetadataNode, ...]:
        """Ancestors of ``node`` root-first, excluding ``node`` (set ``A_j``).

        Unlike :meth:`MetadataNode.ancestors` this allocates once per node
        per arena — the tuple is cached and shared, which is what lets the
        generic planner walk POSIX prefixes without per-operation list
        builds. Chains compose: a node's chain is its parent's chain plus
        the parent.
        """
        chains = self._chains
        nid = node.node_id
        cached = chains[nid]
        if cached is None:
            parent = node.parent
            if parent is None:
                cached = ()
            else:
                cached = self.chain(parent) + (parent,)
            chains[nid] = cached
        return cached

    def individual_popularity(self) -> List[float]:
        """The nodes' current ``p'_j`` as an id-indexed column."""
        return [node.individual_popularity for node in self.tree._nodes]

    def write_popularity(self, individual: List[float]) -> None:
        """The whole-tree pass: aggregate the Def. 2 totals ``p_j`` of an
        id-indexed ``p'_j`` column and write both to every node object.

        The recorded (child, parent) sequence is the object walk's additions
        in its order, so the totals are bit-identical to it; detached nodes
        keep ``popularity == individual_popularity`` as the walk leaves them.
        """
        totals = list(individual)
        for cid, pid in zip(self._agg_child, self._agg_parent):
            totals[pid] += totals[cid]
        for node, p, total in zip(self.tree._nodes, individual, totals):
            node.individual_popularity = p
            node.popularity = total
        self.tree._popularity_dirty = False

    def subtree_sizes(self) -> List[int]:
        """Nodes per subtree (root included), indexed by node id.

        Equal to :meth:`MetadataNode.subtree_size` for every live node;
        built on first use by one pass over the recorded order.
        """
        sizes = self._subtree_sizes
        if sizes is None:
            sizes = [1] * self.size
            for cid, pid in zip(self._agg_child, self._agg_parent):
                sizes[pid] += sizes[cid]
            self._subtree_sizes = sizes
        return sizes


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
    per-node popularity beyond those.

    With integer counts and ``blend = 0.5`` every value is a dyadic
    rational, so a total blended directly and the total of its blended
    nodes are the same float; at other blends the two (and a lazy decay
    against a per-round one) agree to the last ulp or so, not bit for bit.
    """

    __slots__ = ("arena", "blend", "keep", "round", "_value", "_stamp", "_pending", "_stale")

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

    def fold(self, counts, counted=None, counter_ids=None) -> None:
        """Blend one window: ``counts`` maps each node to the accesses that
        completed on it (the mapping is kept, not copied).

        Each of the ``counted`` nodes has its ``popularity`` blended with
        the counts under it: ``counter_ids(nodes)`` names, per node, the
        counted node whose total includes it (-1: none). ``None`` means
        every node carries a counter; the caller materialises.
        """
        self.round += 1
        self._pending.append(counts)
        if sum(map(len, self._pending)) > self.arena.size:
            self._settle()  # the backlog never outgrows the columns it feeds
        self._stale = True
        if counted is None:
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
        nodes = self.arena.tree._nodes
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
        return sum(
            value[nid] * keep ** (now - stamp[nid])
            for nid in (n.node_id for n in node.descendants(include_self=True))
        )

    def materialise(self) -> None:
        """Bring every node object up to date (no-op when they all are);
        removed nodes keep theirs undecayed, as a blend over the live tree would."""
        if not self._stale:
            return
        self._settle()
        now, keep = self.round, self.keep
        value = self._value
        decay = [keep ** elapsed for elapsed in range(now + 1)]
        current = [v * decay[now - at] for v, at in zip(value, self._stamp)]
        for nid in self.arena.tree._removed:
            current[nid] = value[nid]
        self._value = current
        self._stamp = [now] * len(current)
        self.arena.write_popularity(current)
        self._stale = False


class NamespaceTree:
    """A file-system namespace tree of :class:`MetadataNode` objects.

    The tree assigns every node a dense integer ``node_id`` (the root is 0) so
    partitioning schemes can use arrays keyed by id.
    """

    def __init__(self) -> None:
        self.root = MetadataNode(PATH_SEPARATOR, parent=None, is_directory=True, node_id=0)
        self._nodes: List[MetadataNode] = [self.root]
        self._by_path: Dict[str, MetadataNode] = {PATH_SEPARATOR: self.root}
        self._removed: Set[int] = set()
        self._popularity_dirty = False
        #: Bumped on any structural mutation; readers holding a NodeArena
        #: compare against it to detect staleness.
        self.structure_version = 0
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
        node = self.root
        for i, part in enumerate(parts):
            child = node.child_by_name(part)
            if child is None:
                last = i == len(parts) - 1
                child = MetadataNode(
                    part,
                    parent=node,
                    is_directory=is_directory or not last,
                    individual_popularity=individual_popularity if last else 0.0,
                    update_cost=update_cost if last else 0.0,
                )
                node.add_child(child)
                self._register(child)
                self._popularity_dirty = True
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
        """Create a child node directly under ``parent`` and register it."""
        if parent.child_by_name(name) is not None:
            raise ValueError(f"{parent.path!r} already has a child named {name!r}")
        child = MetadataNode(
            name,
            parent=parent,
            is_directory=is_directory,
            individual_popularity=individual_popularity,
            update_cost=update_cost,
        )
        parent.add_child(child)
        self._register(child)
        self._popularity_dirty = True
        return child

    def _register(self, node: MetadataNode) -> None:
        node.node_id = len(self._nodes)
        self._nodes.append(node)
        self._by_path[node.path] = node
        self.structure_version += 1

    # ------------------------------------------------------------------
    # Mutation (rename / move / remove)
    # ------------------------------------------------------------------
    def _reindex_subtree(self, node: MetadataNode) -> int:
        """Re-key a subtree in the path index after its paths changed."""
        count = 0
        for member in node.descendants(include_self=True):
            member._path_cache = None
        for member in node.descendants(include_self=True):
            self._by_path[member.path] = member
            count += 1
        return count

    def rename(self, node: MetadataNode, new_name: str) -> int:
        """Rename a node in place; returns how many paths changed.

        Every descendant's pathname changes with it — the operation whose
        cost separates pathname-hashing schemes from tree-partitioning ones.
        """
        if node.parent is None:
            raise ValueError("the root cannot be renamed")
        if not new_name or PATH_SEPARATOR in new_name:
            raise ValueError("names must be non-empty and slash-free")
        if node.parent.child_by_name(new_name) is not None:
            raise ValueError(f"{node.parent.path!r} already has {new_name!r}")
        for member in node.descendants(include_self=True):
            self._by_path.pop(member.path, None)
        node.name = new_name
        self.structure_version += 1
        return self._reindex_subtree(node)

    def move_node(self, node: MetadataNode, new_parent: MetadataNode) -> int:
        """Re-parent a subtree; returns how many paths changed."""
        if node.parent is None:
            raise ValueError("the root cannot be moved")
        if not new_parent.is_directory:
            raise ValueError("target parent must be a directory")
        if new_parent.child_by_name(node.name) is not None:
            raise ValueError(f"{new_parent.path!r} already has {node.name!r}")
        walk = new_parent
        while walk is not None:
            if walk is node:
                raise ValueError("cannot move a node into its own subtree")
            walk = walk.parent
        for member in node.descendants(include_self=True):
            self._by_path.pop(member.path, None)
        node.parent.children.remove(node)
        node.parent = new_parent
        new_parent.children.append(node)
        self._popularity_dirty = True
        self.structure_version += 1
        return self._reindex_subtree(node)

    def remove(self, node: MetadataNode) -> int:
        """Detach a subtree from the namespace; returns nodes removed.

        Node-id slots are retired (iteration skips them; ids of surviving
        nodes stay stable so placements keyed by node object remain valid
        for the survivors).
        """
        if node.parent is None:
            raise ValueError("the root cannot be removed")
        removed = 0
        for member in node.descendants(include_self=True):
            self._by_path.pop(member.path, None)
            self._removed.add(member.node_id)
            removed += 1
        node.parent.children.remove(node)
        node.parent = None
        self._popularity_dirty = True
        self.structure_version += 1
        return removed

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, path: str) -> Optional[MetadataNode]:
        """Return the node at ``path``, or ``None`` when absent."""
        return self._by_path.get(path)

    def arena(self) -> NodeArena:
        """The column snapshot of the tree's current structure.

        Cached until the next structural mutation; see :class:`NodeArena`.
        """
        arena = self._arena
        if arena is None or arena.version != self.structure_version:
            arena = NodeArena(self)
            self._arena = arena
        return arena

    def node_by_id(self, node_id: int) -> MetadataNode:
        """Return the node with dense id ``node_id``."""
        if node_id in self._removed:
            raise KeyError(f"node {node_id} was removed")
        return self._nodes[node_id]

    def __contains__(self, path: str) -> bool:
        return path in self._by_path

    def __len__(self) -> int:
        return len(self._nodes) - len(self._removed)

    def __iter__(self) -> Iterator[MetadataNode]:
        if not self._removed:
            return iter(self._nodes)
        return (n for n in self._nodes if n.node_id not in self._removed)

    @property
    def nodes(self) -> List[MetadataNode]:
        """Live nodes in registration (insertion) order."""
        if not self._removed:
            return self._nodes
        return [n for n in self._nodes if n.node_id not in self._removed]

    # ------------------------------------------------------------------
    # Popularity bookkeeping (Def. 2)
    # ------------------------------------------------------------------
    def record_access(self, node: MetadataNode, weight: float = 1.0) -> None:
        """Add ``weight`` to a node's individual popularity ``p'_j``."""
        node.individual_popularity += weight
        self._popularity_dirty = True

    def aggregate_popularity(self) -> None:
        """Recompute total popularity ``p_j = p'_j + Σ p' (descendants)``.

        Runs one bottom-up pass over the tree. The paper sums only the
        *individual* popularity of descendants into the parent (Def. 2), which
        makes ``p_j`` the total traffic passing through ``n_j`` under
        POSIX-style path traversal.
        """
        # Explicit post-order traversal from the root: registration order is
        # NOT a topological order once move_node has re-parented subtrees.
        # Removed subtrees are detached (parent None), so their popularity
        # never reaches the live tree.
        for node in self._nodes:
            node.popularity = node.individual_popularity
        stack = [(self.root, False)]
        while stack:
            node, children_done = stack.pop()
            if children_done:
                if node.parent is not None:
                    node.parent.popularity += node.popularity
            else:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
        self._popularity_dirty = False

    def ensure_popularity(self) -> None:
        """Aggregate popularity only when a write invalidated it."""
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
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if d > best:
                best = d
            stack.extend((child, d + 1) for child in node.children)
        return best

    def map_nodes(self, fn: Callable[[MetadataNode], None]) -> None:
        """Apply ``fn`` to every node (registration order)."""
        for node in self._nodes:
            fn(node)

    def files(self) -> List[MetadataNode]:
        """All non-directory nodes."""
        return [n for n in self._nodes if not n.is_directory]

    def directories(self) -> List[MetadataNode]:
        """All directory nodes (including the root)."""
        return [n for n in self._nodes if n.is_directory]

    def validate(self) -> None:
        """Check structural invariants; raise ``AssertionError`` on breakage.

        Intended for tests and debugging, not hot paths.
        """
        assert self.root.parent is None
        seen_ids = set()
        for node in self:
            assert node.node_id not in seen_ids, "duplicate node id"
            seen_ids.add(node.node_id)
            assert self._by_path[node.path] is node
            for child in node.children:
                assert child.parent is node
        assert len(seen_ids) == len(self)
