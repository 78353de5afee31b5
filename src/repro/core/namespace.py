"""Namespace tree container.

The paper (Sec. III-A) models the namespace as a tree of *metadata nodes*
``{n_j | 1 <= j <= N}``. Here a node is its dense integer id (the root is
0), and :class:`NamespaceTree` holds its fields as id-indexed columns: name,
directory flag, parent and child links, ``p'_j`` (``individual_popularity``,
accesses to the node itself), ``p_j`` (``popularity``, Def. 2: ``p'_j`` plus
every descendant's, the traffic a POSIX traversal passes through it) and
``u_j`` (``update_cost``, Def. 4). Paths are rendered (:meth:`~NamespaceTree.
paths`) and resolved (:meth:`~NamespaceTree.resolve`) on demand, never kept.
"""

from __future__ import annotations

from array import array
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.numeric import ordered_sum

__all__ = ["NamespaceTree", "NodeArena", "PopularityEstimate", "ROOT", "split_path"]

PATH_SEPARATOR = "/"

#: The root's node id.
ROOT = 0


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

    What the replay reads by node id: the tree's columns (``parent``, the
    child links ``last_child`` / ``prev_sibling`` with -1 for none, ``p'_j``
    and ``p_j``), not the tree. The tree only grows, so a node's id is
    larger than its parent's and its children, read back from the last, are
    in id order. ``size`` is the node count at issue; :meth:`NamespaceTree.
    arena` re-issues the view once the tree holds more nodes.

    :meth:`write_popularity` (the whole-tree Def. 2 pass) and
    :meth:`subtree_sizes` are each one pass in reverse id order: a child is
    added into its parent after all of its own descendants, a parent takes
    its children last-born first — the additions, in order, of a post-order
    walk pushing children in id order, so float totals are that walk's bit
    for bit. Forward id order (:meth:`descent`) is parents first:
    :meth:`depths` and any top-down placement rule are one pass over it.
    :meth:`chain` hands the route planner a node's ancestors as one shared
    tuple. Shared by every reader, it keeps no per-run state.
    """

    __slots__ = (
        "size", "parent", "last_child", "prev_sibling", "individual", "popularity",
        "_subtree_sizes", "_depths", "_chains",
    )

    def __init__(self, tree: "NamespaceTree") -> None:
        #: The tree's columns: only the first ``size`` entries are this view's.
        self.size = len(tree)
        self.parent = tree._parent_ids  # the root's reads -1
        self.last_child = tree._last_child
        self.prev_sibling = tree._prev_sibling
        self.individual = tree.individual_popularity
        self.popularity = tree.popularity
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
        ``A_j``): one cached, shared tuple per node per arena (so the generic
        planner walks POSIX prefixes without per-op lists), its parent's
        chain plus the parent."""
        chains = self._chains
        cached = chains[nid]
        if cached is None:
            pid = self.parent[nid]
            cached = chains[nid] = () if pid < 0 else self.chain(pid) + (pid,)
        return cached

    def individual_popularity(self) -> array:
        """A copy of the nodes' current ``p'_j``, by node id: a column
        (``array('d')``), one copy of the tree's."""
        return self.individual[:self.size]

    def _ascent(self) -> Iterator[Tuple[int, int]]:
        """``(child id, parent id)`` of every edge, highest child id first:
        each child after all of its descendants."""
        last = self.size - 1
        return zip(range(last, 0, -1), self.parent[last:0:-1])

    def write_popularity(self, individual: Iterable[float]) -> None:
        """The whole-tree pass: aggregate the Def. 2 totals ``p_j`` of an
        id-indexed ``p'_j`` column (a column or a list) and write both to
        the tree's columns."""
        totals = array("d", individual)
        for cid, pid in self._ascent():
            totals[pid] += totals[cid]
        size = self.size
        self.individual[:size] = array("d", individual)
        self.popularity[:size] = totals

    def subtree_sizes(self) -> List[int]:
        """Nodes per subtree (root included), indexed by node id: the length
        of :meth:`subtree` plus one, built on first use by one reverse-id
        pass."""
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
        """Edges from the root, indexed by node id: the length of
        :meth:`chain`, built on first use by one pass over :meth:`descent`."""
        depths = self._depths
        if depths is None:
            depths = [0] * self.size
            for cid, pid in self.descent():
                depths[cid] = depths[pid] + 1
            self._depths = depths
        return depths


class PopularityEstimate:
    """One replay's running estimate of every node's ``p'_j``, kept lazily.

    A round blends the window's access counts in, ``p' <- (1 - blend) * p'
    + blend * count``, writing only the nodes it touched: a value carries
    the round it was written in and decays on read by ``(1 - blend) **
    rounds_elapsed``; a window waits, as counted, until somebody reads the
    columns or as many entries wait as the tree has nodes. The tree's
    columns catch up two ways: :meth:`fold` blends the Def. 2 total of each
    *counted* node (what the control plane reads between rounds, Sec.
    IV-B's "access counters") from the counts completed under it, at the
    cost of the window; :meth:`materialise` is the whole-tree pass. DROP's
    and AngleCut's fits read the ``p'_j`` column alone, :meth:`individual`.

    With integer counts and ``blend = 0.5`` every value is dyadic, so a
    total blended directly equals the total of its blended nodes; at other
    blends the two (and a lazy decay against a per-round one) agree to the
    last ulp or so, not bit for bit.
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
        self._stamp = array("i", [0]) * arena.size
        #: Folded windows not yet written into the columns (``_settle``).
        self._pending: List[Dict[int, int]] = []
        #: True while the tree's columns are behind.
        self._stale = False
        #: The round every ``_stamp`` was last set to (by :meth:`individual`).
        self._rebased = 0

    def fold(self, counts, counted=None, counter_ids=None) -> None:
        """Blend one window: ``counts`` maps each node id to the accesses
        that completed on it (the mapping is kept, not copied).

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
        popularity = self.arena.popularity
        for nid in counted:
            popularity[nid] *= keep
        for cid, count in under.items():
            popularity[cid] += blend * count

    def _settle(self) -> None:
        """Write the pending windows into the columns, oldest first."""
        blend, keep = self.blend, self.keep
        value, stamp = self._value, self._stamp
        now = self.round - len(self._pending)
        decay = [keep ** gap for gap in range(self.round)]  # by rounds waited
        for counts in self._pending:
            now += 1
            for nid, count in counts.items():
                value[nid] = keep * (value[nid] * decay[now - 1 - stamp[nid]]) + blend * count
                stamp[nid] = now
        self._pending.clear()

    def subtree_total(self, node: int) -> float:
        """Def. 2 total of ``node``'s subtree as of the last folded round —
        what a node that starts carrying a counter mid-window begins from."""
        self._settle()
        now, keep = self.round, self.keep
        value, stamp = self._value, self._stamp
        return ordered_sum(
            value[nid] * keep ** (now - stamp[nid])
            for nid in self.arena.subtree(node, include_self=True)
        )

    def individual(self) -> array:
        """Every node's ``p'_j`` as of the last folded round, by node id:
        the pending windows settled and every value decayed to the round.
        The columns are rebased to it, so a second call in the same
        round costs nothing. The column (``array('d')``) is the estimate's
        own: read it, do not write it."""
        now = self.round
        if self._rebased == now and not self._pending:
            return self._value
        self._settle()
        keep = self.keep
        value = self._value
        # By the round a value was stamped in: ``keep ** rounds_elapsed``.
        decay = [keep ** (now - at) for at in range(now + 1)]
        current = array("d", map(mul, value, map(decay.__getitem__, self._stamp)))
        self._value = current
        self._stamp = array("i", [now]) * len(current)
        self._rebased = now
        return current

    def materialise(self) -> None:
        """Bring the tree's columns up to date (no-op when they are): the
        whole-tree pass over :meth:`individual`."""
        if not self._stale:
            return
        self.arena.write_popularity(self.individual())
        self._stale = False


class NamespaceTree:
    """A file-system namespace tree whose nodes are dense integer ids.

    The root is id 0 (:data:`ROOT`); a node's fields are the id-indexed
    ``names``, directory flag, structure (:class:`NodeArena`) and
    ``individual_popularity`` / ``popularity`` / ``update_cost`` columns. It
    only grows: :meth:`add_child` (which :meth:`add_path` calls) is its one
    structural mutation, so ids are parents-first and paths never change.
    """

    root = ROOT

    def __init__(self) -> None:
        #: Path component (the root's is ``"/"``), directory flag, ``p'_j``,
        #: ``p_j`` and ``u_j`` by node id.
        self.names: List[str] = [PATH_SEPARATOR]
        self._directory = bytearray(b"\x01")
        self.individual_popularity = array("d", [0.0])
        self.popularity = array("d", [0.0])
        self.update_cost = array("d", [0.0])
        #: The structure, by node id (the columns every NodeArena reads):
        #: parent, last child, previous sibling; -1 reads "none".
        self._parent_ids = array("i", [-1])
        self._last_child = array("i", [-1])
        self._prev_sibling = array("i", [-1])
        #: Child name -> id of each directory add_child has checked a name in.
        self._child_names: Dict[int, Dict[str, int]] = {}
        self._popularity_dirty = False
        self._arena: Optional[NodeArena] = None
        #: The running replay's estimate, or None; while one is installed, a
        #: reader of popularity beyond the counted nodes materialises it.
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
    ) -> int:
        """Insert ``path``, creating intermediate directories as needed.

        Existing nodes are returned unchanged (their popularity is *not*
        overwritten); intermediate components are created as directories with
        zero individual popularity.
        """
        parts = split_path(path)
        last = len(parts) - 1
        node = ROOT
        for i, part in enumerate(parts):
            child = (self._child_names.get(node) or self._listing(node)).get(part)
            if child is None:
                leaf = i == last
                child = self.add_child(node, part, is_directory or not leaf,
                                       individual_popularity if leaf else 0.0,
                                       update_cost if leaf else 0.0)
            node = child
        return node

    def add_child(
        self,
        parent: int,
        name: str,
        is_directory: bool = False,
        individual_popularity: float = 0.0,
        update_cost: float = 0.0,
    ) -> int:
        """Create a child node directly under ``parent``; returns its id.
        ``name`` is one path component: non-empty and slash-free. The
        duplicate check reads the parent's name index (built once per
        directory), so filling a wide directory stays linear."""
        if not (0 <= parent < len(self.names) and self._directory[parent]):
            raise ValueError(f"cannot add a child to {parent!r}: not a directory node")
        if not name or PATH_SEPARATOR in name:
            raise ValueError(f"names must be non-empty and slash-free, not {name!r}")
        if individual_popularity < 0 or update_cost < 0:
            raise ValueError("individual_popularity and update_cost must be non-negative")
        index = self._child_names.get(parent)
        if index is None:
            index = self._child_names[parent] = self._listing(parent)
        if name in index:
            raise ValueError(f"{self.path(parent)!r} already has a child named {name!r}")
        cid = index[name] = self._extend((parent,), (name,), is_directory)
        self.individual_popularity[cid] = self.popularity[cid] = individual_popularity
        self.update_cost[cid] = update_cost
        return cid

    def _extend(self, parents: Sequence[int], names: Sequence[str], is_directory: bool) -> int:
        """Register child ``names[i]`` under ``parents[i]`` unchecked (a parent
        may be new in this batch), each column extended once; returns the first id."""
        first, count = len(self.names), len(names)
        self.names += names
        self._directory += (b"\x01" if is_directory else b"\x00") * count
        zeros = array("d", [0.0]) * count
        for column in (self.individual_popularity, self.popularity, self.update_cost):
            column += zeros
        self._parent_ids.extend(parents)
        last, sibling = self._last_child, self._prev_sibling.append
        last += array("i", [-1]) * count
        for cid, pid in enumerate(parents, first):
            sibling(last[pid])
            last[pid] = cid
        self._popularity_dirty = True
        return first

    def _listing(self, parent: int) -> Dict[str, int]:
        """Name -> id of ``parent``'s children."""
        names, prev = self.names, self._prev_sibling
        listing = {}
        cid = self._last_child[parent]
        while cid >= 0:
            listing[names[cid]] = cid
            cid = prev[cid]
        return listing

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def resolve(self, paths: Iterable[str]) -> List[Optional[int]]:
        """The node id of each of ``paths`` (``None`` where it names none).

        Only a node's canonical path resolves: absolute, no empty component
        (``/a//b``), no trailing slash. Each prefix is walked and each
        directory listed once per call; nothing is kept after it."""
        known: Dict[str, int] = {"": ROOT}  # directory prefix -> id, -1: none
        listings: Dict[int, Dict[str, int]] = {-1: {}}  # parent id -> name -> id
        out: List[Optional[int]] = []
        for path in paths:
            if path == PATH_SEPARATOR:
                out.append(ROOT)
                continue
            head, sep, name = path.rpartition(PATH_SEPARATOR)
            pid = known.get(head) if sep else -1
            if pid is None:  # up to the nearest directory resolved, then down
                steps, prefix = [], head
                while pid is None:
                    steps.append(prefix)
                    prefix, sep, _ = prefix.rpartition(PATH_SEPARATOR)
                    pid = known.get(prefix) if sep else -1
                for prefix in reversed(steps):
                    if pid >= 0:
                        listing = listings.get(pid) or listings.setdefault(pid, self._listing(pid))
                        pid = listing.get(prefix.rpartition(PATH_SEPARATOR)[2], -1)
                    known[prefix] = pid
            listing = listings.get(pid)
            if listing is None:
                listing = listings[pid] = self._listing(pid)
            out.append(listing.get(name))
        return out

    def lookup(self, path: str) -> Optional[int]:
        """The node id at ``path``, or ``None`` when absent."""
        return self.resolve((path,))[0]

    def paths(self, ids: Iterable[int]) -> List[str]:
        """Each of ``ids``' absolute path, from the name and parent columns:
        its parent's head (a directory's path plus the separator, kept for
        the call) plus its name (the root's is the separator)."""
        names, parent = self.names, self._parent_ids
        heads = {-1: "", ROOT: PATH_SEPARATOR}
        out = []
        for nid in ids:
            pid = parent[nid]
            head = heads.get(pid)
            if head is None:  # up to the nearest directory rendered, then down
                chain = []
                while head is None:
                    chain.append(pid)
                    pid = parent[pid]
                    head = heads.get(pid)
                for cid in reversed(chain):
                    head = heads[cid] = head + names[cid] + PATH_SEPARATOR
            out.append(head + names[nid])
        return out

    def path(self, nid: int) -> str:
        """Node ``nid``'s absolute path (the root's is ``"/"``)."""
        return self.paths((nid,))[0]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def is_directory(self, nid: int) -> bool:
        """Whether node ``nid`` may hold children."""
        return bool(self._directory[nid])

    def arena(self) -> NodeArena:
        """The column view of the tree at its current size.

        Cached until the tree grows; see :class:`NodeArena`.
        """
        arena = self._arena
        if arena is None or arena.size != len(self.names):
            arena = NodeArena(self)
            self._arena = arena
        return arena

    def parent(self, nid: int) -> Optional[int]:
        """Node ``nid``'s parent (``None`` for the root)."""
        pid = self._parent_ids[nid]
        return None if pid < 0 else pid

    def children(self, nid: int) -> List[int]:
        """Node ``nid``'s children, in id (creation) order."""
        return self.arena().children(nid)

    def ancestors(self, nid: int, include_self: bool = False) -> List[int]:
        """Ancestors root-first (the set ``A_j``; as many as the node's
        depth): the order of a POSIX traversal, which counts jumps (Def. 1)."""
        parent = self._parent_ids
        chain = [nid] if include_self else []
        pid = parent[nid]
        while pid >= 0:
            chain.append(pid)
            pid = parent[pid]
        chain.reverse()
        return chain

    def descendants(self, nid: int, include_self: bool = False) -> Iterator[int]:
        """Iterate over the subtree below node ``nid`` (the set ``D_j``), in
        :meth:`NodeArena.subtree` order."""
        return self.arena().subtree(nid, include_self)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[int]:
        """Every node id, parents first."""
        return iter(range(len(self.names)))

    # ------------------------------------------------------------------
    # Popularity bookkeeping (Def. 2)
    # ------------------------------------------------------------------
    def record_access(self, nid: int, weight: float = 1.0) -> None:
        """Add ``weight`` to node ``nid``'s individual popularity ``p'_j``."""
        self.individual_popularity[nid] += weight
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
        return self.popularity[ROOT]

    # ------------------------------------------------------------------
    # Whole-tree utilities
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        return max(self.arena().depths())

    def directories(self) -> List[int]:
        """The ids of all directory nodes (including the root)."""
        return [nid for nid, flag in enumerate(self._directory) if flag]
