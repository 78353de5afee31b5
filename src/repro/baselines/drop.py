"""DROP: locality-preserving hashing with histogram-based load balancing.

Xu et al. (MSST'13 / TPDS'14) hash each metadata node to a point on a
Chord-like linear keyspace with a *locality-preserving* hash — here realised
as the node's preorder (DFS) position, which keeps every subtree contiguous —
and let servers own key ranges through *virtual nodes*, several per physical
server. The HDLB step ("histogram-based dynamic load balancing") periodically
moves range boundaries to popularity-weighted quantiles, so every virtual
range carries its owner's capacity-proportional share of the load.

The consequences the paper reports fall out of this structure: balance is
near-perfect (quantile ranges at node granularity, Fig. 7), while locality
suffers and keeps degrading as the cluster scales — ``V·M`` ranges means
``V·M − 1`` boundaries slicing root-to-leaf paths (Fig. 6).
"""

from __future__ import annotations

import bisect
from array import array
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.placement import MetadataScheme, Migration, Placement, live_owner, stable_hash
from repro.registry import register
from repro.core.namespace import NamespaceTree
from repro.numeric import ordered_sum

__all__ = ["DropScheme", "DropPlacement", "preorder_keys"]


def preorder_keys(tree: NamespaceTree) -> Dict[int, float]:
    """Idealised locality-preserving hash: preorder DFS position in [0, 1).

    Every subtree occupies a contiguous key interval — stronger locality than
    any hash of pathnames can deliver. Used by the AngleCut projection and by
    the DROP ablation (``key_mode="preorder"``).
    """
    keys: Dict[int, float] = {}
    arena = tree.arena()
    n = len(tree)
    index = 0
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        keys[nid] = index / n
        index += 1
        # Reversed so the leftmost child is visited first.
        stack.extend(reversed(arena.children(nid)))
    return keys


def pathname_cluster_keys(tree: NamespaceTree) -> Dict[int, float]:
    """DROP's pathname-based locality-preserving hash.

    DROP hashes *pathnames*, which clusters a directory's entries (they share
    the long common prefix) but gives the parent itself — a shorter, different
    string — an unrelated key. Modelled directly: every directory owns a
    cluster base at ``hash(dir path)``, its children sit within a narrow
    window above the base, and ancestor chains therefore scatter across the
    keyspace. Sibling locality survives; path-traversal locality does not —
    the drawback the paper measures in Fig. 6.
    """
    window = 1.0 / max(1, 4 * len(tree))
    scale = float(2 ** 64)
    # Each path is hashed once: a node's own hash is its children's base.
    hashes = [stable_hash(path) for path in tree.paths(tree)]
    keys: Dict[int, float] = {}
    for node, digest, pid in zip(tree, hashes, tree.arena().parent):
        if pid < 0:
            keys[node] = 0.0
            continue
        base = hashes[pid] / scale
        offset = (digest / scale) * window
        keys[node] = (base + offset) % 1.0
    return keys


class KeyOrder(NamedTuple):
    """A node-keyed mapping in value order, equal values in mapping order
    (a stable sort), with what a re-fit round reads off it."""

    #: The node ids in value order (where the ``p'_j`` column is read), and
    #: their values.
    ids: List[int]
    values: List
    #: The mapping's nodes and values in mapping order; ``rank[i]`` is the
    #: value-order position of ``keyed[i]`` (packed: no int object per key).
    keyed: List[int]
    keyed_values: List
    rank: array


def sorted_by_value(mapping: Dict, cached: Optional[KeyOrder] = None) -> KeyOrder:
    """``mapping`` in value order. ``cached``, an earlier result, is
    returned as it is while it still describes ``mapping`` (the same keys
    and values in the same order): two O(n) list compares instead of a
    re-sort per adjustment round."""
    values = list(mapping.values())
    if cached is not None and values == cached.keyed_values and list(mapping) == cached.keyed:
        return cached
    keyed = list(mapping)
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = array("q", [0]) * len(order)
    for position, index in enumerate(order):
        rank[index] = position
    return KeyOrder(
        list(map(keyed.__getitem__, order)),
        list(map(values.__getitem__, order)),
        keyed,
        values,
        rank,
    )


def individual_column(tree: NamespaceTree) -> Sequence[float]:
    """Every node's ``p'_j`` by node id, an ``array('d')``: the running
    replay's estimate (``PopularityEstimate.individual``, which leaves the
    tree's columns behind), else the tree's own column."""
    estimate = tree.estimate
    if estimate is not None:
        return estimate.individual()
    return tree.individual_popularity


def weights_of(column: Sequence[float], ids: Iterable[int]) -> List[float]:
    """The quantile fits' weight of each id: its ``p'_j`` plus a tiny floor,
    so cold keyspace regions still split. (Subscripts, not a mapped
    ``column.__getitem__``: an ``array``'s method wrapper costs twice as
    much.)"""
    return [column[nid] + 1e-9 for nid in ids]


def fit_boundaries(keys: Sequence, weights: Iterable[float], shares: Sequence[float]) -> List:
    """Per cumulative share of the total weight, the first of ``keys``
    (ascending) at which the running weight, summed left to right from
    0.0, reaches it; 1.0 where it never does (a target past the total).
    One very popular key may satisfy several targets at once (the ranges
    between are empty)."""
    cumulative = list(accumulate(weights))
    total = cumulative[-1] if cumulative else 0.0
    end = len(cumulative)
    boundaries = []
    acc = 0.0
    for share in shares:
        acc += share
        at = bisect.bisect_left(cumulative, acc * total)
        boundaries.append(keys[at] if at < end else 1.0)
    return boundaries


def span_owners(keys: Sequence, boundaries: Sequence, owners: Sequence[int]) -> List[int]:
    """The owner of each of ``keys`` (ascending), range ``r`` owning
    ``[boundaries[r - 1], boundaries[r])``: one ``bisect_left`` per
    boundary, so a key equal to a boundary opens the next range, exactly as
    ``bisect_right(boundaries, key)`` places it."""
    servers: List[int] = []
    start = 0
    for owner, boundary in zip(owners, boundaries):
        stop = bisect.bisect_left(keys, boundary, start)
        servers += [owner] * (stop - start)
        start = stop
    servers += [owners[len(boundaries)]] * (len(keys) - start)
    return servers


class DropPlacement(Placement):
    """Placement defined by virtual-range boundaries over preorder keys."""

    def __init__(
        self,
        num_servers: int,
        keys: Dict[int, float],
        virtual_nodes_per_server: int = 4,
        capacities: Optional[Sequence[float]] = None,
        tree: Optional[NamespaceTree] = None,
    ) -> None:
        super().__init__(num_servers, capacities, tree)
        if virtual_nodes_per_server < 1:
            raise ValueError("need at least one virtual node per server")
        self.keys = keys
        self.virtual_nodes_per_server = virtual_nodes_per_server
        num_ranges = self.num_ranges
        #: Interior boundaries b_1..b_{R-1}; range r owns [b_r, b_{r+1}).
        self.boundaries: List[float] = [
            (r + 1) / num_ranges for r in range(num_ranges - 1)
        ]
        self._key_order: Optional[KeyOrder] = None

    @property
    def num_ranges(self) -> int:
        """Total virtual ranges on the keyspace."""
        return self.num_servers * self.virtual_nodes_per_server

    def server_for_key(self, key: float) -> int:
        """Physical owner of ``key`` (virtual ranges round-robin to servers;
        a failed owner's range merges into the next live server's)."""
        return live_owner(self.capacities, bisect.bisect_right(self.boundaries, key))

    def range_owners(self) -> List[int]:
        """Physical owner of every virtual range under the current
        boundaries, indexed like ``bisect_right(boundaries, key)``."""
        return [live_owner(self.capacities, r) for r in range(len(self.boundaries) + 1)]

    def key_order(self) -> KeyOrder:
        """The keyed nodes in key order (equal keys in ``keys`` order): the
        HDLB histogram's walk, sorted once and kept across rounds while the
        keyspace is unchanged."""
        self._key_order = sorted_by_value(self.keys, self._key_order)
        return self._key_order

    def apply_boundaries(self) -> List[Migration]:
        """Place every keyed node by the current boundaries, as spans of
        the key order; returns the moves in ``keys`` order (see
        :meth:`Placement.reassign`)."""
        order = self.key_order()
        servers = span_owners(order.values, self.boundaries, self.range_owners())
        return self.reassign(order.keyed, list(map(servers.__getitem__, order.rank)))

    def _pull_back(self, server: int, live: List[int]) -> List[Migration]:
        """Nothing: the next HDLB re-fit pulls load to the newcomer."""
        return []

    def forget(self, node) -> bool:
        """Drop a node and its keyspace entry."""
        self.keys.pop(node, None)
        self._key_order = None  # a re-keyed node sorts after its equals
        return super().forget(node)


@register("drop")
class DropScheme(MetadataScheme):
    """Locality-preserving hashing + HDLB boundary adjustment.

    Parameters
    ----------
    virtual_nodes_per_server:
        Chord-style virtual nodes per physical server. More virtual nodes →
        finer balance, worse locality (the classic DHT trade-off).
    """

    name = "drop"

    def __init__(self, virtual_nodes_per_server: int = 4, key_mode: str = "pathname") -> None:
        if virtual_nodes_per_server < 1:
            raise ValueError("need at least one virtual node per server")
        if key_mode not in ("pathname", "preorder"):
            raise ValueError("key_mode must be 'pathname' or 'preorder'")
        self.virtual_nodes_per_server = virtual_nodes_per_server
        self.key_mode = key_mode

    def partition(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> DropPlacement:
        tree.ensure_popularity()
        key_fn = pathname_cluster_keys if self.key_mode == "pathname" else preorder_keys
        placement = DropPlacement(
            num_servers,
            key_fn(tree),
            virtual_nodes_per_server=self.virtual_nodes_per_server,
            capacities=capacities,
            tree=tree,
        )
        # DROP balances from the start: the initial boundaries already sit at
        # the popularity quantiles (the HDLB fixed point for the initial load).
        placement.boundaries = self._quantile_boundaries(placement, individual_column(tree))
        placement.apply_boundaries()
        placement.validate_complete(tree)
        return placement

    def rebalance(
        self,
        tree: NamespaceTree,
        placement: DropPlacement,  # type: ignore[override]
    ) -> List[Migration]:
        """HDLB: move boundaries to the current popularity quantiles."""
        new_boundaries = self._quantile_boundaries(placement, individual_column(tree))
        if new_boundaries == placement.boundaries:
            return []
        placement.boundaries = new_boundaries
        return placement.apply_boundaries()

    def place_created(self, tree, placement, node):
        """Key the new pathname and place it in the owning virtual range."""
        parent = tree.parent(node)
        if self.key_mode == "pathname":
            window = 1.0 / max(1, 4 * len(tree))
            scale = float(2 ** 64)
            base = stable_hash(tree.path(parent)) / scale if parent is not None else 0.0
            key = (base + (stable_hash(tree.path(node)) / scale) * window) % 1.0
        else:
            # Preorder keys cannot be extended incrementally without a global
            # renumbering; new nodes adopt the key just after their parent.
            key = placement.keys.get(parent, 0.0)
        placement.keys[node] = key
        server = placement.server_for_key(key)
        placement.assign(node, server)
        return server

    @staticmethod
    def _quantile_boundaries(placement: DropPlacement, individual: Sequence[float]) -> List[float]:
        """Boundaries giving every virtual range its owner's capacity share.

        Weighted by *individual* popularity (a node's served traffic, read
        from the id-indexed ``individual`` column) plus a tiny floor.
        """
        order = placement.key_order()
        capacities = placement.capacities
        cap_total = ordered_sum(capacities)
        v = placement.virtual_nodes_per_server
        m = placement.num_servers
        shares = [capacities[r % m] / (cap_total * v) for r in range(placement.num_ranges - 1)]
        return fit_boundaries(order.values, weights_of(individual, order.ids), shares)
