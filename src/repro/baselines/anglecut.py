"""AngleCut: locality-preserving hashing onto multiple Chord-like rings.

Liu et al. (DASFAA'17) project the namespace tree onto several Chord-like
rings with a locality-preserving hash and place metadata by ring position.
This reproduction follows that structure: a node's *angle* is its preorder
position (locality-preserving within a ring) and its *ring* is chosen by
depth, so adjacent tree levels live on different rings. Every server owns one
arc per ring; arcs are sized to carry capacity-proportional popularity
(recomputed on rebalance, mirroring AngleCut's ring re-weighting).

The consequences the paper reports fall out directly: balance is excellent
(arcs track popularity quantiles per ring, Fig. 7) while locality is poor and
degrades with cluster size — consecutive path components sit on different
rings, whose arcs rarely line up on the same server (Fig. 6).
"""

from __future__ import annotations

import bisect
from itertools import compress, count, islice
from operator import eq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.placement import MetadataScheme, Migration, Placement, live_owner
from repro.registry import register
from repro.baselines.drop import (
    KeyOrder,
    fit_boundaries,
    individual_column,
    preorder_keys,
    sorted_by_value,
    span_owners,
    weights_of,
)
from repro.core.namespace import NamespaceTree
from repro.numeric import ordered_sum

__all__ = ["AngleCutScheme", "AngleCutPlacement"]

#: One ring in walk order: its node ids, their angles, the runs of equal
#: angle. The rings are consecutive slices of the angle order.
_Ring = Tuple[List[int], List[float], List[Tuple[int, int]]]


def _equal_runs(values: List[float]) -> List[Tuple[int, int]]:
    """``(start, stop)`` of every run of two or more equal ``values``,
    found from the (few) positions equal to their predecessor."""
    runs: List[Tuple[int, int]] = []
    for at in compress(count(1), map(eq, islice(values, 1, None), values)):
        if runs and runs[-1][1] == at:
            runs[-1] = (runs[-1][0], at + 1)
        else:
            runs.append((at - 1, at + 1))
    return runs


class AngleCutPlacement(Placement):
    """Placement defined by per-ring arc boundaries over node angles."""

    def __init__(
        self,
        num_servers: int,
        num_rings: int,
        angles: Dict[int, Tuple[int, float]],
        capacities: Optional[Sequence[float]] = None,
        tree: Optional[NamespaceTree] = None,
    ) -> None:
        super().__init__(num_servers, capacities, tree)
        self.num_rings = num_rings
        #: node -> (ring index, angle in [0, 1)).
        self.angles = angles
        #: per-ring interior arc boundaries, server k owns [b_k, b_{k+1}).
        self.ring_boundaries: List[List[float]] = [
            [(k + 1) / num_servers for k in range(num_servers - 1)]
            for _ in range(num_rings)
        ]
        self._angle_order: Optional[KeyOrder] = None
        self._rings: List[_Ring] = []

    def server_for(self, ring: int, angle: float) -> int:
        """Arc owner of ``angle`` on ``ring`` (with per-ring rotation).

        The rotation offsets successive rings by one server so a single
        server does not own the same angular window on every ring — the
        Chord-style placement AngleCut uses to spread correlated prefixes.
        A failed owner's arc merges into the next live server's.
        """
        arc = bisect.bisect_right(self.ring_boundaries[ring], angle)
        return live_owner(self.capacities, arc + ring)

    def arc_owners(self) -> List[List[int]]:
        """Per ring, the owner of every arc under the current boundaries,
        indexed like ``bisect_right(ring_boundaries[ring], angle)``."""
        return [
            [live_owner(self.capacities, arc + ring) for arc in range(len(bounds) + 1)]
            for ring, bounds in enumerate(self.ring_boundaries)
        ]

    def angle_order(self) -> KeyOrder:
        """The projected nodes in ``(ring, angle)`` order (equal angles in
        ``angles`` order): ring by ring, each walked by angle. Sorted once
        and kept across rounds while the projection is unchanged."""
        order = sorted_by_value(self.angles, self._angle_order)
        if order is not self._angle_order:
            self._angle_order = order
            values, ids = order.values, order.ids
            self._rings = []
            for ring in range(self.num_rings):
                start = bisect.bisect_left(values, (ring,))
                stop = bisect.bisect_left(values, (ring + 1,), start)
                angles = [angle for _ring, angle in values[start:stop]]
                self._rings.append((ids[start:stop], angles, _equal_runs(angles)))
        return order

    def ring_order(self) -> List[_Ring]:
        """Per ring: its node ids in angle order, their angles, and the
        ``(start, stop)`` runs of equal angle."""
        self.angle_order()
        return self._rings

    def apply_boundaries(self) -> List[Migration]:
        """Place every projected node by the current arc boundaries, as
        spans of each ring's angle order; returns the moves in ``angles``
        order (see :meth:`Placement.reassign`)."""
        order = self.angle_order()
        servers: List[int] = []
        for (_ids, angles, _ties), bounds, owners in zip(
            self._rings, self.ring_boundaries, self.arc_owners()
        ):
            servers += span_owners(angles, bounds, owners)
        return self.reassign(order.keyed, list(map(servers.__getitem__, order.rank)))

    def _pull_back(self, server: int, live: List[int]) -> List[Migration]:
        """Nothing: the next arc re-fit pulls load to the newcomer."""
        return []

    def forget(self, node) -> bool:
        """Drop a node and its ring projection."""
        self.angles.pop(node, None)
        self._angle_order = None  # a re-projected node sorts after its equals
        return super().forget(node)


@register("anglecut")
class AngleCutScheme(MetadataScheme):
    """Multi-ring locality-preserving hashing."""

    name = "anglecut"

    def __init__(self, num_rings: int = 4) -> None:
        if num_rings < 1:
            raise ValueError("need at least one ring")
        self.num_rings = num_rings

    def _project(self, tree: NamespaceTree) -> Dict[int, Tuple[int, float]]:
        """Project the namespace tree onto the rings."""
        keys = preorder_keys(tree)
        depths = tree.arena().depths()
        rings = self.num_rings
        return {node: (depths[node] % rings, key) for node, key in keys.items()}

    def partition(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> AngleCutPlacement:
        tree.ensure_popularity()
        placement = AngleCutPlacement(
            num_servers, self.num_rings, self._project(tree), capacities, tree
        )
        placement.ring_boundaries = self._quantile_boundaries(placement, individual_column(tree))
        placement.apply_boundaries()
        placement.validate_complete(tree)
        return placement

    def rebalance(
        self,
        tree: NamespaceTree,
        placement: AngleCutPlacement,  # type: ignore[override]
    ) -> List[Migration]:
        """Re-fit arc boundaries to the current popularity distribution."""
        new_boundaries = self._quantile_boundaries(placement, individual_column(tree))
        if new_boundaries == placement.ring_boundaries:
            return []
        placement.ring_boundaries = new_boundaries
        return placement.apply_boundaries()

    def place_created(self, tree, placement, node):
        """Project the new node: ring by depth, angle next to its parent."""
        ring = len(tree.ancestors(node)) % placement.num_rings
        parent_entry = placement.angles.get(tree.parent(node))
        angle = parent_entry[1] if parent_entry is not None else 0.0
        placement.angles[node] = (ring, angle)
        server = placement.server_for(ring, angle)
        placement.assign(node, server)
        return server

    @staticmethod
    def _quantile_boundaries(
        placement: AngleCutPlacement, individual: Sequence[float]
    ) -> List[List[float]]:
        """Per-ring boundaries carrying capacity-proportional popularity,
        weighted by the id-indexed ``p'_j`` column ``individual``."""
        cap_total = ordered_sum(placement.capacities)
        shares = [cap / cap_total for cap in placement.capacities]
        m = placement.num_servers
        boundaries: List[List[float]] = []
        for ring, (ids, angles, ties) in enumerate(placement.ring_order()):
            weights = weights_of(individual, ids)
            # A ring is walked in (angle, weight) order: equal angles (a
            # created node takes its parent's) go by this round's weight.
            for start, stop in ties:
                weights[start:stop] = sorted(weights[start:stop])
            # Arc k on this ring belongs to server (k + ring) % M; size each
            # arc to its owner's capacity share.
            ring_shares = [shares[(k + ring) % m] for k in range(m - 1)]
            boundaries.append(fit_boundaries(angles, weights, ring_shares))
        return boundaries
