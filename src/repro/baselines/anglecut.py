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
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

from repro.placement import MetadataScheme, Migration, Placement, live_owner
from repro.registry import register
from repro.baselines.drop import preorder_keys, sorted_by_value
from repro.core.namespace import NamespaceTree
from repro.core.node import MetadataNode
from repro.numeric import ordered_sum

__all__ = ["AngleCutScheme", "AngleCutPlacement"]

#: One ring in walk order: its nodes, their angles, the runs of equal angle.
_Ring = Tuple[List[MetadataNode], List[float], List[Tuple[int, int]]]


def _equal_runs(values: List[float]) -> List[Tuple[int, int]]:
    """``(start, stop)`` of every run of two or more equal ``values``."""
    runs: List[Tuple[int, int]] = []
    start = 0
    for _value, run in groupby(values):
        stop = start + sum(1 for _ in run)
        if stop - start > 1:
            runs.append((start, stop))
        start = stop
    return runs


class AngleCutPlacement(Placement):
    """Placement defined by per-ring arc boundaries over node angles."""

    def __init__(
        self,
        num_servers: int,
        num_rings: int,
        angles: Dict[MetadataNode, Tuple[int, float]],
        capacities: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(num_servers, capacities)
        self.num_rings = num_rings
        #: node -> (ring index, angle in [0, 1)).
        self.angles = angles
        #: per-ring interior arc boundaries, server k owns [b_k, b_{k+1}).
        self.ring_boundaries: List[List[float]] = [
            [(k + 1) / num_servers for k in range(num_servers - 1)]
            for _ in range(num_rings)
        ]
        self._angle_order: Optional[Tuple[List[MetadataNode], List[Tuple[int, float]]]] = None
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

    def ring_order(self) -> List[_Ring]:
        """Per ring: its nodes in angle order (equal angles in ``angles``
        order), their angles, and the ``(start, stop)`` runs of equal angle.
        Sorted once and kept across rounds while the projection is
        unchanged."""
        order = sorted_by_value(self.angles, self._angle_order)
        if order is not self._angle_order:
            self._angle_order = order
            rings: List[Tuple[List[MetadataNode], List[float]]] = [
                ([], []) for _ in range(self.num_rings)
            ]
            for node, (ring, angle) in zip(*order):
                rings[ring][0].append(node)
                rings[ring][1].append(angle)
            self._rings = [(nodes, angles, _equal_runs(angles)) for nodes, angles in rings]
        return self._rings

    def apply_boundaries(self) -> List[Migration]:
        """Place every projected node by the current arc boundaries; returns
        the moves in ``angles`` order (see :meth:`Placement.reassign`)."""
        owners, bounds = self.arc_owners(), self.ring_boundaries
        return self.reassign(
            (node, owners[ring][bisect.bisect_right(bounds[ring], angle)])
            for node, (ring, angle) in self.angles.items()
        )

    def counted_nodes(self) -> None:
        """Every node: each ring's arcs are popularity quantiles."""
        return None

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

    def _project(self, tree: NamespaceTree) -> Dict[MetadataNode, Tuple[int, float]]:
        """Project the namespace tree onto the rings."""
        keys = preorder_keys(tree)
        depths = tree.arena().depths()
        rings = self.num_rings
        return {node: (depths[node.node_id] % rings, key) for node, key in keys.items()}

    def partition(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> AngleCutPlacement:
        tree.ensure_popularity()
        placement = AngleCutPlacement(
            num_servers, self.num_rings, self._project(tree), capacities
        )
        placement.ring_boundaries = self._quantile_boundaries(placement)
        placement.apply_boundaries()
        placement.validate_complete(tree)
        return placement

    def rebalance(
        self,
        tree: NamespaceTree,
        placement: AngleCutPlacement,  # type: ignore[override]
    ) -> List[Migration]:
        """Re-fit arc boundaries to the current popularity distribution."""
        tree.ensure_popularity()
        new_boundaries = self._quantile_boundaries(placement)
        if new_boundaries == placement.ring_boundaries:
            return []
        placement.ring_boundaries = new_boundaries
        return placement.apply_boundaries()

    def place_created(self, tree, placement, node):
        """Project the new node: ring by depth, angle next to its parent."""
        ring = node.depth % placement.num_rings
        parent_entry = placement.angles.get(node.parent)
        angle = parent_entry[1] if parent_entry is not None else 0.0
        placement.angles[node] = (ring, angle)
        server = placement.server_for(ring, angle)
        placement.assign(node, server)
        return server

    @staticmethod
    def _quantile_boundaries(placement: AngleCutPlacement) -> List[List[float]]:
        """Per-ring boundaries carrying capacity-proportional popularity."""
        cap_total = ordered_sum(placement.capacities)
        shares = [cap / cap_total for cap in placement.capacities]
        boundaries: List[List[float]] = []
        for ring, (nodes, angles, ties) in enumerate(placement.ring_order()):
            weights = [node.individual_popularity + 1e-9 for node in nodes]
            # A ring is walked in (angle, weight) order: equal angles (a
            # created node takes its parent's) go by this round's weight.
            for start, stop in ties:
                weights[start:stop] = sorted(weights[start:stop])
            total = ordered_sum(weights)
            ring_bounds: List[float] = []
            # Arc k on this ring belongs to server (k + ring) % M; size each
            # arc to its owner's capacity share.
            targets = []
            acc = 0.0
            for k in range(placement.num_servers - 1):
                owner = (k + ring) % placement.num_servers
                acc += shares[owner]
                targets.append(acc * total)
            running = 0.0
            t = 0
            for angle, weight in zip(angles, weights):
                if t >= len(targets):
                    break
                running += weight
                while t < len(targets) and running >= targets[t]:
                    ring_bounds.append(angle)
                    t += 1
            while len(ring_bounds) < placement.num_servers - 1:
                ring_bounds.append(1.0)
            boundaries.append(ring_bounds)
        return boundaries
