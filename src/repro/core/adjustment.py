"""Dynamic-Adjustment — the update process of Sec. IV-B.

Both subtree sizes and popularities drift over time, so D2-Tree keeps the
cluster balanced with two cooperating pieces (the decaying access counters
they read are :class:`~repro.core.namespace.PopularityEstimate`):

* :class:`PendingPool` — the Monitor-side pool of subtrees shed by relatively
  overloaded servers, from which light or newly-added servers pull;
* :class:`DynamicAdjuster` — the heartbeat-driven policy: compute the ideal
  load factor ``μ`` and each server's relative capacity ``Re_k = L_k − μC_k``,
  have heavy servers offer the largest subtrees that fit their excess into
  the pool, and drain the pool to the servers below their ideal load
  mirror-division style (popularity proportional to remaining deficit).

Global-layer re-evaluation ("typically once a day") is
:meth:`~repro.core.scheme.D2TreeScheme.refresh_global_layer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.placement import DEAD_CAPACITY
from repro.core.allocation import mirror_division
from repro.core.node import MetadataNode

__all__ = ["PendingPool", "DynamicAdjuster", "AdjustmentReport"]


@dataclass
class _PendingEntry:
    subtree_root: MetadataNode
    source_server: int
    popularity: float


class PendingPool:
    """Monitor-side pool of subtrees offered by overloaded servers."""

    def __init__(self) -> None:
        self._entries: List[_PendingEntry] = []

    def offer(self, subtree_root: MetadataNode, source_server: int, popularity: float) -> None:
        """Register a subtree a heavy server is willing to give away."""
        if popularity < 0:
            raise ValueError("popularity must be non-negative")
        self._entries.append(_PendingEntry(subtree_root, source_server, popularity))

    def entries(self) -> List[_PendingEntry]:
        """Snapshot of the current pool contents."""
        return list(self._entries)

    def take_all(self) -> List[_PendingEntry]:
        """Drain the pool (the claim phase consumes everything offered)."""
        out, self._entries = self._entries, []
        return out

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_popularity(self) -> float:
        """Sum of popularity currently parked in the pool."""
        return sum(e.popularity for e in self._entries)


#: A moved root is *negligible* when it carries less than this share of the
#: ideal load factor ``μ``: the move costs migration CPU on both ends and a
#: placement version, and shifts no load worth the name.
NEGLIGIBLE_SHARE = 1e-3


@dataclass
class AdjustmentReport:
    """Outcome of one heartbeat-driven adjustment round."""

    migrations: List[Tuple[MetadataNode, int, int]] = field(default_factory=list)
    offered: int = 0
    ideal_load_factor: float = 0.0
    #: Popularity relocated this round.
    moved_popularity: float = 0.0
    #: Migrated roots carrying under ``NEGLIGIBLE_SHARE · μ``.
    negligible_moves: int = 0
    #: Largest ``L_k / (μ C_k)`` over live servers on the loads the round
    #: was given: 1.0 is perfect balance, 0.0 means nothing carries load.
    max_load_factor: float = 0.0


class DynamicAdjuster:
    """Heartbeat-driven rebalancer for the local layer.

    Parameters
    ----------
    imbalance_tolerance:
        A server is treated as *heavy* when ``L_k > (1 + tol) · μ C_k`` and
        sheds load-carrying subtrees down toward its ideal load ``μ C_k``;
        every live server below its ideal load claims from the pool in
        proportion to its deficit. The tolerance is a dead zone on the offer
        side only: a hard one on the claim side (``L_k < (1 − tol) · μ C_k``)
        was measured and rejected, because one hot server among many
        slightly cool ones then finds nobody qualified to receive and the
        round moves nothing. What keeps the policy from thrashing — the
        failure mode the paper pins on dynamic subtree partitioning — is
        that a subtree is offered only when moving it pays.
    """

    def __init__(self, imbalance_tolerance: float = 0.1) -> None:
        if imbalance_tolerance < 0:
            raise ValueError("imbalance_tolerance must be non-negative")
        self.imbalance_tolerance = imbalance_tolerance

    def adjust(
        self,
        subtree_owner: Dict[MetadataNode, int],
        loads: Sequence[float],
        capacities: Sequence[float],
    ) -> AdjustmentReport:
        """Run one offer/claim round and return the migrations performed.

        ``subtree_owner`` maps each local-layer subtree root to its current
        server and is mutated in place. ``loads`` are the heartbeat-reported
        per-server loads ``L_k`` (local-layer popularity only — the global
        layer is identical everywhere and cancels out of ``Re_k``).
        """
        if len(loads) != len(capacities):
            raise ValueError("loads and capacities must align")
        report = AdjustmentReport()
        total_cap = sum(capacities)
        if total_cap <= 0:
            raise ValueError("total capacity must be positive")
        mu = sum(loads) / total_cap
        report.ideal_load_factor = mu
        if mu == 0:
            return report

        # A server at the DEAD_CAPACITY sentinel — or with negligible
        # capacity relative to its peers — is dead (see
        # repro.cluster.failure): it never claims, no matter how large the
        # ideal load factor makes its nominal deficit, and its load factor
        # says nothing about balance.
        cap_floor = max(DEAD_CAPACITY, 1e-6 * max(capacities))
        report.max_load_factor = max(
            (
                load / (mu * cap)
                for load, cap in zip(loads, capacities)
                if cap > cap_floor
            ),
            default=0.0,
        )
        loads = list(loads)
        pool = PendingPool()

        # Offer phase: each heavy server sheds the largest subtrees that fit
        # its remaining excess, so the load that has to move moves in the
        # fewest migrations and the server is not pushed below its ideal
        # load. The walk is in descending popularity: the excess only
        # shrinks, so a root that did not fit never fits later. Roots of
        # zero popularity are not candidates at all — moving one costs a
        # migration and shifts nothing.
        carrying: Dict[int, List[MetadataNode]] = {}
        for root, server in subtree_owner.items():
            if root.popularity > 0:
                carrying.setdefault(server, []).append(root)
        for server, cap in enumerate(capacities):
            ideal = mu * cap
            if loads[server] <= ideal * (1 + self.imbalance_tolerance):
                continue
            excess = loads[server] - ideal
            descending = sorted(
                carrying.get(server, ()),
                key=lambda r: (-r.popularity, r.node_id),
            )
            oversized = None
            offered_any = False
            for root in descending:
                if excess <= 0:
                    break
                popularity = root.popularity
                if popularity > excess:
                    oversized = root
                    continue
                pool.offer(root, server, popularity)
                loads[server] -= popularity
                excess -= popularity
                offered_any = True
            if not offered_any and oversized is not None:
                # Every load-carrying root overshoots the ideal load: offer
                # the smallest of them, so a server holding a single giant
                # subtree still makes progress.
                pool.offer(oversized, server, oversized.popularity)
                loads[server] -= oversized.popularity
        report.offered = len(pool)
        if len(pool) == 0:
            return report

        # Claim phase: every live server below its ideal load absorbs the
        # pool in proportion to its remaining deficit (mirror division over
        # deficits, Sec. IV-B). A dead server or one at or above its ideal
        # load never claims.
        claimants = []
        deficits = []
        for server, cap in enumerate(capacities):
            deficit = mu * cap - loads[server]
            if cap > cap_floor and deficit > 0:
                claimants.append(server)
                deficits.append(deficit)
        entries = pool.take_all()
        if not claimants:
            # Nobody is below its ideal; subtrees stay with their sources.
            return report
        negligible = NEGLIGIBLE_SHARE * mu
        allocation = mirror_division([e.popularity for e in entries], deficits)
        for entry, claimed in zip(entries, allocation.assignment):
            target = claimants[claimed]
            if target != entry.source_server:
                subtree_owner[entry.subtree_root] = target
                report.migrations.append((entry.subtree_root, entry.source_server, target))
                report.moved_popularity += entry.popularity
                if entry.popularity < negligible:
                    report.negligible_moves += 1
        return report
