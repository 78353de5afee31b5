"""The D2-Tree scheme: Tree-Splitting + Subtree-Allocation + Dynamic-Adjustment.

This is the primary public entry point of the reproduction. A scheme object
is configured once (global-layer sizing, allocation mode, adjustment policy)
and can then partition any namespace tree onto any cluster size, exactly like
the system evaluated in Section VI.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.placement import MetadataScheme, Migration
from repro.registry import register
from repro.core.adjustment import AdjustmentReport, DynamicAdjuster
from repro.core.allocation import allocate_subtrees
from repro.core.namespace import NamespaceTree
from repro.core.partition import D2TreePlacement
from repro.core.splitting import SplitResult, split_by_proportion, tree_split
from repro.numeric import ordered_sum

__all__ = ["D2TreeScheme"]


@register("d2-tree")
class D2TreeScheme(MetadataScheme):
    """Distributed double-layer namespace tree partitioning (the paper's D2-Tree).

    Parameters
    ----------
    global_layer_fraction:
        Fraction of namespace nodes to place in the replicated global layer.
        The paper's default is ``0.01`` (Sec. VI-C). Mutually exclusive with
        explicit thresholds.
    locality_threshold, update_threshold:
        Explicit ``(L0, U0)`` bounds for Algorithm 1. When provided, the
        faithful constrained split is used instead of the proportion target;
        an infeasible pair raises ``ValueError`` (Alg. 1's ``return {}``).
    sampled_allocation:
        When True, subtree allocation uses per-server random-walk-sampled
        CDFs (Sec. V) instead of the exact mirror division.
    samples_per_server:
        Sample count for the sampled allocator.
    imbalance_tolerance:
        Dead zone for the dynamic adjuster (see :class:`DynamicAdjuster`).
    promote_threshold:
        During rebalance, a local-layer subtree whose popularity exceeds
        ``promote_threshold × (local popularity / servers)`` is promoted into
        the global layer — its root gets replicated and its children become
        finer subtrees (Sec. IV-A: the design "allows the system to
        dynamically move the metadata node from the local layer to the
        global layer"). Set to 0 to disable promotion.
    max_promotions_per_round:
        Caps global-layer growth per rebalance call.
    demote_threshold:
        When positive, a *childless* global-layer node whose popularity fell
        below ``demote_threshold ×`` the promotion cutoff is moved back into
        the local layer during rebalance (the "vice versa" direction of
        Sec. IV-A). Disabled by default: per-heartbeat demotion churns the
        layer under drift, and the paper performs shrinking only in the
        infrequent global-layer re-evaluation (see
        :meth:`refresh_global_layer`).
    replication_factor:
        Number of servers holding each global-layer node. ``None`` (default)
        replicates to the whole cluster as the paper evaluates; a bounded
        value implements the Discussion's "threshold to control the number
        of replications of global layer".
    seed:
        Seed for the sampling RNG; fixed by default for reproducibility.
    """

    name = "d2-tree"

    def __init__(
        self,
        global_layer_fraction: float = 0.01,
        locality_threshold: Optional[float] = None,
        update_threshold: Optional[float] = None,
        sampled_allocation: bool = False,
        samples_per_server: int = 64,
        imbalance_tolerance: float = 0.1,
        promote_threshold: float = 0.5,
        max_promotions_per_round: int = 4,
        demote_threshold: float = 0.0,
        max_demotions_per_round: int = 8,
        replication_factor: Optional[int] = None,
        seed: int = 17,
    ) -> None:
        explicit = locality_threshold is not None or update_threshold is not None
        if explicit and (locality_threshold is None or update_threshold is None):
            raise ValueError("locality_threshold and update_threshold go together")
        if not explicit and not 0 < global_layer_fraction <= 1:
            raise ValueError("global_layer_fraction must be in (0, 1]")
        self.global_layer_fraction = global_layer_fraction
        self.locality_threshold = locality_threshold
        self.update_threshold = update_threshold
        self.sampled_allocation = sampled_allocation
        self.samples_per_server = samples_per_server
        self.adjuster = DynamicAdjuster(imbalance_tolerance=imbalance_tolerance)
        #: The :class:`AdjustmentReport` of the latest :meth:`rebalance`
        #: (what was offered, moved and how unbalanced the round found the
        #: cluster), for whoever records the round.
        self.last_adjustment: Optional[AdjustmentReport] = None
        if promote_threshold < 0:
            raise ValueError("promote_threshold must be non-negative")
        self.promote_threshold = promote_threshold
        self.max_promotions_per_round = max_promotions_per_round
        if demote_threshold < 0:
            raise ValueError("demote_threshold must be non-negative")
        self.demote_threshold = demote_threshold
        self.max_demotions_per_round = max_demotions_per_round
        if replication_factor is not None and replication_factor < 1:
            raise ValueError("replication_factor must be at least 1")
        self.replication_factor = replication_factor
        self.seed = seed
        self._rng = random.Random(seed)

    def params(self) -> Dict[str, object]:
        """Exact construction record (two knobs live on sub-objects)."""
        out = super().params()
        out["imbalance_tolerance"] = self.adjuster.imbalance_tolerance
        return out

    # ------------------------------------------------------------------
    def split(self, tree: NamespaceTree) -> SplitResult:
        """Phase 1 — Tree-Splitting (Alg. 1 or the proportion-targeted form)."""
        if self.locality_threshold is not None and self.update_threshold is not None:
            result = tree_split(tree, self.locality_threshold, self.update_threshold)
            if not result.feasible:
                raise ValueError(
                    "tree split infeasible: update budget "
                    f"U0={self.update_threshold} exhausted with local popularity "
                    f"{result.local_popularity:.4g} > L0={self.locality_threshold}"
                )
            return result
        return split_by_proportion(tree, self.global_layer_fraction)

    def partition(
        self,
        tree: NamespaceTree,
        num_servers: int,
        capacities: Optional[Sequence[float]] = None,
    ) -> D2TreePlacement:
        """Phases 1+2 — split the tree and mirror-divide the subtrees."""
        if num_servers < 1:
            raise ValueError("need at least one server")
        tree.ensure_popularity()
        split = self.split(tree)
        replication = self.replication_factor
        if replication is not None:
            replication = min(replication, num_servers)
        placement = D2TreePlacement(
            tree, num_servers, split, capacities, replication_factor=replication
        )
        placement.place_global_layer()
        if split.subtree_roots:
            allocation = allocate_subtrees(
                split.subtree_roots,
                tree.popularity,
                placement.capacities,
                sampled=self.sampled_allocation,
                samples_per_server=self.samples_per_server,
                rng=self._rng,
            )
            placement.place_subtrees(allocation.by_root)
        placement.validate_complete(tree)
        return placement

    # ------------------------------------------------------------------
    def place_created(
        self,
        tree: NamespaceTree,
        placement: D2TreePlacement,  # type: ignore[override]
        node,
    ) -> int:
        """A new node joins its enclosing subtree; children of inter nodes
        open a fresh subtree on the lightest server."""
        walk = placement.subtree_root_of(tree.parent(node))
        if walk is not None:
            server = placement.subtree_owner[walk]
            placement.assign(node, server)
            return server
        # Parent chain reaches the global layer: the newcomer roots a new
        # local-layer subtree on the least locally-loaded server.
        server = placement.lightest(placement.local_loads())
        if tree.estimate is not None:
            # Mid-replay the attribute is as old as the last whole-tree
            # pass: a node that starts carrying a counter asks the estimate.
            tree.popularity[node] = tree.estimate.subtree_total(node)
        placement.subtree_owner[node] = server
        placement.split.subtree_roots.append(node)
        placement.index_version += 1
        placement.assign(node, server)
        return server

    # ------------------------------------------------------------------
    def rebalance(
        self,
        tree: NamespaceTree,
        placement: D2TreePlacement,  # type: ignore[override]
    ) -> List[Migration]:
        """Phase 3 — one heartbeat-driven Dynamic-Adjustment round."""
        tree.ensure_popularity()
        self._promote_oversized(tree, placement)
        self._demote_cooled(tree, placement)
        report = self.adjuster.adjust(
            placement.subtree_owner,
            placement.local_loads(),
            placement.capacities,
            tree.popularity,
        )
        self.last_adjustment = report
        migrations = []
        for root, source, target in report.migrations:
            placement.move_subtree(root, target)
            migrations.append(Migration(root, source, target))
        return migrations

    def _promote_oversized(self, tree: NamespaceTree, placement: D2TreePlacement) -> int:
        """Move flow-control subtree roots into the global layer.

        A subtree bigger than ``promote_threshold`` of the ideal per-server
        local load can never be balanced by whole-subtree moves; promoting
        its root replicates the hot node and splits the remainder into finer
        subtrees that mirror division can spread. Its children become
        roots: the one step of a round that reads below the counted nodes,
        so the one that asks a replay for the whole-tree pass.
        """
        if self.promote_threshold <= 0 or not placement.subtree_owner:
            return 0
        popularity = tree.popularity
        total_local = ordered_sum(map(popularity.__getitem__, placement.subtree_owner))
        cutoff = self.promote_threshold * total_local / placement.num_servers
        if cutoff <= 0:
            return 0
        promoted = 0
        while promoted < self.max_promotions_per_round:
            # Leaf subtree roots qualify too: replicating a single hot file
            # is exactly how D2-Tree disperses a flow-control node.
            oversized = [
                root
                for root in placement.subtree_owner
                if popularity[root] > cutoff
            ]
            if not oversized:
                break
            if tree.estimate is not None:
                tree.estimate.materialise()
            oversized.sort(key=lambda r: (-popularity[r], r))
            promoted += 1
            # Descend the hot chain in one promotion event: when the mass
            # sits on a single deep path (a directory chain), every link
            # must join the global layer before the remainder can spread.
            chain = [oversized[0]]
            while chain:
                root = chain.pop()
                if root in placement.subtree_owner and popularity[root] > cutoff:
                    chain.extend(placement.promote_subtree(root))
        return promoted

    def _demote_cooled(self, tree: NamespaceTree, placement: D2TreePlacement) -> int:
        """Return cooled-off childless global nodes to the local layer.

        Keeps the global layer from growing monotonically under drift: a hot
        file that was promoted yesterday and has gone cold stops paying
        replication update costs and rejoins the local layer on the least
        locally-loaded server.
        """
        if self.demote_threshold <= 0:
            return 0
        popularity = tree.popularity
        total_local = ordered_sum(map(popularity.__getitem__, placement.subtree_owner))
        if total_local <= 0:
            return 0
        promote_cutoff = (
            self.promote_threshold * total_local / placement.num_servers
            if self.promote_threshold > 0
            else total_local / placement.num_servers
        )
        cutoff = self.demote_threshold * promote_cutoff
        last_child = tree.arena().last_child
        cooled = [
            node
            for node in placement.split.global_layer
            if last_child[node] < 0
            and node != tree.root
            and popularity[node] < cutoff
        ]
        if not cooled:
            return 0
        cooled.sort(key=lambda n: (popularity[n], n))
        loads = placement.local_loads()
        demoted = 0
        for node in cooled[: self.max_demotions_per_round]:
            target = placement.lightest(loads)
            placement.demote_global_node(node, target)
            loads[target] += popularity[node]
            demoted += 1
        return demoted

    def refresh_global_layer(
        self,
        tree: NamespaceTree,
        placement: D2TreePlacement,
    ) -> D2TreePlacement:
        """The infrequent ("once a day") global-layer re-evaluation.

        Re-splits the tree with fresh popularity and rebuilds the placement,
        keeping surviving subtrees on their current servers to minimise
        migration.
        """
        tree.ensure_popularity()
        new_split = self.split(tree)
        new_placement = D2TreePlacement(
            tree, placement.num_servers, new_split, placement.capacities
        )
        new_placement.place_global_layer()
        stay, fresh = {}, []
        for root in new_split.subtree_roots:
            owner = placement.subtree_owner.get(placement.subtree_root_of(root))
            if owner is not None:
                stay[root] = owner
            else:
                fresh.append(root)
        new_placement.place_subtrees(stay)
        if fresh:
            # Remaining capacity per server: its capacity-proportional share
            # of the total local-layer popularity minus what it already holds.
            loads = new_placement.local_loads()
            total_pop = ordered_sum(loads) + ordered_sum(map(tree.popularity.__getitem__, fresh))
            total_cap = ordered_sum(new_placement.capacities)
            remaining = [
                max(total_pop * cap / total_cap - load, 1e-12)
                for cap, load in zip(new_placement.capacities, loads)
            ]
            allocation = allocate_subtrees(fresh, tree.popularity, remaining, rng=self._rng)
            new_placement.place_subtrees(allocation.by_root)
        new_placement.validate_complete(tree)
        return new_placement
