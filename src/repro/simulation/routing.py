"""Route planning: how a client request finds its servers.

:class:`FastRoutingEngine` produces the
:class:`~repro.cluster.messages.RoutePlan` for every operation. Nodes carry dense integer ids, so every memo is a column sized
by the id space of the tree's one snapshot
(:class:`~repro.core.namespace.NodeArena`, which also shares the cached
ancestor-chain tuples), and an incremental **owner index** memoises the two
placement questions route planning asks per op: which local-layer subtree
root covers a node (D2), and which server is a node's primary (every other
scheme).

D2-Tree placements route by the paper's one rule (Sec. IV-A2): a
global-layer node is served by any replica, everything else goes straight
to the subtree owner through the client's cached inter-node index (a stale
entry costs one redirect hop, a cold one a random entry server). The
generic (non-D2) planner is a POSIX ancestor traversal with client-side
prefix caching, short-circuited on the warm path: a client that recently
verified a node and whose entry is still current goes straight to the
owner in O(1). Plans are deterministic; the D2 decisions are frozen
by ``tests/golden/perfect_network_d2.json``, captured from the string-keyed
per-op planner this engine replaced.

Owner-index invalidation is versioned, not subscribed:

* ``Placement.version`` — bumped on every assignment mutation; guards the
  generic planner's node→primary cache.
* ``D2TreePlacement.index_version`` — bumped only when two-layer
  *membership* changes (promotion / demotion inside
  :class:`~repro.core.adjustment.DynamicAdjuster` rounds, re-homing in
  ``fail_server``, new roots from ``place_created``); guards the D2
  planner's node→subtree-root cache and global-layer bitset. Plain
  migrations keep the root set intact, so the root cache survives
  adjustment churn — owners are always read live from the placement.
* ``NamespaceTree.structure_version`` — guards the
  :class:`~repro.core.namespace.NodeArena` the columns are sized from.

The simulator additionally calls :meth:`FastRoutingEngine.invalidate`
whenever the control plane evicts or re-admits a server
(``ClusterSimulator._placement_moved``) as a belt-and-braces flush: recovery rewrites placement wholesale, and a full
re-derive there costs one miss per touched node.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.client import SimClient
from repro.cluster.messages import RoutePlan, Visit, VisitKind
from repro.core.namespace import NamespaceTree
from repro.core.partition import D2TreePlacement
from repro.placement import Placement
from repro.traces.trace import OpType

__all__ = ["FastRoutingEngine", "make_engine"]

#: Shared by warm-path plans: consumers only iterate or replace ``fanout``,
#: never mutate it in place, so one immutable-by-convention empty list
#: avoids an allocation per plan.
_EMPTY_FANOUT: List[int] = []

#: Module-local alias: the planners test this once per op and a global
#: enum-member load is cheaper than attribute access on the enum class.
_UPDATE = OpType.UPDATE


def make_engine(name: str, tree: NamespaceTree, placement: Placement):
    """Build the routing engine called ``name`` (only ``"fast"`` exists)."""
    if name == "fast":
        return FastRoutingEngine(tree, placement)
    raise ValueError(f"unknown routing engine {name!r} (use 'fast')")


class FastRoutingEngine:
    """Id-keyed planner with an incremental owner index.

    Per-op work never splits or hashes a pathname: nodes carry dense integer
    ids, ancestor chains come from the tree's shared
    :class:`~repro.core.namespace.NodeArena`, and client caches are keyed
    by id. The owner index memoises

    * ``_root_id[nid]`` — the covering local-layer subtree root (D2 layout),
      valid while ``placement.index_version`` is unchanged;
    * ``_global_bits[nid]`` — global-layer membership bitset, same validity;
    * ``_primary[nid]`` / ``_primary_stamp[nid]`` — a node's primary server,
      valid while ``_primary_stamp[nid] == placement.version``.

    ``hits`` / ``misses`` count owner-index lookups (a miss falls back to
    the authoritative placement walk and refills the entry) and feed the
    ``owner_index_hit_rate`` telemetry gauge — deterministic, since they
    depend only on the operation sequence.
    """

    def __init__(self, tree: NamespaceTree, placement: Placement) -> None:
        self.tree = tree
        self.placement = placement
        self._is_d2 = isinstance(placement, D2TreePlacement)
        self.hits = 0
        self.misses = 0
        #: Plans are read-only once returned (the runner and tests only
        #: inspect them), so the warm path hands out one shared
        #: single-SERVE plan per server instead of allocating a plan, a
        #: visit list and a Visit tuple per operation.
        self._serve_plans: List[RoutePlan] = []
        self.invalidate()
        #: The scheme-appropriate planner; :meth:`plan` and
        #: :meth:`plan_batch` both delegate here after the staleness check.
        self._planner = self._plan_d2 if self._is_d2 else self._plan_generic

    def invalidate(self) -> None:
        """Start every memo column cold against the tree's current snapshot
        (failure re-home / rejoin hook; a structural mutation — rename, move,
        remove, late registration). One slot per node id: the arena's id
        space, where a retired slot is kept and never asked for."""
        self.arena = self.tree.arena()
        size = self.arena.size
        #: node id -> covering subtree root id; -1 = not cached yet.
        self._root_id: List[int] = [-1] * size
        self._global_bits = bytearray(size)
        self._membership_version = -1  # forces a refresh on first D2 plan
        #: Generic: node id -> primary server. D2: root id -> subtree owner.
        self._primary: List[int] = [0] * size
        #: placement.version when the primary entry was filled; -1 = never.
        self._primary_stamp: List[int] = [-1] * size
        #: Global-layer node id -> replica tuple, same stamping discipline
        #: (replicate() bumps placement.version, e.g. when a grown cluster
        #: extends a fully-replicated layer onto the newcomer).
        self._replicas: List[Optional[Tuple[int, ...]]] = [None] * size
        self._replica_stamp: List[int] = [-1] * size

    @property
    def hit_rate(self) -> float:
        """Fraction of owner-index lookups served without a placement walk."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _serve_plan(self, server: int) -> RoutePlan:
        """The interned single-SERVE plan for ``server`` (grown on demand)."""
        plans = self._serve_plans
        while server >= len(plans):
            plan = RoutePlan.__new__(RoutePlan)
            plan.visits = [Visit(len(plans), VisitKind.SERVE)]
            plan.fanout = _EMPTY_FANOUT
            plan.lock_key = ""
            plans.append(plan)
        return plans[server]

    def plan(self, client: SimClient, node, op: OpType) -> RoutePlan:
        """Resolve which servers an operation touches."""
        if self.arena.version != self.tree.structure_version:
            self.invalidate()
        return self._planner(client, node, op)

    def plan_batch(self, ops) -> List[RoutePlan]:
        """Plan a window of ``(client, node, op)`` triples, in order.

        Exactly equivalent to calling :meth:`plan` per triple — same cache
        mutations, same RNG draws, same plans — with the staleness check
        and planner dispatch hoisted out of the loop. This is the form the
        batched dispatcher amortises per window.
        """
        if self.arena.version != self.tree.structure_version:
            self.invalidate()
        planner = self._planner
        return [planner(client, node, op) for client, node, op in ops]

    # ------------------------------------------------------------------
    def _refresh_membership(self) -> None:
        """Rebuild the global-layer bitset; drop the root cache with it."""
        placement = self.placement
        size = self.arena.size
        bits = bytearray(size)
        for member in placement.split.global_layer:
            mid = member.node_id
            if mid < size:
                bits[mid] = 1
        self._global_bits = bits
        self._root_id = [-1] * size
        self._membership_version = placement.index_version

    def counter_ids(self, nodes) -> List[int]:
        """Per placed node, the id of the D2 counted node
        (``D2TreePlacement.counted_nodes``) whose Def. 2 total includes it:
        its subtree root, itself if a childless global-layer node, else -1.

        Reads the planner's memo and walks the placement where it has no
        entry; it never fills one, so a run's hit and miss counts do not
        depend on who else asked.
        """
        placement = self.placement
        if self._membership_version != placement.index_version:
            self._refresh_membership()  # as the next plan would have
        bits, roots = self._global_bits, self._root_id
        ids = []
        for node in nodes:
            nid = node.node_id
            if bits[nid]:
                ids.append(-1 if node.children else nid)
            else:
                rid = roots[nid]
                ids.append(rid if rid >= 0 else placement.subtree_root_of(node).node_id)
        return ids

    def _plan_d2(self, client: SimClient, node, op: OpType) -> RoutePlan:
        placement = self.placement
        if self._membership_version != placement.index_version:
            self._refresh_membership()
        nid = node.node_id
        version = placement.version
        serve_plans = self._serve_plans
        if self._global_bits[nid]:
            if self._replica_stamp[nid] == version:
                replicas = self._replicas[nid]
            else:
                replicas = placement._servers_of[node]
                self._replicas[nid] = replicas
                self._replica_stamp[nid] = version
            # A uniform pick among the replicas, inlined down to the
            # getrandbits rejection loop — the exact algorithm
            # SimClient.randbelow (and Random.randrange internally) runs,
            # so this consumes the same draws from the client RNG stream,
            # without a Python call on the hottest branch of the planner.
            n = len(replicas)
            getrandbits = client._getrandbits
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            entry = replicas[r]
            if op is not _UPDATE:
                try:
                    return serve_plans[entry]
                except IndexError:
                    return self._serve_plan(entry)
            plan = RoutePlan()
            plan.visits.append(Visit(entry, VisitKind.SERVE))
            plan.lock_key = node.path
            plan.fanout = [s for s in replicas if s != entry]
            return plan
        rid = self._root_id[nid]
        if rid >= 0:
            self.hits += 1
        else:
            self.misses += 1
            rid = placement.subtree_root_of(node).node_id
            self._root_id[nid] = rid
        # Ownership is never read through a stale entry: migrations bump
        # placement.version, which invalidates the stamped owner below.
        if self._primary_stamp[rid] == version:
            owner = self._primary[rid]
        else:
            owner = placement._servers_of[self.tree._nodes[rid]][0]
            self._primary[rid] = owner
            self._primary_stamp[rid] = version
        cache = client.index_cache
        data = cache._data
        cached = data.get(rid)
        if cached is not None:
            data.move_to_end(rid)
            cache.hits += 1
            if cached == owner:
                # Warm path: the client's local index is current. Re-caching
                # the unchanged owner would be a no-op, so skip it.
                try:
                    return serve_plans[owner]
                except IndexError:
                    return self._serve_plan(owner)
        else:
            cache.misses += 1
        plan = RoutePlan()
        visits = plan.visits
        if cached is not None:
            # Stale local index (the subtree migrated): redirect costs a hop.
            visits.append(Visit(cached, VisitKind.REDIRECT))
            visits.append(Visit(owner, VisitKind.SERVE))
        else:
            entry = client.pick_any_server()
            if entry != owner:
                visits.append(Visit(entry, VisitKind.ENTRY))
            visits.append(Visit(owner, VisitKind.SERVE))
        # Cache the owner (rid already at MRU position when present).
        data[rid] = owner
        if len(data) > cache.capacity:
            data.popitem(last=False)
        return plan

    def _plan_generic(self, client: SimClient, node, op: OpType) -> RoutePlan:
        placement = self.placement
        version = placement.version
        servers_of = placement._servers_of
        primary = self._primary
        stamp = self._primary_stamp
        cache = client.prefix_cache
        data = cache._data
        nid = node.node_id
        # Owner-index lookup for the target itself: O(1) while the
        # placement is unchanged, authoritative refill otherwise.
        if stamp[nid] == version:
            self.hits += 1
            target = primary[nid]
        else:
            self.misses += 1
            target = servers_of[node][0]
            primary[nid] = target
            stamp[nid] = version
        cached = data.get(nid)
        if cached is not None:
            data.move_to_end(nid)
            cache.hits += 1
            if cached == target:
                # Warm path: this client verified the node recently and it
                # has not migrated — straight to the owner, no ancestor
                # walk.
                try:
                    return self._serve_plans[target]
                except IndexError:
                    return self._serve_plan(target)
        else:
            cache.misses += 1
        # Cold or stale: POSIX traversal over the shared ancestor chain,
        # verifying each prefix and re-learning where it lives. A stale
        # entry (the node migrated since it was cached) costs one redirect
        # hop — the redirected server then walks the rest authoritatively.
        capacity = cache.capacity
        plan = RoutePlan()
        visits = plan.visits
        last = -1
        redirected = False
        if cached is not None:
            visits.append(Visit(cached, VisitKind.REDIRECT))
            last = cached
            redirected = True
        for ancestor in self.arena.chain(node):
            aid = ancestor.node_id
            if stamp[aid] == version:
                self.hits += 1
                server = primary[aid]
            else:
                self.misses += 1
                server = servers_of[ancestor][0]
                primary[aid] = server
                stamp[aid] = version
            acached = data.get(aid)
            if acached is not None:
                data.move_to_end(aid)
                cache.hits += 1
                if acached == server:
                    continue
            else:
                cache.misses += 1
                acached = -1
            if acached >= 0 and acached != last and not redirected:
                visits.append(Visit(acached, VisitKind.REDIRECT))
                last = acached
                redirected = True
            data[aid] = server
            if len(data) > capacity:
                data.popitem(last=False)
            if server != last:
                visits.append(Visit(server, VisitKind.TRAVERSAL))
                last = server
        data[nid] = target
        if len(data) > capacity:
            data.popitem(last=False)
        if target != last or not visits:
            visits.append(Visit(target, VisitKind.SERVE))
        else:
            visits[-1] = Visit(target, VisitKind.SERVE)
        return plan
