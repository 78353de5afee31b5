"""Route planning: how a client request finds its servers.

:class:`FastRoutingEngine` produces the
:class:`~repro.cluster.messages.RoutePlan` for every operation. A node is a dense integer id, so every memo is a column sized
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

Plans are **interned**: every plan whose visits are fixed by a server
sequence alone is one shared object per engine — the single-SERVE plan of
each server, and the two-visit ENTRY→SERVE and REDIRECT→SERVE plans of a
cold or stale D2 index entry, one per ``(first server, owner, kind)``. A
returned plan is therefore read-only to every consumer: interned plans
carry their visits as a tuple so an accidental write raises, and all plans
share one empty ``fanout`` list. Only a global-layer UPDATE (``lock_key``
the node id, replica fan-out) and a multi-visit generic walk are built
per operation.

Owner-index invalidation is versioned, not subscribed:

* ``Placement.version`` — bumped on every assignment mutation; guards the
  generic planner's node→primary cache.
* ``D2TreePlacement.index_version`` — bumped only when two-layer
  *membership* changes (promotion / demotion inside
  :class:`~repro.core.adjustment.DynamicAdjuster` rounds, new roots from
  ``place_created``; a ``Placement.fail`` re-home or a ``rejoin`` pull-back
  goes through :meth:`FastRoutingEngine.invalidate` instead); guards the D2
  planner's node→subtree-root cache and global-layer bitset. Plain
  migrations keep the root set intact, so the root cache survives
  adjustment churn — owners are always read live from the placement.
* The tree's node count — guards the
  :class:`~repro.core.namespace.NodeArena` the columns are sized from
  (the tree only grows, so a larger count is the one structural change).

The simulator additionally calls :meth:`FastRoutingEngine.invalidate`
whenever the control plane evicts or re-admits a server
(``ClusterSimulator._placement_moved``) as a belt-and-braces flush: recovery rewrites placement wholesale, and a full
re-derive there costs one miss per touched node.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.cluster.client import SimClient
from repro.cluster.messages import RoutePlan, Visit, VisitKind
from repro.core.namespace import NamespaceTree
from repro.core.partition import D2TreePlacement
from repro.placement import Placement
from repro.traces.trace import OpType

__all__ = ["FastRoutingEngine", "make_engine"]

#: Shared by every plan without a fan-out: consumers only iterate or
#: replace ``fanout``, never mutate it in place, so one
#: immutable-by-convention empty list avoids an allocation per plan.
_EMPTY_FANOUT: List[int] = []

#: Module-local aliases: the planners read these per op and a global
#: enum-member load is cheaper than attribute access on the enum class.
_UPDATE = OpType.UPDATE
_ENTRY = VisitKind.ENTRY
_TRAVERSAL = VisitKind.TRAVERSAL
_REDIRECT = VisitKind.REDIRECT
_SERVE = VisitKind.SERVE

#: ``_visit((server, kind))`` is ``Visit(server, kind)`` without the
#: NamedTuple's Python-level ``__new__``: the generic walk builds one per
#: hop.
_visit = partial(tuple.__new__, Visit)


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
        #: The interned plans (module docstring): the single-SERVE plan per
        #: server, and the two-visit plans by ``(first, owner)``, one table
        #: per first-visit kind (an enum in a key would hash in Python).
        #: None depends on the placement, so none is ever flushed.
        self._serve_plans: List[RoutePlan] = []
        self._entry_plans: Dict[Tuple[int, int], RoutePlan] = {}
        self._redirect_plans: Dict[Tuple[int, int], RoutePlan] = {}
        self.invalidate()

    @property
    def _planner(self):
        """The scheme's planner, bound per read: stored, it would be a
        reference cycle through the engine (and so the tree)."""
        return self._plan_d2 if self._is_d2 else self._plan_generic

    def invalidate(self) -> None:
        """Start every memo column cold against the tree's current arena
        (failure re-home / rejoin hook; nodes registered since). One slot
        per node id."""
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
            plans.append(RoutePlan((Visit(len(plans), _SERVE),), _EMPTY_FANOUT))
        return plans[server]

    def _pair_plan(self, plans: Dict, first: int, owner: int, kind: VisitKind) -> RoutePlan:
        """Intern the ``kind(first) -> SERVE(owner)`` plan in ``plans``."""
        plan = RoutePlan((Visit(first, kind), Visit(owner, _SERVE)), _EMPTY_FANOUT)
        plans[first, owner] = plan
        return plan

    def plan(self, client: SimClient, node, op: OpType) -> RoutePlan:
        """Resolve which servers an operation touches."""
        if self.arena.size != len(self.tree):
            self.invalidate()
        return self._planner(client, node, op)

    def plan_batch(self, ops) -> List[RoutePlan]:
        """Plan a window of ``(client, node, op)`` triples, in order.

        Exactly equivalent to calling :meth:`plan` per triple — same cache
        mutations, same RNG draws, same plans — with the staleness check
        and planner dispatch hoisted out of the loop. Only perfbench's plan
        replay and the routing tests call it; the simulator plans per op.
        """
        if self.arena.size != len(self.tree):
            self.invalidate()
        planner = self._planner
        return [planner(client, node, op) for client, node, op in ops]

    # ------------------------------------------------------------------
    def _refresh_membership(self) -> None:
        """Rebuild the global-layer bitset; drop the root cache with it."""
        placement = self.placement
        size = self.arena.size
        bits = bytearray(size)
        for mid in placement.split.global_layer:
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
        last_child = self.arena.last_child
        ids = []
        for nid in nodes:
            if bits[nid]:
                ids.append(-1 if last_child[nid] >= 0 else nid)
            else:
                rid = roots[nid]
                ids.append(rid if rid >= 0 else placement.subtree_root_of(nid))
        return ids

    def _plan_d2(self, client: SimClient, nid: int, op: OpType) -> RoutePlan:
        placement = self.placement
        if self._membership_version != placement.index_version:
            self._refresh_membership()
        version = placement.version
        serve_plans = self._serve_plans
        if self._global_bits[nid]:
            if self._replica_stamp[nid] == version:
                replicas = self._replicas[nid]
            else:
                replicas = placement._servers_of[nid]
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
            return RoutePlan(
                [Visit(entry, _SERVE)],
                [s for s in replicas if s != entry],
                nid,
            )
        rid = self._root_id[nid]
        if rid >= 0:
            self.hits += 1
        else:
            self.misses += 1
            rid = placement.subtree_root_of(nid)
            self._root_id[nid] = rid
        # Ownership is never read through a stale entry: migrations bump
        # placement.version, which invalidates the stamped owner below.
        if self._primary_stamp[rid] == version:
            owner = self._primary[rid]
        else:
            owner = placement._servers_of[rid][0]
            self._primary[rid] = owner
            self._primary_stamp[rid] = version
        # The client's local index is an LRUCache's recency-ordered dict:
        # popping a key and storing it again is the touch (see
        # repro.cluster.cache), and the store also re-learns the owner.
        cache = client.index_cache
        data = cache._data
        cached = data.pop(rid, None)
        if cached is not None:
            data[rid] = owner
            cache.hits += 1
            if cached == owner:
                # Warm path: the client's local index is current.
                try:
                    return serve_plans[owner]
                except IndexError:
                    return self._serve_plan(owner)
            # Stale local index (the subtree migrated): redirect costs a hop.
            first, kind, plans = cached, _REDIRECT, self._redirect_plans
        else:
            cache.misses += 1
            # Cold local index: a random entry server, drawn by the same
            # inlined rejection loop as SimClient.pick_any_server (the same
            # bits, in the same order, from the client RNG stream).
            n = client.num_servers
            getrandbits = client._getrandbits
            k = n.bit_length()
            first = getrandbits(k)
            while first >= n:
                first = getrandbits(k)
            kind, plans = _ENTRY, self._entry_plans
            data[rid] = owner
            if len(data) > cache.capacity:
                del data[next(iter(data))]
        if first == owner:  # a cold entry that drew the owner itself
            try:
                return serve_plans[owner]
            except IndexError:
                return self._serve_plan(owner)
        try:
            return plans[first, owner]
        except KeyError:
            return self._pair_plan(plans, first, owner, kind)

    def _plan_generic(self, client: SimClient, nid: int, op: OpType) -> RoutePlan:
        placement = self.placement
        version = placement.version
        servers_of = placement._servers_of
        primary = self._primary
        stamp = self._primary_stamp
        cache = client.prefix_cache
        data = cache._data
        # Owner-index lookup for the target itself: O(1) while the
        # placement is unchanged, authoritative refill otherwise.
        if stamp[nid] == version:
            self.hits += 1
            target = primary[nid]
        else:
            self.misses += 1
            target = servers_of[nid][0]
            primary[nid] = target
            stamp[nid] = version
        # Prefix-cache touches pop and store again, as in _plan_d2. A stale
        # target is re-learned here, at MRU ahead of its ancestors; the walk
        # may still evict it in a small cache, hence the store after it.
        cached = data.pop(nid, None)
        if cached is not None:
            data[nid] = target
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
        visits = []
        last = -1
        redirected = False
        if cached is not None:
            visits.append(_visit((cached, _REDIRECT)))
            last = cached
            redirected = True
        chain = self.arena.chain(nid)  # ancestor ids, root first
        # Hits of both counters are summed here and written once per plan;
        # every ancestor is one lookup of each, so misses are the rest.
        index_hits = prefix_hits = 0
        for aid in chain:
            if stamp[aid] == version:
                index_hits += 1
                server = primary[aid]
            else:
                server = servers_of[aid][0]
                primary[aid] = server
                stamp[aid] = version
            acached = data.pop(aid, None)
            data[aid] = server
            if acached is not None:
                prefix_hits += 1
                if acached == server:
                    continue
                if acached != last and not redirected:
                    visits.append(_visit((acached, _REDIRECT)))
                    last = acached
                    redirected = True
            elif len(data) > capacity:
                del data[next(iter(data))]
            if server != last:
                visits.append(_visit((server, _TRAVERSAL)))
                last = server
        walked = len(chain)
        self.hits += index_hits
        self.misses += walked - index_hits
        cache.hits += prefix_hits
        cache.misses += walked - prefix_hits
        data[nid] = target
        if len(data) > capacity:
            del data[next(iter(data))]
        # ``last`` is the server of the final visit (-1: no visit yet).
        if target != last and visits:
            visits.append(_visit((target, _SERVE)))
        elif target == last and len(visits) > 1:
            visits[-1] = _visit((target, _SERVE))
        else:
            # The walk ends on one server: the interned serve plan.
            try:
                return self._serve_plans[target]
            except IndexError:
                return self._serve_plan(target)
        return RoutePlan(visits, _EMPTY_FANOUT)
