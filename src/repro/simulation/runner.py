"""Trace-replay harness: the experiments of Section VI.

Two replay modes:

* :class:`ClusterSimulator` — full closed-loop replay against the simulated
  cluster (servers, clients, caches, locks, Monitor). Produces throughput /
  latency, regenerating Fig. 5.
* :func:`replay_rounds` — the Fig. 7 methodology: the trace is split into
  rounds, each round's served load is measured under the placement adapted to
  the *previous* rounds, then schemes rebalance. "After the subtraces are
  replayed ... a relatively balanced status is maintained."

Both read the one materialized :class:`~repro.traces.trace.Trace` and keep
the popularity estimate in the one
:class:`~repro.core.namespace.PopularityEstimate`.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.placement import MetadataScheme, Placement
from repro.baselines.dynamic_subtree import DynamicSubtreePlacement
from repro.baselines.hashing import stable_hash
from repro.cluster.client import SimClient
from repro.cluster.control import ClusterControl
from repro.cluster.locks import LockManager
from repro.cluster.mds import MetadataServer
from repro.cluster.messages import Heartbeat, RoutePlan, VisitKind
from repro.cluster.monitor import MonitorGroup
from repro.core.namespace import PopularityEstimate
from repro.core.partition import D2TreePlacement
from repro.metrics.balance import balance_degree
from repro.cluster.cache import LRUCache
from repro.obs.sampler import GaugeSampler
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.simulation.faults import FaultPlan
from repro.simulation.network import CLIENT_ADDR, SimNetwork, mds_addr
from repro.simulation.routing import FastRoutingEngine
from repro.storage import make_store
from repro.simulation.stats import SimulationResult, summarize_latencies
from repro.traces.columns import OP_FROM_CODE, iter_op_batches
from repro.traces.generator import GeneratedWorkload
from repro.traces.trace import OpType, Trace

__all__ = [
    "SimulationConfig",
    "ClusterSimulator",
    "simulate",
    "BalanceTrajectory",
    "replay_rounds",
]

#: A migrated root *bounced* when it returns to the server it left at most
#: this many adjustment rounds ago (the ROADMAP item 3 thrash signature).
BOUNCE_ROUNDS = 2


@dataclass
class SimulationConfig:
    """Tunables of the simulated testbed (defaults model the EC2 setup)."""

    num_clients: int = 200
    service_time: float = 1e-3       # seconds of MDS CPU per request visit
    hop_latency: float = 2e-4        # one network traversal
    lock_acquire_latency: float = 1e-3   # ZooKeeper round trip
    lock_hold_time: float = 5e-4     # critical section per GL update
    replica_write_work: float = 0.5  # relative CPU per GL replica write
    adjust_every_ops: int = 4000     # heartbeat-driven adjustment cadence
    popularity_blend: float = 0.5    # weight of the newest window in estimates
    migration_work: float = 0.05     # relative CPU per metadata node moved
    index_cache_size: int = 512
    prefix_cache_size: int = 256
    #: Declarative fault schedule (crash / recover / fail_slow /
    #: drop_heartbeats events; see repro.simulation.faults). Crashed servers
    #: keep their metadata until the Monitor misses enough heartbeats.
    fault_plan: Optional[FaultPlan] = None
    #: Client-side timeout before a request to a dead server is retried.
    failover_latency: float = 5e-3
    #: Retry budget per operation; an op that exhausts it counts as *failed*.
    max_retries: int = 16
    #: Capped exponential backoff between retries: attempt k waits
    #: ``min(cap, base * 2**(k-1))`` on top of the failover timeout.
    retry_backoff_base: float = 2e-3
    retry_backoff_cap: float = 0.1
    #: Liveness heartbeat cadence (simulated seconds; <= 0 disables the
    #: detection loop entirely — crashed servers are then never evicted).
    heartbeat_interval: float = 0.05
    #: Monitor declares a server dead after this much heartbeat silence.
    heartbeat_timeout: float = 0.15
    #: Monitor group size: 1 leader + (num_monitors - 1) standbys. One
    #: replica reproduces the singleton Monitor exactly; more buy failover
    #: (with epoch fencing) when monitor_crash faults or partitions hit.
    num_monitors: int = 1
    #: Leadership lease: a standby takes over after the leader has been dead
    #: or quorumless this long (default 2x heartbeat_timeout).
    monitor_lease_timeout: Optional[float] = None
    batch_size: int = 64  # perfbench pins this name; ROADMAP item 1 deletes it
    simulate_engine: str = "auto"  # perfbench pins this name; ROADMAP item 1 deletes it
    #: Metadata persistence backend (``repro.storage``): ``"memory"`` (the
    #: zero-cost no-op default) or ``"wal"``, which journals
    #: acks/fences/subtree moves and replays them when a ``kill9``'d server
    #: rejoins.
    store: str = "memory"
    #: Directory for the durable store (None = self-cleaning temp dir).
    store_dir: Optional[str] = None
    #: Per-server log appends between snapshots (0 disables snapshots).
    snapshot_every: int = 512
    #: Deterministic head-sampling of causal span trees: every sampled
    #: operation (1 in ``trace_sample``, keyed on ``(seed, op id)``) records
    #: a span tree, plus cluster-lifecycle spans for failover / recovery /
    #: adjustment. ``0`` disables tracing entirely (the default — zero-cost,
    #: byte-identical to pre-span builds). Span recording never changes
    #: simulation results.
    trace_sample: int = 0
    seed: int = 7


class ClusterSimulator:
    """Closed-loop replay of one trace through one scheme's placement."""

    def __init__(
        self,
        scheme: MetadataScheme,
        workload: GeneratedWorkload,
        num_servers: int,
        config: Optional[SimulationConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.scheme = scheme
        self.workload = workload
        self.tree = workload.tree
        self.trace = workload.trace
        self.num_servers = num_servers
        self.config = config or SimulationConfig()
        if self.config.service_time <= 0:
            raise ValueError("service_time must be positive")
        self.tree.ensure_popularity()
        self.placement: Placement = scheme.partition(self.tree, num_servers)
        #: Route planner (see repro.simulation.routing): id-indexed memo
        #: columns over the tree's arena plus a memoised owner index.
        self.engine = FastRoutingEngine(self.tree, self.placement)
        self.servers = [MetadataServer(sid) for sid in range(num_servers)]
        #: Server CPU state, by server id: the FIFO busy-until clock, the
        #: CPU seconds booked, the visits served. ``_run`` serves visits on
        #: these very lists and ``_charge_migrations`` adds to them.
        self.busy_until = [0.0] * num_servers
        self.busy_time = [0.0] * num_servers
        self.served = [0] * num_servers
        self.locks = LockManager(acquire_latency=self.config.lock_acquire_latency)
        #: Lossy, partitionable fabric. With no faults installed it degrades
        #: to the constant-latency model (zero RNG draws), so fault-free runs
        #: stay byte-identical to the perfect-network goldens.
        self.network = SimNetwork(
            hop_latency=self.config.hop_latency, seed=self.config.seed
        )
        self.clients = [
            SimClient(
                cid,
                num_servers,
                index_cache_size=self.config.index_cache_size,
                prefix_cache_size=self.config.prefix_cache_size,
                seed=self.config.seed,
            )
            for cid in range(self.config.num_clients)
        ]
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.network.bind_telemetry(self.telemetry)
        self.monitor = MonitorGroup(
            scheme,
            self.tree,
            self.placement,
            replicas=self.config.num_monitors,
            heartbeat_timeout=self.config.heartbeat_timeout,
            lease_timeout=self.config.monitor_lease_timeout,
            expected_servers=range(num_servers),
            telemetry=self.telemetry,
            network=self.network,
        )
        # Durable persistence (repro.storage). The memory backend keeps
        # ``durable`` False, and every hook below is gated on ``store_on``,
        # so the default configuration pays one predicate per op and stays
        # byte-identical to the pre-durability simulator (golden tests).
        self.store = make_store(
            self.config.store,
            directory=self.config.store_dir,
            snapshot_every=self.config.snapshot_every,
        )
        self.store_on = self.store.durable
        if self.store_on:
            self.store.bind_telemetry(self.telemetry)
            self.monitor.journal.bind_store(self.store)
        self.created = 0
        #: Trace records handed to clients (completed + failed + in flight);
        #: the chaos harness balances this against the availability ledger.
        self.ops_issued = 0
        # Late-created nodes (OpType.CREATE extension) do not exist at
        # partition time: their assignments are forgotten and each scheme
        # places them on first sight.
        for path in workload.late_created_paths:
            node = self.tree.lookup(path)
            if node is not None and self.placement.is_placed(node):
                if not self.placement.is_replicated(node):
                    self.placement.forget(node)
        self.migrations = 0
        #: Adjustment rounds recorded so far, and per moved node id the
        #: round it last moved in and the server it left: a node that
        #: returns there within ``BOUNCE_ROUNDS`` rounds counts as bounced.
        #: Kept only while a span recorder or telemetry records the rounds.
        self._adjust_rounds = 0
        self._last_left: Dict[int, Tuple[int, int]] = {}
        # Span tracing (repro.obs.spans): deterministic head-sampled span
        # trees. The recorder rides outside the telemetry enable switch (a
        # sampled run need not pay for the metrics hub); it is attached to
        # the hub, when one was passed in, purely for JSONL export.
        self.spans: Optional[SpanRecorder] = None
        #: Per-server migration-CPU budget: accrued when migrations charge
        #: background work, consumed by sampled ops' queueing delays to
        #: attribute migration stall. Only maintained while tracing.
        self._mig_budget: Optional[List[float]] = None
        if self.config.trace_sample > 0:
            self.spans = SpanRecorder(
                self.config.trace_sample, seed=self.config.seed
            )
            self._mig_budget = [0.0] * num_servers
            if self.telemetry is not NULL_TELEMETRY:
                self.telemetry.attach_spans(self.spans)
        #: The control plane shared with the live cluster. Its ``history``
        #: (an ``OpHistory``, None by default) is set by the chaos harness
        #: before ``run()``. The callback holds the simulator weakly: no
        #: reference cycle, so a dropped simulator is freed at once
        #: (perfbench reads peak RSS).
        this = weakref.ref(self)
        self.control = ClusterControl(
            self.servers, self.placement, self.monitor, self.network,
            self.store, lambda moves, now: this()._placement_moved(moves, now),
            telemetry=self.telemetry, spans=self.spans,
        )
        self.availability = self.control.availability
        self.durability = self.control.durability
        # Telemetry wiring: lock contention, adjustment rounds and the
        # sim-time gauge sampler all hang off one Telemetry per run.
        self.locks.bind_telemetry(self.telemetry)
        self.sampler = GaugeSampler(self.telemetry)
        if self.telemetry.enabled or self.telemetry.spans is not None:
            # A span-only run (sampling on, metrics hub disabled) still
            # writes a JSONL stream, so it needs the run header too.
            info = self.telemetry.run_info
            info.setdefault("scheme", scheme.name)
            info.setdefault("scheme_params", scheme.params())
            info.setdefault("trace", self.trace.name)
            info.setdefault("servers", num_servers)
            info.setdefault("seed", self.config.seed)
            if self.store_on:
                # Recorded only when durability is on: default runs keep
                # the exact pre-durability header.
                info.setdefault("store", self.store.name)
            if self.spans is not None:
                # Recorded only when sampling is on, for the same reason.
                info.setdefault("trace_sample", self.config.trace_sample)
        if self.telemetry.enabled:
            self._register_probes()

    def _register_probes(self) -> None:
        """Register the gauges sampled on the heartbeat grid (Sec. VI
        trajectories: per-server load factor, balance, caches, GL size)."""
        placement = self.placement

        def load_factors() -> List[float]:
            loads = placement.loads()
            return [
                load / cap if cap > 1e-9 else 0.0
                for load, cap in zip(loads, placement.capacities)
            ]

        self.sampler.add_vector("load_factor", load_factors, "server")
        self.sampler.add_vector(
            "server_visits",
            lambda: [float(visits) for visits in self.served],
            "server",
        )
        if self.num_servers >= 2:  # Eq. 2 needs at least two servers
            self.sampler.add(
                "balance_degree",
                lambda: balance_degree(placement.loads(), placement.capacities),
            )
        self.sampler.add(
            "cache_hit_rate",
            lambda: LRUCache.merged_hit_rate(
                client.index_cache for client in self.clients
            ),
            cache="index",
        )
        self.sampler.add(
            "cache_hit_rate",
            lambda: LRUCache.merged_hit_rate(
                client.prefix_cache for client in self.clients
            ),
            cache="prefix",
        )
        self.sampler.add(
            "monitor_epoch", lambda: float(self.monitor.epoch)
        )
        # Deterministic (depends only on the op sequence), so it joins
        # the sampled series without breaking byte-level reproducibility.
        self.sampler.add(
            "owner_index_hit_rate", lambda: self.engine.hit_rate
        )
        if isinstance(placement, D2TreePlacement):
            self.sampler.add(
                "global_layer_size",
                lambda: float(len(placement.split.global_layer)),
            )
            pool_gauge = self.telemetry.registry.gauge(
                "pending_pool_depth",
                help="Subtrees parked in the pending pool this adjustment round",
            )
            self.sampler.add("pending_pool_depth", lambda: pool_gauge.value)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def plan_route(self, client: SimClient, node, op: OpType) -> RoutePlan:
        """Resolve which servers an operation touches."""
        return self.engine.plan(client, node, op)

    # ------------------------------------------------------------------
    # Adjustment (heartbeat-driven, mid-replay)
    # ------------------------------------------------------------------
    def _adjust(self, now: float, window: List) -> None:
        """One adjustment round (Sec. IV-B).

        ``window`` holds the node of every operation completed since the
        last round. It is folded into the run's popularity estimate, which
        brings the placement's counted nodes — for D2-Tree the subtree roots
        the round balances — up to date at the cost of the window, and the
        whole tree only for a placement whose policy reads every node, or a
        round somebody records.
        """
        self.telemetry.set_time(now)
        # Eq. 2 server loads are a whole-tree sum that only the records of
        # the round (span, telemetry event) consume: the Monitor keeps a
        # heartbeat's server and time, nothing else. Unobserved rounds skip
        # the sum and report 0.0.
        observed = self.spans is not None or self.telemetry.enabled
        estimate = self.tree.estimate
        counted = self.placement.counted_nodes()
        estimate.fold(Counter(window), counted, self.engine.counter_ids)
        if counted is None or observed:
            estimate.materialise()
        mu = 0.0
        if observed:
            loads = self.placement.loads()
            capacities = self.placement.capacities
            total_cap = sum(capacities)
            mu = sum(loads) / total_cap if total_cap > 0 else 0.0
        # Heartbeats (Sec. IV-B): every live MDS reports its relative
        # capacity to the Monitor, which runs the adjustment. Dead and
        # heartbeat-muted servers stay silent — their absence is what
        # failure detection keys off.
        net = self.network
        leader_addr = self.monitor.leader_addr
        for server in self.servers:
            if not server.alive:
                continue
            sid = server.server_id
            # Load reports traverse the real network: mutes
            # (drop_heartbeats), partitions and loss all silence them
            # through the one shared code path.
            if net.faulty:
                arrival = net.deliver(mds_addr(sid), leader_addr, now)
                if arrival is None:
                    continue
            relative = loads[sid] - mu * capacities[sid] if observed else 0.0
            self.monitor.on_heartbeat(Heartbeat(sid, now, 0.0, relative))
        rebalances = self.monitor.rebalances
        moves = self.monitor.rebalance(now)
        self.migrations += len(moves)
        self._charge_migrations(moves)
        self._journal_moves(moves, now)
        if observed:
            # D2-Tree's adjuster says what the round offered and how
            # unbalanced it found the cluster. A round skipped for want of
            # a quorum ran no policy: the scheme still holds the previous
            # round's report.
            report = None
            if self.monitor.rebalances != rebalances:
                report = getattr(self.scheme, "last_adjustment", None)
            self._record_round(now, moves, mu, report)

    def _record_round(self, now: float, moves, mu: float, report) -> None:
        """The one record of an adjustment round: the same fields on the
        ``adjust_round`` span (parenting aggregate -> plan -> migrate) and
        on the telemetry event."""
        fields = (
            ("migrations", len(moves)),
            ("mu", mu),
            ("bounced", self._count_bounces(moves)),
        )
        if report is not None:
            fields += (
                ("offered", report.offered),
                ("moved_popularity", report.moved_popularity),
                ("negligible_moves", report.negligible_moves),
                ("max_load_factor", report.max_load_factor),
            )
        rec = self.spans
        if rec is not None:
            parent = rec.cluster("adjust_round", now, now, fields=fields)
            rec.cluster("aggregate", now, now, parent=parent)
            rec.cluster("plan", now, now, parent=parent)
            # The migrate step carries the migration count alone.
            rec.cluster("migrate", now, now, parent=parent, fields=fields[:1])
        if self.telemetry.enabled:
            self.telemetry.event("adjust_round", t=now, **dict(fields))
            self.telemetry.registry.counter(
                "migrations", help="Subtree/key migrations performed",
            ).inc(len(moves))
            if report is not None:
                # Registered, with its help text, by ``_register_probes``.
                self.telemetry.registry.gauge("pending_pool_depth").set(
                    report.offered
                )

    def _count_bounces(self, moves) -> int:
        """Moves of this round that return a node to the server it left
        within the last ``BOUNCE_ROUNDS`` recorded rounds (O(moves))."""
        self._adjust_rounds += 1
        this_round = self._adjust_rounds
        last_left = self._last_left
        bounced = 0
        for move in moves:
            node_id = move.node.node_id
            previous = last_left.get(node_id)
            if (
                previous is not None
                and previous[1] == move.target
                and this_round - previous[0] <= BOUNCE_ROUNDS
            ):
                bounced += 1
            last_left[node_id] = (this_round, move.source)
        return bounced

    def _charge_migrations(self, moves) -> None:
        """Book migration CPU on both ends of every move.

        Migration is not free: source and target servers spend CPU on every
        moved metadata node (the thrashing/rehashing overhead the paper
        charges against dynamic and hash-based schemes). Dead servers do no
        work — a failure re-home only costs the receiving side.
        """
        work = self.config.migration_work
        if work <= 0 or not moves:
            return
        budget = self._mig_budget
        servers = self.servers
        busy_until, busy_time, served = self.busy_until, self.busy_time, self.served
        sizes = self.tree.arena().subtree_sizes()
        for move in moves:
            cost = work * self._migration_size(move, sizes) * self.config.service_time
            for sid in (move.source, move.target):
                if servers[sid].alive:
                    # Background work joins the queue tail: booked at its
                    # round's time it would fast-forward an idle clock and
                    # retroactively delay earlier arrivals.
                    busy_until[sid] += cost
                    busy_time[sid] += cost
                    served[sid] += 1
                    if budget is not None:
                        budget[sid] += cost

    def _journal_moves(self, moves, now: float) -> None:
        """Persist subtree ownership changes to the per-MDS logs.

        Each move revokes the subtree from its source and grants it to its
        target. Only *live* servers journal — a dead server's log must not
        change while it is down (injected tail damage has to stay exactly
        where the crash left it until recovery inspects it).
        """
        if not self.store_on or not moves:
            return
        store = self.store
        for move in moves:
            path = move.node.path
            if self.servers[move.source].alive:
                store.append_mutation(move.source, "revoke", path, now)
            if self.servers[move.target].alive:
                store.append_mutation(move.target, "grant", path, now)

    # ------------------------------------------------------------------
    # Cluster control (Sec. IV-A3): ClusterControl decides; the simulator
    # synthesises the heartbeats and prices the migrations.
    def _heartbeats(self, now: float) -> None:
        """Liveness heartbeats, then the control plane's detection round.

        Liveness beats carry the served-visit count as a cheap load proxy.
        """
        self.telemetry.set_time(now)
        net = self.network
        live = 0
        for sid, server in enumerate(self.servers):
            if not server.alive:
                continue
            if net.faulty and net.deliver(
                mds_addr(sid), self.monitor.leader_addr, now
            ) is None:
                continue
            if self.control.on_heartbeat(
                Heartbeat(sid, now, float(self.served[sid]), 0.0)
            ):
                live += 1
        if self.telemetry.enabled:
            self.telemetry.event("heartbeat_round", t=now, live=live)
            self.sampler.snapshot(now)
        self.control.round(now)

    def _service_costs(self) -> List[Optional[float]]:
        """CPU seconds per visit, by server; ``None`` while it is down."""
        service_time = self.config.service_time
        return [
            service_time * server.slow_factor if server.alive else None
            for server in self.servers
        ]

    def _placement_moved(self, moves, now: float) -> None:
        """ClusterControl re-homed or pulled back subtrees: ownership was
        rewritten wholesale, so flush the owner index rather than trusting
        version counters to cover every write, then price the moves."""
        self.engine.invalidate()
        self.migrations += len(moves)
        self._charge_migrations(moves)
        self._journal_moves(moves, now)

    def _migration_size(self, move, sizes: List[int]) -> int:
        """Metadata nodes transferred by one migration (``sizes`` is the
        arena's subtree-size column)."""
        if isinstance(self.placement, D2TreePlacement):
            return sizes[move.node.node_id]
        if isinstance(self.placement, DynamicSubtreePlacement):
            # Exclusive zone: subtree minus nested zones.
            size = sizes[move.node.node_id]
            for other in self.placement.zone_of:
                if other is not move.node and other.parent is not None:
                    walk = other.parent
                    while walk is not None and walk is not move.node:
                        walk = walk.parent
                    if walk is move.node:
                        size -= sizes[other.node_id]
            return max(1, size)
        return 1  # DROP/AngleCut migrate individual keys

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Replay the whole trace; returns throughput and latency stats."""
        tree = self.tree
        arena = tree.arena()  # static structure mid-replay
        # A run never leaks adjusted estimates into the shared workload
        # (simulations must be independent): its estimate (see ``_adjust``)
        # is lent to the tree, and the nodes are written back as found.
        found = arena.individual_popularity()
        tree.estimate = PopularityEstimate(arena, self.config.popularity_blend)
        try:
            return self._run()
        finally:
            tree.estimate = None
            arena.write_popularity(found)

    def _run(self) -> SimulationResult:
        """The replay loop: visits are served in global time order.

        The materialized trace is decoded one 4 096-op
        :class:`~repro.traces.columns.OpBatch` window at a time (op codes
        and resolved nodes, the two columns read here). A closed loop has at
        most one in-flight op per client, so an op's state lives in
        per-client *slot* arrays and an event is ``(time, seq, slot)``; a
        server's FIFO timeline only ever sees arrivals with non-decreasing
        timestamps, which keeps queueing causal. Server CPU state is the
        simulator's own ``busy_until`` / ``busy_time`` / ``served`` lists,
        bound here as locals: what ``_adjust``, an evict or a readmit books
        on them (``_charge_migrations``) is there for the next visit. The
        one derived column, ``service`` (``_service_costs``), is rebuilt after
        the calls that can change ``alive`` / ``slow_factor``: the heartbeat
        / time-fault grid and an op-count fault.

        Everything a quiet run does not need — the heartbeat / fault grid,
        retries, the lossy fabric, the durable store, history, telemetry,
        spans — is an ``if flag:`` block on a local resolved once up here,
        so a fault-free, unobserved run pays a handful of predicates per op.
        """
        import heapq
        from itertools import count

        cfg = self.config
        placement = self.placement
        tree = self.tree
        servers = self.servers
        network = self.network
        control = self.control
        monitor_is_dead = self.monitor.is_dead
        availability = self.availability
        # Bind the scheme planner directly, hoisting the per-op
        # snapshot-staleness check out of the loop. Safe because the tree
        # is structurally static mid-replay (CREATE ops move placement, not
        # structure) — start the engine cold once up front if it is stale.
        if self.engine.arena.version != tree.structure_version:
            self.engine.invalidate()
        engine_plan = self.engine._planner
        serve_plan = self.engine._serve_plan  # interned single-SERVE plans
        is_placed = placement.is_placed
        place_created = self.scheme.place_created
        locks_acquire = self.locks.acquire
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        hop = network.hop()
        fan_cost = cfg.replica_write_work * cfg.service_time
        lock_hold = cfg.lock_hold_time
        adjust_every = cfg.adjust_every_ops
        failover = cfg.failover_latency
        max_retries = cfg.max_retries
        decode = OP_FROM_CODE
        REDIRECT = VisitKind.REDIRECT
        # The hooks. Each is one local bool (or None-able handle) here and
        # plain ``if`` blocks below; metric handles are resolved once.
        tel = self.telemetry
        tel_on = tel.enabled
        record_ops = tel_on and tel.record_ops
        store = self.store
        store_on = self.store_on
        ledger = self.durability
        hist = control.history
        hist_on = hist is not None
        rec = self.spans
        rec_on = rec is not None
        mig_budget = self._mig_budget
        if tel_on:
            m_completed = tel.registry.counter(
                "ops_completed", help="Operations completed")
            m_failed = tel.registry.counter(
                "ops_failed", help="Operations dropped after retry exhaustion")
            m_retries = tel.registry.counter(
                "retries", help="Client retries against crashed servers")
            m_redirects = tel.registry.counter(
                "redirects", help="Operations that hit a stale cache entry")
            h_latency = tel.registry.histogram(
                "op_latency_seconds", help="End-to-end operation latency")
            h_visits = tel.registry.histogram(
                "route_plan_visits",
                help="Server visits per route plan (deterministic plan cost)")
            h_client_retries = tel.registry.histogram(
                "client_retries",
                help="Retry attempts per finished operation "
                     "(completed or abandoned)")

        #: The node of every op completed since the last adjustment round.
        window: List = []
        window_append = window.append

        busy_until = self.busy_until
        busy_time = self.busy_time
        served = self.served
        service = self._service_costs()

        # Fault schedule, split into op-count- and time-triggered stacks
        # (next to fire on top); the time-triggered one shares a grid with
        # the liveness heartbeats.
        fault_plan = cfg.fault_plan or FaultPlan()
        fault_plan.validate(self.num_servers, num_monitors=cfg.num_monitors)
        ops_faults = fault_plan.by_ops()[::-1]
        time_faults = fault_plan.by_time()[::-1]
        infinity = float("inf")
        #: A fault can bite: one is scheduled, or the run starts degraded.
        faulted = bool(fault_plan) or network.faulty or None in service
        # The heartbeat grid is skipped when nothing can observe it:
        # fault-free, a round only refreshes liveness state that detection
        # never acts on.
        grid_on = faulted or tel_on or store_on or hist_on
        heartbeat_every = cfg.heartbeat_interval
        next_heartbeat = (
            heartbeat_every if grid_on and heartbeat_every > 0 else infinity
        )
        next_time_fault = time_faults[-1].at_time if time_faults else infinity
        next_grid = min(next_heartbeat, next_time_fault)

        batches = iter_op_batches(self.trace, tree)
        b_codes: List[int] = []
        b_nodes: List = []
        b_len = 0
        b_idx = 0
        dispatched = 0
        created = 0

        num_slots = cfg.num_clients
        clients = self.clients[:num_slots]
        #: None until the slot's client has issued its first record.
        slot_plan: List[Optional[RoutePlan]] = [None] * num_slots
        slot_visit = [0] * num_slots
        slot_start = [0.0] * num_slots
        slot_node: List = [None] * num_slots
        slot_op: List = [None] * num_slots
        slot_attempts = [0] * num_slots
        #: 1-based issue number: the durable op sequence, stable across
        #: retries (the history and span op id is the same counter 0-based).
        slot_issue = [0] * num_slots
        #: Telemetry op id and span trace state (None unless recorded).
        slot_tid: List[Optional[int]] = [None] * num_slots
        slot_tr: List[Optional[Dict]] = [None] * num_slots

        latencies: List[float] = []
        lat_append = latencies.append
        redirects = 0
        jumps_total = 0
        makespan = 0.0
        completed = 0
        #: (time, seq, slot), one per client with work left. Seeded with a
        #: plan-less event per client: popping it issues the first record.
        events: List = [(0.0, slot, slot) for slot in range(num_slots)]
        next_seq = count(num_slots).__next__

        while events:
            now, _tick, slot = events[0]  # peek; replaced or popped below
            plan = slot_plan[slot]
            #: Server whose silence the client must time out on (at
            #: ``lost_at``), or -1 while the attempt in flight is healthy.
            lost = -1
            if plan is None:
                start = now
            else:
                if now >= next_grid:
                    # Heartbeat rounds and time-triggered faults due by
                    # ``now`` fire first, in chronological order (both
                    # grids derive from sim time, never the wall clock).
                    while next_grid <= now:
                        if next_heartbeat <= next_time_fault:
                            self._heartbeats(next_heartbeat)
                            next_heartbeat += heartbeat_every
                        else:
                            control.apply_fault(time_faults.pop(), next_time_fault)
                            next_time_fault = (
                                time_faults[-1].at_time if time_faults else infinity
                            )
                        next_grid = min(next_heartbeat, next_time_fault)
                    service = self._service_costs()
                visits = plan.visits
                vidx = slot_visit[slot]
                sid = visits[vidx][0]
                cost = service[sid]
                if cost is None:
                    # The target crashed. The placement still routes to it
                    # until the Monitor detects the failure and re-homes
                    # its metadata (the degraded window).
                    lost = sid
                    lost_at = now
                else:
                    # FIFO busy-until clock.
                    busy = busy_until[sid]
                    begin = now if now > busy else busy
                    end = begin + cost
                    busy_until[sid] = end
                    busy_time[sid] += cost
                    served[sid] += 1
                    if rec_on:
                        tr = slot_tr[slot]
                        if tr is not None:
                            rec.visit(tr, sid, now, begin, end, mig_budget)
                    vidx += 1
                    nvis = len(visits)
                    if vidx < nvis:
                        slot_visit[slot] = vidx
                        arrival = end + hop
                        if faulted and network.faulty:
                            arrival = network.server_arrival(
                                sid, visits[vidx][0], arrival
                            )
                        if arrival is not None:
                            heapreplace(events, (arrival, next_seq(), slot))
                            continue
                        # The forward crossed a partition (or was lost):
                        # the client retries the whole op.
                        lost = visits[vidx][0]
                        lost_at = end
                    else:
                        # Final visit done: fan out replica writes
                        # asynchronously (the lock orders writers;
                        # version/lease checks cover readers, so the client
                        # is acked after the primary) and complete the op.
                        for fs in plan.fanout:
                            # Background work joins the queue tail, as in
                            # ``_charge_migrations``.
                            busy_until[fs] += fan_cost
                            busy_time[fs] += fan_cost
                            served[fs] += 1
                        start = completion = end + hop
                        if store_on:
                            # fsync-before-ack: the ack record is durable
                            # before the client observes the completion, so
                            # a crash after this point can never lose an
                            # acknowledged operation.
                            store.append_ack(
                                sid, slot_issue[slot], slot_node[slot].path,
                                completion,
                            )
                            ledger.note_ack(sid, slot_issue[slot])
                        if hist_on:
                            # Append order here is per-server serve order
                            # (arrivals are FIFO per server), which is
                            # exactly the order the history audit walks
                            # fence epochs in.
                            hist.ok(
                                slot_issue[slot] - 1, clients[slot].client_id,
                                completion, sid, servers[sid].fence_epoch,
                            )
                        if nvis == 1:
                            redirected = visits[0][1] is REDIRECT
                        else:
                            jumps_total += nvis - 1
                            redirected = False
                            for visit in visits:
                                if visit[1] is REDIRECT:
                                    redirected = True
                                    break
                        if redirected:
                            redirects += 1
                        latency = completion - slot_start[slot]
                        lat_append(latency)
                        if rec_on:
                            tr = slot_tr[slot]
                            if tr is not None:
                                rec.finish(tr, completion, len(plan.fanout))
                        if tel_on:
                            m_completed.inc()
                            if redirected:
                                m_redirects.inc()
                            h_latency.observe(latency)
                            h_visits.observe(float(nvis))
                            h_client_retries.observe(float(slot_attempts[slot]))
                            tel.op_event(
                                "op_complete", slot_tid[slot], t=completion,
                                latency=latency, jumps=nvis - 1,
                                redirected=redirected,
                                attempts=slot_attempts[slot],
                            )
                        if completion > makespan:
                            makespan = completion
                        completed += 1
                        if ops_faults and completed >= ops_faults[-1].at_ops:
                            while ops_faults and completed >= ops_faults[-1].at_ops:
                                control.apply_fault(ops_faults.pop(), completion)
                            service = self._service_costs()
                        if adjust_every:
                            window_append(slot_node[slot])
                            if completed % adjust_every == 0:
                                self._adjust(completion, window)
                                window.clear()
            # What the client does next: time out on a lost attempt and
            # retry it (or give up on the op), else issue its next record.
            while True:
                if lost >= 0:
                    # Shared by every loss mode — a request to a crashed
                    # server, a send the network dropped, a forward cut by
                    # a partition. The op id is stable across attempts,
                    # which is what makes the retry idempotent: a completed
                    # operation is counted exactly once no matter how many
                    # sends it took.
                    attempts = slot_attempts[slot] + 1
                    slot_attempts[slot] = attempts
                    if attempts <= max_retries:
                        availability.retries += 1
                        if tel_on:
                            m_retries.inc()
                            tel.op_event(
                                "op_retry", slot_tid[slot], t=lost_at,
                                server=lost, attempt=attempts,
                            )
                        retry_at = lost_at + failover + min(
                            cfg.retry_backoff_cap,
                            cfg.retry_backoff_base * (2 ** (attempts - 1)),
                        )
                        # The tree is static mid-replay, so the node
                        # resolved at dispatch is still authoritative.
                        slot_plan[slot] = engine_plan(
                            clients[slot], slot_node[slot], slot_op[slot]
                        )
                        slot_visit[slot] = 0
                        tr = slot_tr[slot]
                        if tr is not None:
                            rec.retry(tr, retry_at)
                        heapreplace(events, (retry_at, next_seq(), slot))
                        break
                    # Retry budget exhausted: the operation *fails* instead
                    # of looping forever; the client moves on. Simulated
                    # failures are determinate (the model never drops the
                    # completion hop of a served op), so this is a history
                    # ``fail``, never an ``indeterminate``.
                    availability.failed_operations += 1
                    if hist_on:
                        hist.fail(
                            slot_issue[slot] - 1, clients[slot].client_id,
                            lost_at, attempts,
                        )
                    if tel_on:
                        m_failed.inc()
                        h_client_retries.observe(float(attempts))
                        tel.op_event(
                            "op_failed", slot_tid[slot], t=lost_at,
                            server=lost, attempts=attempts,
                        )
                    start = lost_at + failover
                    lost = -1
                if b_idx >= b_len:
                    batch = next(batches, None)
                    if batch is None:
                        heappop(events)
                        break
                    b_codes = batch.op_codes
                    b_nodes = batch.nodes
                    b_len = len(b_codes)
                    b_idx = 0
                node = b_nodes[b_idx]
                op = decode[b_codes[b_idx]]
                b_idx += 1
                dispatched += 1
                if is_placed(node):
                    plan = engine_plan(clients[slot], node, op)
                else:
                    # CREATE (or first touch of a late node): the scheme
                    # places the newcomer and the owner does the insert.
                    server = place_created(tree, placement, node)
                    if monitor_is_dead(server):
                        server = self._create_elsewhere(node, server)
                    created += 1
                    plan = serve_plan(server)
                # Fault adjustment only ever adds to or drops the healthy
                # arrival; a lost send (None) takes no lock.
                pre_lock = arrival = start + hop
                if faulted:
                    # Retry state: only a faulted run loses an attempt.
                    slot_op[slot] = op
                    slot_attempts[slot] = 0
                    if network.faulty:
                        pre_lock = arrival = network.data_arrival(
                            CLIENT_ADDR, mds_addr(plan.visits[0][0]), arrival
                        )
                if plan.lock_key and arrival is not None:
                    arrival = locks_acquire(plan.lock_key, arrival, lock_hold)
                slot_plan[slot] = plan
                slot_visit[slot] = 0
                slot_start[slot] = start
                slot_node[slot] = node
                slot_issue[slot] = dispatched
                if hist_on:
                    # Invoked before the lost-send branch so a
                    # first-attempt loss still has its invoke on record.
                    hist.invoke(dispatched - 1, clients[slot].client_id, start)
                if record_ops:
                    slot_tid[slot] = tel.next_op_id()
                    tel.event(
                        "op_start", slot_tid[slot], t=start, path=node.path,
                        type=op.value, client=clients[slot].client_id,
                    )
                if rec_on:
                    slot_tr[slot] = rec.begin_op(
                        dispatched - 1, node.path, clients[slot].client_id,
                        start, pre_lock,
                        arrival if plan.lock_key else None,
                    ) if rec.sampled(dispatched - 1) else None
                if arrival is not None:
                    heapreplace(events, (arrival, next_seq(), slot))
                    break
                # The send was lost (loss fault): the client times out and
                # retries like any other failed attempt.
                lost = plan.visits[0][0]
                lost_at = start

        self.created += created
        self.ops_issued += dispatched
        control.close_unavailability(makespan)
        operations = len(latencies)
        if tel_on:
            # Closing grid point: the end-of-run cluster state joins the
            # time series even when the trace drained between heartbeats.
            tel.set_time(makespan)
            self.sampler.snapshot(makespan)
            tel.registry.gauge(
                "throughput", help="Completed operations per simulated second"
            ).set(operations / makespan if makespan > 0 else 0.0)
        durability = None
        if store_on:
            durability = store.stats()
            durability.update(ledger.summary())
        return SimulationResult(
            scheme=self.scheme.name,
            trace=self.trace.name,
            num_servers=self.num_servers,
            operations=operations,
            makespan=makespan,
            throughput=operations / makespan if makespan > 0 else 0.0,
            latency=summarize_latencies(latencies),
            server_visits=list(served),
            server_utilization=[
                min(1.0, busy / makespan) if makespan > 0 else 0.0
                for busy in busy_time
            ],
            redirects=redirects,
            migrations=self.migrations,
            lock_waits=self.locks.total_wait,
            jumps_total=jumps_total,
            availability=self.availability,
            durability=durability,
        )

    def _create_elsewhere(self, node, dead: int) -> int:
        """CREATE routed at a server the cluster already evicted: a real
        client is routed by the authoritative map and never creates at an
        acknowledged-dead MDS, so a live one (stable in the path) takes it."""
        live = [s.server_id for s in self.servers if s.alive]
        if not live:
            return dead
        server = live[stable_hash(node.path) % len(live)]
        zones = getattr(self.placement, "zone_of", None)
        if zones is not None and node in zones:
            # Keep the zone map consistent, or a later rebuild would
            # resurrect the dead owner.
            zones[node] = server
        self.placement.assign(node, server)
        return server

    def close(self) -> None:
        """Release the durable store's files (idempotent)."""
        self.store.close()


def simulate(
    scheme: MetadataScheme,
    workload: GeneratedWorkload,
    num_servers: int,
    config: Optional[SimulationConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> SimulationResult:
    """One-call wrapper: partition, replay, report.

    Pass a :class:`repro.obs.Telemetry` to collect sim-time metrics, gauge
    time series and trace events for the run (see ``docs/OBSERVABILITY.md``).
    """
    sim = ClusterSimulator(
        scheme, workload, num_servers, config, telemetry=telemetry
    )
    try:
        return sim.run()
    finally:
        sim.close()


# ----------------------------------------------------------------------
# Fig. 7 methodology: round-based balance trajectory
# ----------------------------------------------------------------------
@dataclass
class BalanceTrajectory:
    """Per-round balance degrees under online adjustment."""

    scheme: str
    trace: str
    num_servers: int
    per_round: List[float] = field(default_factory=list)
    migrations: int = 0

    @property
    def final_balance(self) -> float:
        """Balance of the last replay round (the Fig. 7 reading)."""
        return self.per_round[-1] if self.per_round else float("inf")


def _round_counts(piece: Trace, tree) -> Dict:
    """One round's access count per node, in first-appearance order (the
    order the served loads are summed in). Records whose path does not
    resolve are skipped."""
    lookup = tree.lookup
    return Counter(
        node for node in (lookup(record.path) for record in piece)
        if node is not None
    )


def _served_loads(placement: Placement, counts: Dict) -> List[float]:
    loads = [0.0] * placement.num_servers
    for node, count in counts.items():
        if not placement.is_placed(node):
            continue
        servers = placement.servers_of(node)
        share = count / len(servers)
        for server in servers:
            loads[server] += share
    return loads


def replay_rounds(
    scheme: MetadataScheme,
    workload: GeneratedWorkload,
    num_servers: int,
    rounds: int = 20,
    popularity_blend: float = 0.5,
    normalize: bool = True,
) -> BalanceTrajectory:
    """Measure balance while replaying the trace in adjustment rounds.

    Round ``r``'s served load is measured under the placement adapted to
    rounds ``< r`` (online evaluation); the scheme then observes round ``r``
    and rebalances. The last round's balance is what Fig. 7 plots.
    """
    if rounds < 2:
        raise ValueError("need at least two rounds (one to adapt, one to measure)")
    tree = workload.tree
    arena = tree.arena()  # rebalancing moves placements, never the structure
    initial = arena.individual_popularity()
    pieces = workload.trace.rounds(rounds)
    # The estimate starts as the first round's counts, taken whole (blend
    # weight 1); from there it is the simulator's (ClusterSimulator._adjust)
    # with every node brought up to date each round.
    first = PopularityEstimate(arena, 1.0)
    first.fold(_round_counts(pieces[0], tree))
    first.materialise()
    placement = scheme.partition(tree, num_servers)
    estimate = PopularityEstimate(arena, popularity_blend)

    trajectory = BalanceTrajectory(
        scheme=scheme.name, trace=workload.trace.name, num_servers=num_servers
    )
    for piece in pieces[1:]:
        counts = _round_counts(piece, tree)
        loads = _served_loads(placement, counts)
        if normalize:
            total = sum(loads)
            if total > 0:
                loads = [load * num_servers / total for load in loads]
        trajectory.per_round.append(balance_degree(loads, placement.capacities))
        # Servers observe the round and adjust.
        estimate.fold(counts)
        estimate.materialise()
        trajectory.migrations += len(scheme.rebalance(tree, placement))
    arena.write_popularity(initial)
    return trajectory
