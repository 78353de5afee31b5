"""Live cluster mode: MDS and Monitor nodes as asyncio tasks on real sockets.

This is the "one step more real" execution mode behind the unified
:class:`~repro.transport.base.Transport` API. Every metadata server and
Monitor replica is an asyncio task with its own listening socket on the
:class:`~repro.transport.asyncio_net.AsyncioTransport`; clients (the load
generator, ``repro.transport.loadgen``) speak the framed, schema-versioned
wire form of :mod:`repro.cluster.messages`. Faults come from the same
``FaultPlan`` grammar the simulator replays — but here a ``crash`` cancels
the task and closes the listening socket, a partition silences real frames,
and detection/failover run against the wall clock.

What is deliberately shared with the simulator rather than re-implemented:

* **Placement and re-homing** — the scheme's ``partition`` plus
  ``fail_server`` / ``rejoin_server`` from :mod:`repro.cluster.failure`
  mutate the same authoritative :class:`~repro.placement.Placement`.
* **The Monitor group state machine** — leases, quorum gating, epochs and
  the directive journal are :class:`~repro.cluster.monitor.MonitorGroup`
  verbatim; the live replicas are its network faces. Quorum checks read
  reachability from the shared fault fabric, so a partition that strands
  the leader aborts its directives here exactly as in the simulator.
* **The safety invariants** — :func:`check_invariants` runs the chaos
  harness's state checks 1–3 (ownership, completeness, epoch monotonicity:
  :func:`~repro.cluster.failure.check_state_invariants`) against the live
  cluster's state, adds the client-side accounting balance, plus a ledger
  check that every client-acknowledged op is present in some MDS's ack
  ledger.

Requests route the way the paper's do (Sec. IV-A2). The Monitor leader's
epoch-stamped ownership broadcasts carry the two-layer *index* — the
global-layer paths with their replica sets and the subtree-root → owner
map (:class:`~repro.cluster.index.RoutingIndex`) — never a map of every
path. An MDS that holds a replica of a global-layer path acks any
non-``update`` op on it; a global-layer ``update`` is acked by the primary
replica only (the serialisation point standing in for the lock service, so
a mutation's ledger entry is single-homed). A local-layer path resolves by
longest-prefix match to its subtree root's owner. Anything else is
answered with a redirect, and every reply names the covering index entry
so the client (``repro.transport.loadgen``) can cache it and go straight
to the owner next time. An MDS whose index is stale redirects wrong, and
the client's retry loop absorbs it until the next broadcast.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.chaos.history import audit_history
from repro.cluster.failure import (
    check_state_invariants,
    fail_server,
    rejoin_server,
)
from repro.cluster.index import RoutingIndex
from repro.cluster.messages import (
    ClientReply,
    ClientRequest,
    Directive,
    Heartbeat,
)
from repro.cluster.monitor import MonitorGroup
from repro.placement import DEAD_CAPACITY, MetadataScheme
from repro.simulation.faults import FaultEvent, FaultKind, FaultPlan
from repro.transport.asyncio_net import AsyncioTransport
from repro.transport.base import CLIENT_ADDR, mds_addr, mon_addr
from repro.transport.wire import encode_frame, read_frame

__all__ = [
    "LiveConfig",
    "LiveMDS",
    "LiveMonitor",
    "LiveCluster",
    "ServeReport",
    "check_invariants",
]


@dataclass
class LiveConfig:
    """Tunables of the live cluster (wall-clock seconds throughout)."""

    num_servers: int = 3
    num_monitors: int = 3
    transport: str = "unix"          # "unix" | "tcp"
    socket_dir: Optional[str] = None
    host: str = "127.0.0.1"
    #: MDS → Monitor heartbeat cadence and the leader's eviction timeout.
    heartbeat_interval: float = 0.05
    heartbeat_timeout: float = 0.25
    #: Standby takeover after the leader is dead/quorumless this long
    #: (None = 2x heartbeat_timeout, the MonitorGroup default).
    lease_timeout: Optional[float] = None
    #: Artificial per-request service time (0 = serve at socket speed).
    service_time: float = 0.0
    #: Extra sleep per request on a ``fail_slow`` server, per factor unit.
    slow_unit: float = 0.001
    seed: int = 7


class LiveMDS:
    """One metadata server: a listening socket plus a heartbeat task.

    Serves framed :class:`ClientRequest`\\ s (ack if the index says this
    server may, redirect otherwise), applies epoch-fenced ownership
    :class:`Directive`\\ s, and heartbeats every Monitor replica through
    the fault fabric. The ack ledger (``acked``) is keyed by client-assigned
    op id, so a retried or redirected op is acknowledged exactly once no
    matter how many times its frames crossed the wire.
    """

    def __init__(
        self, server_id: int, transport: AsyncioTransport, cfg: LiveConfig
    ) -> None:
        self.server_id = server_id
        self.addr = mds_addr(server_id)
        self.transport = transport
        self.cfg = cfg
        #: Two-layer routing index (replaced by each ownership broadcast).
        self.index = RoutingIndex()
        self.alive = False
        self.slow_factor = 1.0
        self.fence_epoch = 0
        self.fenced_directives = 0
        #: Client-assigned ids of every op this server acknowledged.
        self.acked: Set[int] = set()
        self.served = 0
        self.redirects = 0
        self._heartbeat_task: Optional[asyncio.Task] = None
        #: replica id -> (reader, writer) of the open heartbeat connection.
        self._mon_conns: Dict[int, Tuple] = {}

    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.transport.start_endpoint(self.addr, self._handle)
        self.alive = True
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    async def crash(self, wipe: bool = False) -> None:
        """Stop serving: close the real socket, abort real connections.

        ``wipe`` models ``kill9`` — the process image is lost, taking the
        volatile epoch fence, routing index and ack ledger with it (live mode
        has no durable store; the chaos docstring calls this the documented
        hazard of running storeless).
        """
        self.alive = False
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        await self._close_mon_conns()
        await self.transport.stop_endpoint(self.addr)
        if wipe:
            self.fence_epoch = 0
            self.index = RoutingIndex()
            self.acked = set()

    async def recover(self) -> None:
        """Restart the task; ownership returns via the rejoin broadcast."""
        if self.alive:
            return
        self.transport.clear_endpoint(self.addr)
        self.slow_factor = 1.0
        await self.transport.start_endpoint(self.addr, self._handle)
        self.alive = True
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    async def _close_mon_conns(self) -> None:
        for _, writer in self._mon_conns.values():
            try:
                writer.close()
            except Exception:  # pragma: no cover - platform-dependent
                pass
        self._mon_conns.clear()

    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        """Serve one inbound connection (client pool or Monitor leader)."""
        while True:
            payload = await read_frame(reader)
            if payload is None:
                return
            kind = payload.get("type")
            if kind == "client_request":
                await self._serve_request(
                    ClientRequest.from_wire(payload), writer
                )
            elif kind == "directive":
                self._apply_directive(Directive.from_wire(payload))
            elif kind == "ping":
                writer.write(encode_frame({"type": "pong"}))
                await writer.drain()

    async def _serve_request(self, request: ClientRequest, writer) -> None:
        delay = self.cfg.service_time
        if self.slow_factor > 1.0:
            delay += (self.slow_factor - 1.0) * self.cfg.slow_unit
        if delay > 0:
            await asyncio.sleep(delay)
        status, owner, root = self.route(request)
        if status == "ack" and request.op_id not in self.acked:
            self.acked.add(request.op_id)
            self.served += 1
        elif status == "redirect":
            self.redirects += 1
        reply = ClientReply(
            op_id=request.op_id, status=status, server=self.server_id,
            owner=owner, epoch=self.fence_epoch, root=root,
        )
        # Replies ride the data plane: loss/delay installed on this server's
        # links applies to them too (a lost ack looks like a client timeout,
        # and the retry is absorbed by the idempotent ack ledger).
        await self.transport.send_data(
            self.addr, CLIENT_ADDR, writer, encode_frame(reply.to_wire())
        )

    def route(self, request: ClientRequest) -> Tuple[str, int, str]:
        """``(status, owner, root)`` of the reply to ``request``.

        Any replica acks a global-layer read; an ``update`` is the
        primary's alone. A server that may not ack redirects to the primary.
        """
        entry = self.index.resolve(request.path)
        if entry is None:
            # No covering entry (fresh after kill9, or a path this index
            # never learned): the client treats it as retryable elsewhere.
            return "error", -1, ""
        root, servers = entry
        if request.op != "update" and self.server_id in servers:
            owner = self.server_id
        else:
            owner = servers[0]
        status = "ack" if owner == self.server_id else "redirect"
        return status, owner, root

    def _apply_directive(self, directive: Directive) -> None:
        """Apply an ownership broadcast — unless its epoch is fenced out."""
        if directive.epoch < self.fence_epoch:
            self.fenced_directives += 1
            return
        self.index = RoutingIndex.from_info(directive.info)
        self.fence_epoch = directive.epoch

    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            now = loop.time()
            beat = Heartbeat(
                server=self.server_id, time=now,
                load=float(self.served), relative_capacity=1.0,
            )
            frame = encode_frame(beat.to_wire())
            for replica in range(self.cfg.num_monitors):
                conn = self._mon_conns.get(replica)
                if conn is None:
                    try:
                        conn = await self.transport.connect(mon_addr(replica))
                        self._mon_conns[replica] = conn
                    except (ConnectionError, OSError):
                        continue  # replica down; retry next beat
                try:
                    await self.transport.send_control(
                        self.addr, mon_addr(replica), conn[1], frame
                    )
                except (ConnectionError, OSError):
                    self._mon_conns.pop(replica, None)
            await asyncio.sleep(self.cfg.heartbeat_interval)


class LiveMonitor:
    """A Monitor replica's network face: heartbeat sink + quorum probes.

    The replicated *state* (journal, epochs, lease, membership) lives in
    the shared :class:`MonitorGroup`; this class owns the replica's real
    socket. Only the current leader's endpoint feeds heartbeats into the
    group state — standbys accept the frames (the sender cannot know who
    leads) and drop them, exactly as the simulator models it.
    """

    def __init__(
        self, replica: int, transport: AsyncioTransport, group: MonitorGroup
    ) -> None:
        self.replica = replica
        self.addr = mon_addr(replica)
        self.transport = transport
        self.group = group
        self.heartbeats_seen = 0

    async def start(self) -> None:
        await self.transport.start_endpoint(self.addr, self._handle)

    async def crash(self) -> None:
        self.group.crash_monitor(self.replica)
        await self.transport.stop_endpoint(self.addr)

    async def recover(self) -> None:
        if not self.transport.is_listening(self.addr):
            await self.transport.start_endpoint(self.addr, self._handle)
        self.group.recover_monitor(self.replica)

    async def _handle(self, reader, writer) -> None:
        while True:
            payload = await read_frame(reader)
            if payload is None:
                return
            kind = payload.get("type")
            if kind == "heartbeat":
                self.heartbeats_seen += 1
                if (
                    self.group.replica_alive[self.replica]
                    and self.group.leader == self.replica
                ):
                    self.group.on_heartbeat(Heartbeat.from_wire(payload))
            elif kind == "ping":
                writer.write(encode_frame({"type": "pong"}))
                await writer.drain()


@dataclass
class ServeReport:
    """Outcome of one live run (the ``repro serve`` JSON shape)."""

    scheme: str
    trace: str
    num_servers: int
    num_monitors: int
    transport: str
    operations: int
    acked: int
    failed: int
    retries: int
    redirects: int
    duration: float
    throughput: float
    latency: Dict[str, float]
    per_server_served: List[int]
    epoch: int
    failovers: int
    fenced_directives: int
    aborted_directives: int
    journal_entries: int
    messages_dropped: int
    messages_delayed: int
    #: Ops whose retry budget/deadline ran out with a maybe-sent attempt.
    indeterminate: int = 0
    #: The client's inter-node index cache: ops that went straight to a
    #: cached owner / ops that fell back to a random entry server.
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    faults: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "trace": self.trace,
            "num_servers": self.num_servers,
            "num_monitors": self.num_monitors,
            "transport": self.transport,
            "operations": self.operations,
            "acked": self.acked,
            "failed": self.failed,
            "indeterminate": self.indeterminate,
            "retries": self.retries,
            "redirects": self.redirects,
            "index_cache_hits": self.index_cache_hits,
            "index_cache_misses": self.index_cache_misses,
            "duration": self.duration,
            "throughput": self.throughput,
            "latency": dict(self.latency),
            "per_server_served": list(self.per_server_served),
            "epoch": self.epoch,
            "failovers": self.failovers,
            "fenced_directives": self.fenced_directives,
            "aborted_directives": self.aborted_directives,
            "journal_entries": self.journal_entries,
            "messages_dropped": self.messages_dropped,
            "messages_delayed": self.messages_delayed,
            "faults": list(self.faults),
            "ok": self.ok,
            "violations": list(self.violations),
        }


class LiveCluster:
    """Boot, drive and fault a real-socket cluster for one workload.

    Lifecycle: :meth:`start` boots monitors and MDSs and broadcasts the
    initial routing index; the load generator then runs against
    the transport while :meth:`run_fault_plan` fires scheduled events;
    :meth:`quiesce` heals and re-admits everything; :meth:`stop` tears the
    sockets down. :func:`check_invariants` audits the end state.
    """

    def __init__(
        self, scheme: MetadataScheme, workload, cfg: Optional[LiveConfig] = None
    ) -> None:
        self.cfg = cfg or LiveConfig()
        self.scheme = scheme
        self.workload = workload
        self.tree = workload.tree
        self.placement = scheme.partition(self.tree, self.cfg.num_servers)
        self.transport = AsyncioTransport(
            mode=self.cfg.transport,
            socket_dir=self.cfg.socket_dir,
            host=self.cfg.host,
            seed=self.cfg.seed,
        )
        self.group = MonitorGroup(
            scheme,
            self.tree,
            self.placement,
            replicas=self.cfg.num_monitors,
            heartbeat_timeout=self.cfg.heartbeat_timeout,
            lease_timeout=self.cfg.lease_timeout,
            network=self.transport,
        )
        self.servers = [
            LiveMDS(sid, self.transport, self.cfg)
            for sid in range(self.cfg.num_servers)
        ]
        self.monitors = [
            LiveMonitor(replica, self.transport, self.group)
            for replica in range(self.cfg.num_monitors)
        ]
        self._driver_task: Optional[asyncio.Task] = None
        #: Servers evicted by detection and not yet re-admitted.
        self._evicted: Set[int] = set()
        #: True once any kill9-family fault wiped a volatile ack ledger —
        #: the legacy union ledger cross-check is then vacuous and skipped.
        self.volatile_wipe = False
        #: server id -> loop times of its volatile wipes, merged into the
        #: operation history so the audit excuses pre-wipe acks from that
        #: server's (storeless, hence lost) ledger.
        self.wipes: Dict[int, List[float]] = {}
        self.applied_faults: List[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        for monitor in self.monitors:
            await monitor.start()
        now = loop.time()
        for server in self.servers:
            self.group.expect(server.server_id, now)
            await server.start()
        await self._broadcast_ownership("bootstrap")
        self._driver_task = asyncio.create_task(self._monitor_driver())

    async def stop(self) -> None:
        if self._driver_task is not None:
            self._driver_task.cancel()
            self._driver_task = None
        for server in self.servers:
            if server.alive:
                server.alive = False
                if server._heartbeat_task is not None:
                    server._heartbeat_task.cancel()
                await server._close_mon_conns()
        await self.transport.close()

    # ------------------------------------------------------------------
    # Ownership broadcast (Monitor leader -> every live MDS)
    # ------------------------------------------------------------------
    def _ownership_directive(self, kind: str, server: int, now: float) -> Directive:
        return Directive(
            epoch=self.group.epoch, kind=kind, server=server, t=now,
            info=RoutingIndex.of(self.placement).to_info(),
        )

    async def _broadcast_ownership(
        self, kind: str, server: int = -1, only: Optional[Set[int]] = None
    ) -> None:
        """Push the current routing index to (live) MDSs.

        The whole index rather than deltas: broadcasts are rare (boot,
        re-home, rejoin, reconcile), the index is small (global layer +
        subtree roots, not the namespace), and a whole one makes every
        broadcast self-healing — an MDS that missed one converges on the
        next. Partitioned or muted targets simply don't get the frame;
        their index stays stale until the next broadcast after heal
        (clients absorb the mis-redirects by retrying).
        """
        loop = asyncio.get_running_loop()
        directive = self._ownership_directive(kind, server, loop.time())
        frame = encode_frame(directive.to_wire())
        src = mon_addr(self.group.leader)
        for mds in self.servers:
            if not mds.alive:
                continue
            if only is not None and mds.server_id not in only:
                continue
            try:
                reader, writer = await self.transport.connect(mds.addr)
            except (ConnectionError, OSError):
                continue
            try:
                await self.transport.send_control(src, mds.addr, writer, frame)
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()

    # ------------------------------------------------------------------
    # Monitor driver: lease ticks, detection, re-homing, rejoin
    # ------------------------------------------------------------------
    async def _monitor_driver(self) -> None:
        loop = asyncio.get_running_loop()
        interval = self.cfg.heartbeat_interval
        while True:
            await asyncio.sleep(interval)
            now = loop.time()
            self.group.tick(now)
            if not self.group.can_commit():
                continue
            for dead in self.group.detect_failures(now):
                await self._evict(dead, now)
            for sid in sorted(self._evicted):
                # Monitor.on_heartbeat clears the death mark when an evicted
                # server beats again — that flip is the rejoin signal.
                if not self.group.is_dead(sid):
                    await self._readmit(sid, now)

    async def _evict(self, dead: int, now: float) -> None:
        self.group.mark_dead(dead, now)
        self._evicted.add(dead)
        moves = fail_server(self.placement, dead)
        self.group.issue("rehome", now, server=dead, moves=len(moves))
        await self._broadcast_ownership("rehome", server=dead)

    async def _readmit(self, sid: int, now: float) -> None:
        self._evicted.discard(sid)
        self.group.mark_alive(sid, now)
        live = [
            s for s, cap in enumerate(self.placement.capacities)
            if cap > DEAD_CAPACITY
        ]
        moves = rejoin_server(
            self.placement, sid, capacity=1.0, live=sorted(set(live) | {sid})
        )
        self.group.issue("rejoin", now, server=sid, moves=len(moves))
        self.group.expect(sid, now)
        await self._broadcast_ownership("rejoin", server=sid)

    # ------------------------------------------------------------------
    # Fault application (the live face of the FaultPlan grammar)
    # ------------------------------------------------------------------
    async def apply_fault(self, event: FaultEvent) -> None:
        """Apply one fault event to the real cluster, now."""
        kind = event.kind
        self.applied_faults.append(event.describe())
        if kind is FaultKind.CRASH:
            await self.servers[event.server].crash()
        elif kind in (
            FaultKind.KILL9, FaultKind.TORN_WRITE, FaultKind.CORRUPT_RECORD
        ):
            # No durable store in live mode: the whole kill9 family loses
            # the volatile image (the torn/corrupt variants only differ in
            # what a WAL replay would face).
            self.volatile_wipe = True
            self.wipes.setdefault(event.server, []).append(
                asyncio.get_running_loop().time()
            )
            await self.servers[event.server].crash(wipe=True)
        elif kind is FaultKind.RECOVER:
            await self.servers[event.server].recover()
        elif kind is FaultKind.FAIL_SLOW:
            self.servers[event.server].slow_factor = event.factor
        elif kind is FaultKind.DROP_HEARTBEATS:
            self.transport.mute(mds_addr(event.server))
        elif kind is FaultKind.PARTITION:
            self.transport.partition(
                event.partition_name, event.partition_endpoints()
            )
        elif kind is FaultKind.HEAL:
            self.transport.heal(event.partition_name)
        elif kind is FaultKind.MONITOR_CRASH:
            await self.monitors[event.server].crash()
        elif kind is FaultKind.MONITOR_RECOVER:
            await self.monitors[event.server].recover()
        elif kind is FaultKind.LOSS:
            self.transport.set_loss(mds_addr(event.server), event.probability)
        elif kind is FaultKind.DELAY:
            self.transport.set_delay(mds_addr(event.server), event.delay)

    async def run_fault_plan(self, plan: FaultPlan, progress) -> None:
        """Fire the plan's events against the live cluster as load runs.

        ``progress`` is a zero-argument callable returning completed-op
        count (the load generator's ``completed`` property); ``at_ops``
        triggers compare against it, ``at_time`` against seconds since this
        coroutine started. Runs until every event has fired or the caller
        cancels it (the load drained).
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        pending = list(plan.events)
        while pending:
            done = progress()
            elapsed = loop.time() - started
            remaining: List[FaultEvent] = []
            for event in pending:
                due = (
                    event.at_ops is not None and done >= event.at_ops
                ) or (
                    event.at_time is not None and elapsed >= event.at_time
                )
                if due:
                    await self.apply_fault(event)
                else:
                    remaining.append(event)
            pending = remaining
            await asyncio.sleep(self.cfg.heartbeat_interval / 4)

    # ------------------------------------------------------------------
    # Quiescence (mirror of the chaos harness's _quiesce)
    # ------------------------------------------------------------------
    async def quiesce(self) -> None:
        """Heal every fault and drive membership back to fully-live.

        Invariants are only meaningful after this: mid-partition the
        cluster may be degraded, but once the faults clear it must
        converge — every server re-admitted, routing indexes reconciled.
        """
        loop = asyncio.get_running_loop()
        self.transport.heal(None)
        for monitor in self.monitors:
            await monitor.recover()
        now = loop.time()
        self.group.tick(now)
        for server in self.servers:
            self.transport.clear_endpoint(server.addr)
            server.slow_factor = 1.0
            if not server.alive:
                await server.recover()
        # Let heartbeats flow and the driver re-admit evicted servers; the
        # deadline bounds a wedged run instead of hanging the harness.
        deadline = loop.time() + 10 * self.cfg.heartbeat_timeout
        while loop.time() < deadline:
            if not self._evicted and not any(
                self.group.is_dead(s.server_id) for s in self.servers
            ):
                break
            await asyncio.sleep(self.cfg.heartbeat_interval)
        await self._broadcast_ownership("reconcile")
        await asyncio.sleep(2 * self.cfg.heartbeat_interval)


def check_invariants(cluster: LiveCluster, load_report) -> List[str]:
    """The chaos safety invariants, audited against a live cluster.

    State invariants 1–3 from the one shared checker, the accounting
    balance (4) sourced from the load report, plus the history audit
    (:func:`repro.chaos.history.audit_history`): exactly-once acks,
    completeness, per-server epoch-fence safety, and every acked op
    present in *its acking server's* ledger — strictly stronger than the
    old union-of-ledgers check, and still meaningful across kill9 wipes
    (a wiped server's pre-wipe acks are excused rather than the whole
    check being skipped). The union check remains as the fallback for
    reports without a recorded history.
    """
    # 1-3. Ownership, completeness, epoch monotonicity (shared with the
    #      chaos harness).
    violations = check_state_invariants(
        cluster.placement, cluster.tree, cluster.servers, cluster.group
    )

    # 4. Accounting balance at the clients (indeterminate ops are an
    #    explicit terminal outcome, not an accounting hole).
    issued = load_report.issued
    acked = len(load_report.acked_ids)
    failed = load_report.failed
    indeterminate = getattr(load_report, "indeterminate", 0)
    if acked + failed + indeterminate != issued:
        violations.append(
            f"accounting: issued={issued} but acked={acked} "
            f"+ failed={failed} + indeterminate={indeterminate} = "
            f"{acked + failed + indeterminate}"
        )

    # 5. History audit (exactly-once, completeness, epoch fences, per-op
    #    ledger containment with per-server wipe excuses); the pre-history
    #    union-of-ledgers check covers reports without one.
    history = getattr(load_report, "history", None)
    if history is not None and len(history):
        ledgers = {s.server_id: set(s.acked) for s in cluster.servers}
        violations.extend(
            audit_history(
                history,
                final_epoch=cluster.group.epoch,
                closed_loop=False,
                ledgers=ledgers,
                durable_ledgers=False,
                wipes=cluster.wipes,
            )
        )
    elif not cluster.volatile_wipe:
        server_acked: Set[int] = set()
        for server in cluster.servers:
            server_acked |= server.acked
        lost = sorted(load_report.acked_ids - server_acked)
        if lost:
            violations.append(
                f"ledger: {len(lost)} client-acknowledged ops missing from "
                f"every MDS ledger (e.g. ops {lost[:3]})"
            )
    return violations
