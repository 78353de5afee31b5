"""Live cluster mode: MDS and Monitor nodes on real asyncio sockets.

This is the "one step more real" execution mode behind the unified
:class:`~repro.transport.base.FaultFabric` fault surface. Every metadata server and
Monitor replica has its own listening socket on the
:class:`~repro.transport.asyncio_net.AsyncioTransport`, and answers each
frame in the :class:`~repro.transport.asyncio_net.FrameLink` callback that
decoded it; clients (the load generator, ``repro.transport.loadgen``) speak
the framed, schema-versioned wire form of :mod:`repro.cluster.messages`.
Faults come from the same ``FaultPlan`` grammar the simulator replays,
through the same applier — but here the state change a ``crash`` makes is
followed by closing the listening socket and aborting its connections, a
partition silences real frames, and detection/failover run against the wall
clock.

What is deliberately shared with the simulator rather than re-implemented:

* **Placement** — the scheme's ``partition`` builds the same authoritative
  :class:`~repro.placement.Placement`.
* **Fault application, evict, readmit and quiesce** — one
  :class:`~repro.cluster.control.ClusterControl` over this cluster's
  :class:`~repro.cluster.mds.MetadataServer` states, fault fabric and
  Monitor group decides; :class:`LiveCluster` only reconciles sockets with
  the state each decision left behind and broadcasts the routing index
  when the placement moved.
* **The Monitor group state machine** — leases, quorum gating, epochs and
  the directive journal are :class:`~repro.cluster.monitor.MonitorGroup`
  verbatim; the live replicas are its network faces. Quorum checks read
  reachability from the shared fault fabric, so a partition that strands
  the leader aborts its directives here exactly as in the simulator.
* **The run audit** — :func:`repro.chaos.harness.check_run` judges a
  quiesced live run exactly as it judges a simulated one, over the shared
  control plane and the load generator's op log, with each MDS's ack
  ledger (``LiveMDS.acked``) as the ledgers.

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

from repro.cluster.control import ClusterControl
from repro.cluster.index import RoutingIndex
from repro.cluster.mds import MetadataServer
from repro.cluster.messages import (
    ClientReply,
    ClientRequest,
    Directive,
    Heartbeat,
    from_wire,
)
from repro.cluster.monitor import MonitorGroup
from repro.placement import MetadataScheme
from repro.simulation.faults import FaultEvent, FaultPlan
from repro.transport.asyncio_net import AsyncioTransport, FrameLink, LinkClosed
from repro.transport.base import CLIENT_ADDR, mds_addr, mon_addr
from repro.transport.wire import encode_frame

__all__ = [
    "LiveConfig",
    "LiveMDS",
    "LiveMonitor",
    "LiveCluster",
    "ServeReport",
]


#: Extra service time per request on a ``fail_slow`` server, per factor
#: unit.
SLOW_UNIT = 0.001


def _discard(link: FrameLink, wire) -> None:
    """``on_frame`` of an outbound control link: nothing answers on one."""


@dataclass
class LiveConfig:
    """Tunables of the live cluster (wall-clock seconds throughout)."""

    num_servers: int = 3
    num_monitors: int = 3
    transport: str = "unix"          # "unix" | "tcp"
    socket_dir: Optional[str] = None
    host: str = "127.0.0.1"
    #: MDS → Monitor heartbeat cadence and the leader's eviction timeout.
    #: The timeout is five intervals here and three in the simulator
    #: (``SimulationConfig``: 0.15 s): a live heartbeat is a task on the
    #: event loop that serves the load, and a saturated loop can delay it
    #: by whole intervals, while simulated heartbeats land on their grid. A
    #: run description that sets the clocks (``CorpusCase``) gives both
    #: legs the same values; these are only what ``serve`` / ``validate``
    #: run when no flag sets them.
    heartbeat_interval: float = 0.05
    heartbeat_timeout: float = 0.25
    #: Standby takeover after the leader is dead/quorumless this long
    #: (None = 2x heartbeat_timeout, the MonitorGroup default).
    lease_timeout: Optional[float] = None
    #: Artificial per-request service time (0 = serve at socket speed).
    service_time: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        # A Monitor round just before a beat finds a live server silent for
        # nearly two intervals: a shorter timeout can evict them all.
        if 0 < self.heartbeat_interval and self.heartbeat_timeout < 2 * self.heartbeat_interval:
            raise ValueError(
                f"heartbeat timeout {self.heartbeat_timeout:g} s must be at least twice "
                f"the heartbeat interval {self.heartbeat_interval:g} s in live mode"
            )


class LiveMDS:
    """One metadata server: a listening socket plus a heartbeat task.

    Serves framed :class:`ClientRequest`\\ s (ack if the index says this
    server may, redirect otherwise), applies epoch-fenced ownership
    :class:`Directive`\\ s, and heartbeats every Monitor replica through
    the fault fabric. A request is answered inside the link callback that
    decoded it; service time, a ``fail_slow`` surcharge and a fabric delay
    on the reply are spent with the link *held* (see :meth:`_on_frame`).
    Liveness, slowness and the epoch fence live in
    ``state`` — the :class:`MetadataServer` the shared control plane
    mutates; :meth:`sync` makes the socket follow it. The ack ledger
    (``acked``) is keyed by client-assigned op id, so a retried or
    redirected op is acknowledged exactly once no matter how many times its
    frames crossed the wire.
    """

    def __init__(
        self, server_id: int, transport: AsyncioTransport, cfg: LiveConfig
    ) -> None:
        self.server_id = server_id
        self.addr = mds_addr(server_id)
        self.transport = transport
        self.cfg = cfg
        self.state = MetadataServer(server_id)
        #: Two-layer routing index (replaced by each ownership broadcast).
        self.index = RoutingIndex()
        #: Client-assigned ids of every op this server acknowledged.
        self.acked: Set[int] = set()
        self.served = 0
        self.redirects = 0
        self._heartbeat_task: Optional[asyncio.Task] = None
        #: replica id -> the open heartbeat link.
        self._mon_links: Dict[int, FrameLink] = {}

    # ------------------------------------------------------------------
    async def sync(self) -> None:
        """Make the process follow ``state``: listen and heartbeat while
        alive; closed socket and aborted connections while down; and after
        a ``kill9`` the volatile image — routing index and ack ledger — is
        gone (live mode runs storeless, so nothing replays them)."""
        listening = self.transport.is_listening(self.addr)
        if self.state.alive and not listening:
            await self.transport.listen(self.addr, self._on_frame)
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        elif listening and not self.state.alive:
            await self.stop()
        if self.state.lost_volatile:
            self.index = RoutingIndex()
            self.acked = set()

    async def stop(self) -> None:
        """Stop serving: close the real socket, abort real connections."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        for link in self._mon_links.values():
            link.close()
        self._mon_links.clear()
        await self.transport.stop_endpoint(self.addr)

    # ------------------------------------------------------------------
    def _on_frame(self, link: FrameLink, wire) -> None:
        """One inbound frame (client pool or Monitor leader), handled in the
        callback that decoded it.

        A request that takes time — ``service_time``, a ``fail_slow``
        surcharge — holds its link for that long: the link decodes nothing
        more meanwhile, and stops reading its socket once 128 KiB are
        buffered, so a slow server's backlog waits in socket buffers, not
        in this process.

        A request-tagged frame goes straight to
        :meth:`ClientRequest.from_wire`; any other tag goes through
        :func:`from_wire`, so an unknown tag is its ``ValueError`` and the
        link drops.
        """
        if wire[0] == ClientRequest.TAG:
            request = ClientRequest.from_wire(wire)
            delay = self.cfg.service_time
            slow_factor = self.state.slow_factor
            if slow_factor > 1.0:
                delay += (slow_factor - 1.0) * SLOW_UNIT
            if delay > 0:
                link.hold()
                asyncio.get_running_loop().call_later(
                    delay, self._answer, link, request
                )
            else:
                self._answer(link, request)
            return
        message = from_wire(wire)
        if isinstance(message, Directive):
            self._apply_directive(message)

    def _answer(self, link: FrameLink, request: ClientRequest) -> None:
        # A server that crashed while the request was in service has a
        # closed link, and a dead process acks and writes nothing. On a
        # fault-free fabric the reply's write is the one check.
        transport = self.transport
        faulty = transport.faulty
        if faulty and link.closing:
            return
        status, owner, root = self.route(request)
        frame = ClientReply.frame(
            request.op_id, status, self.server_id,
            owner, self.state.fence_epoch, root,
        )
        # Replies ride the data plane: loss/delay installed on this server's
        # links applies to them too (a lost ack looks like a client timeout,
        # and the retry is absorbed by the idempotent ack ledger). A delayed
        # reply keeps the link held until it is written.
        wait = transport.data_verdict(self.addr, CLIENT_ADDR) if faulty else 0.0
        if wait == 0.0:
            try:
                link.write(frame)
            except LinkClosed:
                return
        if status == "ack" and request.op_id not in self.acked:
            self.acked.add(request.op_id)
            self.served += 1
        elif status == "redirect":
            self.redirects += 1
        if wait:  # neither written nor dropped: delayed
            link.hold()
            asyncio.get_running_loop().call_later(wait, _write_late, link, frame)
            return
        link.release()

    def route(self, request: ClientRequest) -> Tuple[str, int, str]:
        """``(status, owner, root)`` of the reply to ``request``.

        Any replica acks a global-layer read; an ``update`` is the
        primary's alone. A server that may not ack redirects to the primary.
        A local-layer path is its longest indexed prefix's (``root``'s).
        """
        servers = self.index.global_layer.get(request.path)
        if servers is not None:
            root = ""
            if request.op != "update" and self.server_id in servers:
                owner = self.server_id
            else:
                owner = servers[0]
        else:
            roots = self.index.roots
            root = request.path
            while (owner := roots.get(root)) is None:
                if len(root) <= 1:
                    # No covering entry (fresh after kill9, or a path this
                    # index never learned): retryable elsewhere.
                    return "error", -1, ""
                root = root[: root.rfind("/")] or "/"
        status = "ack" if owner == self.server_id else "redirect"
        return status, owner, root

    def _apply_directive(self, directive: Directive) -> None:
        """Apply an ownership broadcast — unless its epoch is fenced out."""
        # Decode first: a malformed index must not ratchet the fence.
        index = RoutingIndex.from_info(directive.info)
        if self.state.accept_directive(directive.epoch):
            self.index = index

    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            frame = encode_frame(Heartbeat(self.server_id, loop.time()).to_wire())
            for replica in range(self.cfg.num_monitors):
                endpoint = mon_addr(replica)
                link = self._mon_links.get(replica)
                if link is None or link.closing:
                    try:
                        link = await self.transport.dial(endpoint, _discard)
                    except (ConnectionError, OSError):
                        self._mon_links.pop(replica, None)
                        continue  # replica down; retry next beat
                    self._mon_links[replica] = link
                try:
                    await self.transport.send_control(
                        self.addr, endpoint, link, frame
                    )
                except (ConnectionError, OSError):
                    self._mon_links.pop(replica, None)
            await asyncio.sleep(self.cfg.heartbeat_interval)


def _write_late(link: FrameLink, frame: bytes) -> None:
    """Write a reply the fabric delayed, unless its link died meanwhile."""
    if not link.closing:
        link.write(frame)
    link.release()


class LiveMonitor:
    """A Monitor replica's network face: its socket and heartbeat sink.

    The replicated *state* (journal, epochs, lease, membership) lives in
    the shared :class:`MonitorGroup`; this class owns the replica's real
    socket, which :meth:`sync` opens and closes as the group's
    ``replica_alive`` flag says. Only the current leader's endpoint feeds
    heartbeats into the control plane — standbys accept the frames (the
    sender cannot know who leads) and drop them, exactly as the simulator
    models it.
    """

    def __init__(
        self, replica: int, transport: AsyncioTransport, control: ClusterControl
    ) -> None:
        self.replica = replica
        self.addr = mon_addr(replica)
        self.transport = transport
        self.control = control
        self.group = control.monitor

    async def sync(self) -> None:
        listening = self.transport.is_listening(self.addr)
        if self.group.replica_alive[self.replica] and not listening:
            await self.transport.listen(self.addr, self._on_frame)
        elif listening and not self.group.replica_alive[self.replica]:
            await self.transport.stop_endpoint(self.addr)

    def _on_frame(self, link: FrameLink, wire) -> None:
        message = from_wire(wire)
        if (
            isinstance(message, Heartbeat)
            and self.group.replica_alive[self.replica]
            and self.group.leader == self.replica
        ):
            self.control.on_heartbeat(message)


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
    sockets down. :func:`repro.chaos.harness.check_run` audits the end
    state.

    Every membership decision is :attr:`control`'s; after each call into
    it, :meth:`_reconcile` makes the sockets match the state it left. A
    decision and its reconcile run under one lock: the fault plan, the
    Monitor driver and quiesce all make them, and a reconcile awaits.
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
        #: Set while the placement has changed since the last ownership
        #: broadcast.
        moved = self._moved = asyncio.Event()
        moved.set()
        #: The shared control plane over the MDS states. Set its
        #: ``history`` to the load generator's: kill9 wipes land in it, and
        #: the run audit reads it. Live mode runs storeless.
        self.control = ClusterControl(
            [mds.state for mds in self.servers], self.placement, self.group,
            self.transport, store=None,
            on_moves=lambda moves, now: moved.set(),
        )
        self.monitors = [
            LiveMonitor(replica, self.transport, self.control)
            for replica in range(self.cfg.num_monitors)
        ]
        self._driver_task: Optional[asyncio.Task] = None
        self._deciding = asyncio.Lock()
        self.applied_faults: List[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        async with self._deciding:
            now = asyncio.get_running_loop().time()
            for server in self.servers:
                self.group.expect(server.server_id, now)
            await self._reconcile()
        self._driver_task = asyncio.create_task(self._monitor_driver())

    async def stop(self) -> None:
        if self._driver_task is not None:
            self._driver_task.cancel()
            self._driver_task = None
        for server in self.servers:
            await server.stop()
        await self.transport.close()

    async def _reconcile(self) -> None:
        """Socket effect of a control-plane state change.

        Monitor endpoints follow ``replica_alive``, MDS endpoints follow
        ``MetadataServer.alive`` (dropping the volatile image after a
        ``kill9``), and a moved placement is broadcast as a fresh routing
        index. Callers hold ``_deciding``.
        """
        for node in (*self.monitors, *self.servers):
            await node.sync()
        if self._moved.is_set():
            self._moved.clear()
            await self._broadcast_ownership()

    # ------------------------------------------------------------------
    # Ownership broadcast (Monitor leader -> every live MDS)
    # ------------------------------------------------------------------
    def _ownership_directive(self, now: float) -> Directive:
        return Directive(
            epoch=self.group.epoch, kind="ownership", server=-1, t=now,
            info=RoutingIndex.of(self.placement).to_info(),
        )

    async def _broadcast_ownership(self) -> None:
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
        directive = self._ownership_directive(loop.time())
        frame = encode_frame(directive.to_wire())
        src = mon_addr(self.group.leader)
        for mds in self.servers:
            if not mds.state.alive:
                continue
            try:
                link = await self.transport.dial(mds.addr, _discard)
            except (ConnectionError, OSError):
                continue
            try:
                await self.transport.send_control(src, mds.addr, link, frame)
            except (ConnectionError, OSError):
                pass
            finally:
                link.close()

    # ------------------------------------------------------------------
    # Control-plane drivers: the heartbeat-grid round, scheduled faults
    # ------------------------------------------------------------------
    async def _monitor_driver(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.cfg.heartbeat_interval)
            async with self._deciding:
                self.control.round(loop.time())
                await self._reconcile()

    async def apply_fault(self, event: FaultEvent) -> None:
        """Apply one fault event to the real cluster, now."""
        loop = asyncio.get_running_loop()
        self.applied_faults.append(event.describe())
        async with self._deciding:
            self.control.apply_fault(event, loop.time())
            await self._reconcile()

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

    async def quiesce(self) -> None:
        """Heal every fault and drive membership back to fully-live.

        Invariants are only meaningful after this: mid-partition the
        cluster may be degraded, but once the faults clear it must
        converge — every server re-admitted, routing indexes reconciled.
        """
        loop = asyncio.get_running_loop()
        async with self._deciding:
            self.control.quiesce(loop.time())
            self._moved.set()  # reconcile every index, moved or not
            await self._reconcile()
        # Let heartbeats flow again; should a detection round still evict
        # someone, the driver re-admits them on their next beat. The
        # deadline bounds a wedged run instead of hanging the harness.
        await asyncio.sleep(2 * self.cfg.heartbeat_interval)
        deadline = loop.time() + 10 * self.cfg.heartbeat_timeout
        while loop.time() < deadline and any(
            self.group.is_dead(s.server_id) for s in self.servers
        ):
            await asyncio.sleep(self.cfg.heartbeat_interval)
