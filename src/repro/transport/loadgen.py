"""Client load generator for the live cluster.

Arrivals are a seeded Poisson process at a configured rate — open-loop, so
a slow or faulted cluster builds a backlog instead of silently throttling
the offered load. A bounded in-flight cap guards the event loop: the
generator is up to ``max_inflight`` *slots* that take operations in trace
order, each sleeping out its next operation's arrival offset and then
carrying it to a terminal outcome. Once every slot is busy the generator
is a closed loop of ``max_inflight`` clients; an operation that all
``max_inflight`` slots were too busy to start at its arrival time is
counted in ``saturated``.

Each operation gets a stable ``op_id`` before the first send. Retries,
redirects and duplicate deliveries all reuse it, and the MDS ack ledger is
keyed by it — that is the whole exactly-once accounting story: *issued ==
acked + failed + indeterminate* must hold at the clients no matter what
the network did, and every client-acknowledged id must appear in its
acking server's ledger.

Routing is the paper's (Sec. IV-A2): the client keeps an epoch-stamped LRU
cache of the inter-node index — subtree root → owner, learned from the
covering entry every reply carries. The longest cached prefix of a path
names the server to go to directly; a miss (a cold subtree, or a
global-layer path, which any MDS serves) goes to a random entry server. A
stale entry costs one redirect, which replaces it; an owner that refuses
the connection or times out is forgotten, so it is not retried per op.

Connections are multiplexed: one framed link per MDS shared by every
in-flight operation, with replies correlated back to waiters by ``op_id``
in the link callback that decodes them. A reset connection (the server
crashed) fails all its waiters, who retry against another entry server
with capped exponential backoff.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chaos.history import OpHistory
from repro.cluster.cache import LRUCache
from repro.cluster.index import covering_entry
from repro.cluster.messages import ClientReply, ClientRequest
from repro.simulation.stats import summarize_latencies
from repro.transport.asyncio_net import AsyncioTransport, FrameLink
from repro.transport.base import CLIENT_ADDR, mds_addr
from repro.transport.wire import encode_frame

__all__ = [
    "LoadConfig",
    "LoadReport",
    "LoadGenerator",
    "RequestUnsent",
    "latency_summary",
    "trace_ops",
]

#: Entries of the client's inter-node index cache (``SimClient``'s size).
INDEX_CACHE_SIZE = 512


class RequestUnsent(ConnectionError):
    """The attempt failed before anything reached the wire.

    Raised when the connect itself fails, or the link was already reset
    before the send — the cases where the client *knows* the request
    cannot have been applied. Every other failure (timeout, reset after
    send) may have been applied server-side, so an op that exhausts its
    budget with any such attempt must be recorded as indeterminate rather
    than failed.
    """


@dataclass
class LoadConfig:
    """Client-side knobs (wall-clock seconds throughout)."""

    #: Mean offered arrival rate, operations per second.
    rate: float = 4000.0
    #: Per-attempt reply timeout (a lost request or reply looks like this).
    request_timeout: float = 0.25
    #: Attempts per operation before it counts as failed.
    max_retries: int = 16
    retry_backoff_base: float = 0.002
    retry_backoff_cap: float = 0.1
    #: In-flight cap protecting the event loop; hitting it is reported as
    #: ``saturated`` (the run degraded from open- to closed-loop there).
    max_inflight: int = 1024
    #: Per-op wall-clock deadline: an op still retrying this long after its
    #: first attempt gives up even with retries left, so a long partition
    #: cannot pin clients forever. Exhaustion with any maybe-sent attempt
    #: is recorded as *indeterminate*, not failed.
    op_deadline: float = 5.0
    seed: int = 7


@dataclass
class LoadReport:
    """Client-side outcome of one live run."""

    issued: int = 0
    failed: int = 0
    #: Ops that exhausted their budget with at least one maybe-sent
    #: attempt — the client cannot know whether they were applied.
    indeterminate: int = 0
    retries: int = 0
    redirects: int = 0
    #: Operations that found all ``max_inflight`` slots busy at their
    #: arrival time (the cap delayed their start).
    saturated: int = 0
    #: First attempts routed by a cached index entry / sent to a random
    #: entry server for want of one.
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    duration: float = 0.0
    acked_ids: Set[int] = field(default_factory=set)
    indeterminate_ids: Set[int] = field(default_factory=set)
    latencies: List[float] = field(default_factory=list)
    #: Complete client-visible operation history (set by the generator).
    history: Optional[OpHistory] = None

    @property
    def acked(self) -> int:
        return len(self.acked_ids)

    @property
    def throughput(self) -> float:
        return self.acked / self.duration if self.duration > 0 else 0.0


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p95 / p99 over acked-op latencies (empty-safe), by the
    simulator's definition (interpolated percentiles), so a live run and a
    simulated one report the same statistic."""
    summary = summarize_latencies(latencies)
    return {
        "mean": summary.mean,
        "p50": summary.p50,
        "p95": summary.p95,
        "p99": summary.p99,
    }


def _expire(future: asyncio.Future) -> None:
    """Per-attempt reply timer: fail the waiter unless a reply beat it."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class _ServerConn:
    """One multiplexed client connection to an MDS endpoint.

    The link's callback routes reply frames to waiters by ``op_id``. When
    the link dies (server crash, aborted socket, a malformed reply) every
    waiter gets the connection error and the pool forgets the link; the
    next request reconnects lazily.
    """

    def __init__(self, transport: AsyncioTransport, server: int) -> None:
        self.transport = transport
        self.server = server
        self.addr = mds_addr(server)
        self._link: Optional[FrameLink] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._lock = asyncio.Lock()

    def _on_frame(self, link: FrameLink, wire) -> None:
        if wire[0] != ClientReply.TAG:
            return
        reply = ClientReply.from_wire(wire)
        # A reply whose waiter already timed out finds no entry (or a
        # settled future) and is dropped.
        future = self._pending.pop(reply.op_id, None)
        if future is not None and not future.done():
            future.set_result(reply)

    def _on_lost(self, link: FrameLink, exc) -> None:
        self._link = None
        self._fail_all(ConnectionResetError(f"{self.addr} link died"))

    def _fail_all(self, error: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
                # Mark the exception retrieved up front: a waiter that
                # already bailed on its own send error never awaits this
                # future, and an unretrieved exception would warn at GC.
                # Waiters still awaiting it receive the exception anyway.
                future.exception()
        self._pending.clear()

    async def request(
        self, request: ClientRequest, timeout: float
    ) -> ClientReply:
        """Send one request and await its correlated reply.

        Raises :class:`RequestUnsent` when the connect fails or the link
        is already closed (nothing hit the wire — determinately not
        applied), ``ConnectionError`` / ``OSError`` when the link died
        after the send may have started, and ``asyncio.TimeoutError`` when
        no reply lands in time (which is also what a fabric-dropped request
        or reply frame looks like).
        """
        link = self._link
        if link is None:
            async with self._lock:
                if self._link is None:
                    try:
                        self._link = await self.transport.dial(
                            self.addr, self._on_frame, self._on_lost
                        )
                    except (ConnectionError, OSError) as exc:
                        raise RequestUnsent(str(exc)) from exc
                link = self._link
        if link.closing:
            # Reset before this send (its loss not yet handled): nothing
            # reaches the wire, and the next attempt redials.
            raise RequestUnsent(f"{self.addr} link is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        op_id = request.op_id
        self._pending[op_id] = future
        timer = None
        try:
            # An unsent (fabric-lost) frame still waits out the timeout —
            # the client cannot know its request evaporated.
            await self.transport.send_data(
                CLIENT_ADDR, self.addr, link, encode_frame(request.to_wire())
            )
            # Armed once the send returns: a send blocked on a full socket
            # is not on the reply clock.
            timer = loop.call_later(timeout, _expire, future)
            return await future
        finally:
            if timer is not None:
                timer.cancel()
            self._pending.pop(op_id, None)

    def close(self) -> None:
        if self._link is not None:
            self._link.close()
            self._link = None
        self._fail_all(ConnectionResetError("client pool closed"))


class LoadGenerator:
    """Drive a list of trace operations through the live transport."""

    def __init__(
        self,
        transport: AsyncioTransport,
        num_servers: int,
        ops: Sequence[Tuple[int, str, str]],
        cfg: Optional[LoadConfig] = None,
    ) -> None:
        self.transport = transport
        self.num_servers = num_servers
        #: ``(op_id, path, op_value)`` triples, op_id stable across retries.
        self.ops = list(ops)
        self.cfg = cfg or LoadConfig()
        #: Client-visible operation history (invoke/ok/fail/indeterminate),
        #: audited by the live invariant check after quiescence.
        self.history = OpHistory()
        self.report = LoadReport(issued=len(self.ops), history=self.history)
        self._conns: Dict[int, _ServerConn] = {}
        self._done = 0
        #: Slots sleeping out the arrival offset of an operation they hold.
        self._waiting = 0
        #: subtree-root path -> (owner, epoch): the cached inter-node index.
        self.index_cache: LRUCache[str, Tuple[int, int]] = LRUCache(
            INDEX_CACHE_SIZE
        )

    @property
    def completed(self) -> int:
        """Operations finished (acked or failed) — the fault-plan clock."""
        return self._done

    def _conn(self, server: int) -> _ServerConn:
        conn = self._conns.get(server)
        if conn is None:
            conn = _ServerConn(self.transport, server)
            self._conns[server] = conn
        return conn

    def _learn(self, reply: ClientReply) -> None:
        """Cache the reply's covering index entry, unless it is older than
        the cached one (a stale server's view does not overwrite a newer)."""
        if reply.root and reply.owner >= 0:
            known = self.index_cache.peek(reply.root)
            if known is None or reply.epoch >= known[1]:
                self.index_cache.put(reply.root, (reply.owner, reply.epoch))

    def _forget(self, root: str, server: int) -> None:
        """Drop ``root``'s entry if it still names ``server`` (another
        in-flight op may have corrected it since this one read it)."""
        known = self.index_cache.peek(root)
        if known is not None and known[0] == server:
            self.index_cache.invalidate(root)

    # ------------------------------------------------------------------
    async def run(self) -> LoadReport:
        """Dispatch every operation on its Poisson arrival; await the tail."""
        cfg = self.cfg
        loop = asyncio.get_running_loop()
        rng = random.Random((cfg.seed << 12) ^ 0xA11CE)
        offsets: List[float] = []
        clock = 0.0
        for _ in self.ops:
            clock += rng.expovariate(cfg.rate)
            offsets.append(clock)
        # Entry servers are pre-drawn so the draw sequence is deterministic
        # regardless of how the in-flight operations interleave.
        entries = [rng.randrange(self.num_servers) for _ in self.ops]

        work = iter(zip(self.ops, offsets, entries))
        cap = min(cfg.max_inflight, len(self.ops))
        slots: List[asyncio.Task] = []
        started = loop.time()
        if cap > 0:
            slots.append(
                asyncio.create_task(self._slot(work, started, slots, cap))
            )
        for task in slots:  # grows while the early slots run
            await task
        self.report.duration = loop.time() - started
        self.report.index_cache_hits = self.index_cache.hits
        self.report.index_cache_misses = self.index_cache.misses
        await self.close()
        return self.report

    async def _slot(
        self, work, started: float, slots: List[asyncio.Task], cap: int
    ) -> None:
        """One in-flight slot: take the next operation, sleep out its
        arrival offset, carry it to a terminal outcome, repeat.

        ``work`` is the one cursor every slot shares, so operations start
        in trace order, each at max(its arrival offset, the moment a slot
        is free). Slots are spawned on demand up to ``cap``: a slot about
        to get busy makes sure another is lined up for the next arrival.
        """
        loop = asyncio.get_running_loop()
        for (op_id, path, op_value), offset, entry in work:
            lag = started + offset - loop.time()
            if lag > 0:
                self._waiting += 1
                await asyncio.sleep(lag)
                self._waiting -= 1
            elif len(slots) == cap:
                self.report.saturated += 1
            if not self._waiting and len(slots) < cap:
                slots.append(
                    asyncio.create_task(self._slot(work, started, slots, cap))
                )
            await self._run_op(op_id, path, op_value, entry)

    def _retry_rng(self, op_id: int) -> random.Random:
        return random.Random(
            (self.cfg.seed << 20) ^ (op_id * 2654435761 % 2**31)
        )

    async def _run_op(
        self, op_id: int, path: str, op_value: str, entry: int
    ) -> None:
        cfg = self.cfg
        loop = asyncio.get_running_loop()
        # Per-op RNG, built by the first retry: retry entry picks stay
        # deterministic under any interleaving (they never touch the
        # shared dispatch RNG), and an op that needs none seeds nothing.
        rng: Optional[random.Random] = None
        request = ClientRequest(op_id, path, op_value)
        start = loop.time()
        self.history.invoke(op_id, -1, start)
        deadline = start + cfg.op_deadline
        # Longest cached prefix -> straight to the owner; a miss (cold
        # subtree or global-layer path) -> the pre-drawn random entry.
        cached = covering_entry(path, self.index_cache.peek)
        root, target = (cached[0], cached[1][0]) if cached else ("", entry)
        # The op's one counting lookup (hits + misses == ops routed), which
        # also refreshes the entry's recency.
        self.index_cache.get(root or path)
        # True once any attempt may have reached a server (sent then timed
        # out / reset) — the client can no longer prove the op unapplied.
        maybe_applied = False
        attempts = 0
        try:
            for attempt in range(cfg.max_retries):
                if loop.time() >= deadline:
                    break
                attempts += 1
                try:
                    reply = await self._conn(target).request(
                        request, cfg.request_timeout
                    )
                except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                    # A connect failure never hit the wire (determinately
                    # not applied); anything later may have been applied.
                    maybe_applied |= not isinstance(exc, RequestUnsent)
                    self.report.retries += 1
                    # The index entry that led here names a dead or silent
                    # owner: forget it rather than retry it per op.
                    self._forget(root, target)
                    root = ""
                    backoff = min(
                        cfg.retry_backoff_cap,
                        cfg.retry_backoff_base * (2 ** attempt),
                    )
                    rng = rng or self._retry_rng(op_id)
                    await asyncio.sleep(backoff * (0.5 + rng.random()))
                    target = rng.randrange(self.num_servers)
                    continue
                if reply.status == "ack":
                    self._learn(reply)
                    now = loop.time()
                    self.report.acked_ids.add(op_id)
                    self.report.latencies.append(now - start)
                    self.history.ok(op_id, -1, now, reply.server, reply.epoch)
                    return
                # A cached owner that does not ack has disowned the subtree:
                # the entry is stale whatever the reply teaches in its place.
                self._forget(root, target)
                root = ""
                if reply.status == "redirect" and reply.owner >= 0:
                    self.report.redirects += 1
                    self._learn(reply)
                    root, target = reply.root, reply.owner
                    continue
                # "error" (no routing entry yet) or a bogus redirect:
                # try another entry server after a short backoff. The
                # server answered, so the op was determinately not applied
                # by this attempt.
                self.report.retries += 1
                rng = rng or self._retry_rng(op_id)
                await asyncio.sleep(
                    cfg.retry_backoff_base * (0.5 + rng.random())
                )
                target = rng.randrange(self.num_servers)
            if maybe_applied:
                self.report.indeterminate += 1
                self.report.indeterminate_ids.add(op_id)
                self.history.indeterminate(op_id, -1, loop.time(), attempts)
            else:
                self.report.failed += 1
                self.history.fail(op_id, -1, loop.time(), attempts)
        finally:
            self._done += 1

    async def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()


def trace_ops(trace) -> List[Tuple[int, str, str]]:
    """Flatten a Trace into ``(op_id, path, op_value)`` triples.

    Op ids are the record's position in the trace — the same identity the
    simulator's accounting uses, which is what makes the live and simulated
    acked-op sets directly comparable.
    """
    return [
        (index, record.path, record.op.value)
        for index, record in enumerate(trace)
    ]
