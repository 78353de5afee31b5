"""Client load generator for the live cluster.

Arrivals are a seeded Poisson process at a configured rate — open-loop, so
a slow or faulted cluster builds a backlog instead of silently throttling
the offered load. A bounded in-flight cap guards the event loop: the
generator is up to ``max_inflight`` *slots* that take operations in trace
order, each waiting out its next operation's arrival offset and then
carrying it to a terminal outcome. Once every slot is busy the generator
is a closed loop of ``max_inflight`` clients; an operation that all
``max_inflight`` slots were too busy to start at its arrival time is
counted in ``saturated``.

A slot is a chain of callbacks, not a task, and an operation in flight is
one :class:`_Op` record. Whichever callback decides an operation's next
step advances it: the reply's ``on_frame``, the link's ``on_lost``, the
link's deadline sweep, or a ``call_at`` for an arrival offset or a retry
backoff. An ack settles its operation and takes the slot's next one inside
the callback that decoded it, so a fault-free operation costs no task
wake-up, future, timer handle or coroutine frame. The only task the
generator creates is a dial, at most one per MDS at a time.

The trace is read from its columns: an operation's ``op_id`` is its
position in the trace, and its path and op type are read when a slot takes
it. Each operation gets that stable ``op_id`` before the first send. Retries,
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
global-layer ``update`` is its primary's alone: the redirect that names the
primary (a reply with no ``root``) is cached too, by path, in a second
bounded map, so the next update on that path goes straight there; reads
and writes keep their random entry. A stale entry costs one redirect,
which replaces it; an owner or primary that refuses the connection, times
out or does not ack is forgotten, so it is not retried per op.

Connections are multiplexed: one framed link per MDS shared by every
in-flight operation, with replies correlated back to operations by
``op_id``. Every attempt waits the same ``request_timeout`` from the
moment its send returns, so the attempts on one link fall due in the order
their clocks started, and one timer per link, at the earliest deadline,
expires them. A reset connection (the server crashed) fails all its
attempts, which retry against another entry server with capped
exponential backoff.
"""

from __future__ import annotations

import asyncio
import random
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import count, islice, repeat
from math import log
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.history import OpHistory
from repro.cluster.cache import LRUCache
from repro.cluster.client import INDEX_CACHE_SIZE, retry_backoff
from repro.cluster.index import covering_entry
from repro.cluster.messages import ClientReply, ClientRequest
from repro.simulation.stats import summarize_latencies
from repro.traces.trace import OP_VALUES, Trace
from repro.transport.asyncio_net import AsyncioTransport, FrameLink, LinkClosed
from repro.transport.base import CLIENT_ADDR, mds_addr

__all__ = [
    "LoadConfig",
    "LoadReport",
    "LoadGenerator",
    "latency_summary",
]


#: Per-op wall-clock deadline: an op still retrying this long after its
#: first attempt gives up even with retries left, so a long partition cannot
#: pin clients forever. Exhaustion with any maybe-sent attempt is recorded
#: as *indeterminate*, not failed.
OP_DEADLINE = 5.0


@dataclass
class LoadConfig:
    """Client-side knobs (wall-clock seconds throughout)."""

    #: Mean offered arrival rate, operations per second.
    rate: float = 4000.0
    #: Per-attempt reply timeout (a lost request or reply looks like this).
    request_timeout: float = 0.25
    #: Attempts per operation before it counts as failed; attempt k waits
    #: ``repro.cluster.client.retry_backoff(k)`` before the next.
    max_retries: int = 16
    #: In-flight cap protecting the event loop; hitting it is reported as
    #: ``saturated`` (the run degraded from open- to closed-loop there).
    max_inflight: int = 1024
    seed: int = 7


@dataclass
class LoadReport:
    """Client-side outcome of one live run."""

    issued: int = 0
    #: Operations that found all ``max_inflight`` slots busy at their
    #: arrival time (the cap delayed their start).
    saturated: int = 0
    #: First attempts routed by a cached index entry / not (a random entry
    #: server, or a global-layer update's learned primary).
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    duration: float = 0.0
    #: The run's op log; the outcomes below are read off its fold.
    history: OpHistory = field(default_factory=OpHistory)
    #: ``ok.t - invoke.t`` of the acked ops, in ack order.
    latencies: array = field(default_factory=lambda: array("d"))

    acked = property(lambda self: self.history.acked)
    failed = property(lambda self: self.history.fails)
    #: Ops that exhausted their budget with at least one maybe-sent
    #: attempt — the client cannot know whether they were applied.
    indeterminate = property(lambda self: self.history.indeterminates)
    retries = property(lambda self: self.history.retries)
    #: Redirects taken, by acked and abandoned ops alike (each live jump
    #: is one).
    redirects = property(lambda self: self.history.jumps)

    @property
    def throughput(self) -> float:
        return self.acked / self.duration if self.duration > 0 else 0.0


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p95 / p99 over acked-op latencies (empty-safe), by the
    simulator's definition (interpolated percentiles), so a live run and a
    simulated one report the same statistic. ``latencies`` is left in ack
    order: the summary sorts a copy."""
    summary = summarize_latencies(array("d", latencies))
    return {
        "mean": summary.mean,
        "p50": summary.p50,
        "p95": summary.p95,
        "p99": summary.p99,
    }


def _learn(cache: LRUCache, key: str, reply: ClientReply) -> None:
    """Cache ``key -> (reply.owner, reply.epoch)``, unless the cached entry
    is newer (a stale server's view does not overwrite a newer)."""
    known = cache.peek(key)
    if known is None or reply.epoch >= known[1]:
        cache.put(key, (reply.owner, reply.epoch))


class _Op:
    """One operation in flight: everything its next step needs."""

    __slots__ = (
        "op_id", "frame", "start", "deadline", "root", "target", "attempts",
        "jumps", "maybe_applied", "rng", "expires", "reply",
    )

    def __init__(
        self, op_id: int, frame: bytes, start: float, root: str, target: int
    ) -> None:
        self.op_id = op_id
        #: The request, encoded once: retries and redirects resend it as is.
        self.frame = frame
        #: Its invoke time: the ack's latency is measured from here.
        self.start = start
        #: ``OP_DEADLINE`` past the start: no attempt begins after it.
        self.deadline = start + OP_DEADLINE
        #: The cached key that chose ``target`` ("" for none): an index
        #: entry's root, or a global-layer path with a learned primary.
        self.root = root
        self.target = target
        self.attempts = 0
        #: Redirects taken: server visits beyond the first.
        self.jumps = 0
        #: True once any attempt may have reached a server (sent, then
        #: timed out or reset): the client can no longer prove it unapplied.
        self.maybe_applied = False
        #: Per-op retry RNG, built by the first retry: retry entry picks
        #: stay deterministic under any interleaving (they never touch the
        #: shared dispatch RNG), and an op that needs none seeds nothing.
        self.rng: Optional[random.Random] = None
        #: Reply deadline of the attempt waiting on a link.
        self.expires = 0.0
        #: A reply that landed while the attempt's send was still held.
        self.reply: Optional[ClientReply] = None


class _ServerConn:
    """One multiplexed client connection to an MDS endpoint.

    ``armed`` maps op id → operation for every attempt on the link whose
    reply clock runs, in the order the clocks started. Every attempt waits
    the same ``request_timeout`` from a monotonic clock, so that order is
    deadline order: ``armed`` is the link's deadline FIFO, and one timer,
    at its head's deadline, sweeps it. A reply, an expiry or the link's
    loss takes its attempt out at once, so each attempt settles exactly
    once and the FIFO never holds more than the attempts in flight.

    An attempt's clock starts when its send returns — as it would for an
    awaited ``send_data`` — so a send the fabric delays, or one blocked on
    a full socket, waits in ``held`` instead. A reply that lands meanwhile
    is kept on the operation and settles it once the send returns; if the
    send fails instead, the attempt fails and the reply does not count.

    While the link is being dialed, sends queue; the dial sends them or,
    refused, fails them all as unsent. When the link dies, every armed
    attempt fails (a held one fails with its send) and the next send
    redials.
    """

    __slots__ = (
        "gen", "server", "addr", "link", "armed", "held", "queued",
        "dialing", "timer",
    )

    def __init__(self, gen: "LoadGenerator", server: int) -> None:
        self.gen = gen
        self.server = server
        self.addr = mds_addr(server)
        self.link: Optional[FrameLink] = None
        self.armed: Dict[int, _Op] = {}
        self.held: Dict[int, _Op] = {}
        self.queued: List[_Op] = []
        self.dialing: Optional[asyncio.Task] = None
        self.timer: Optional[asyncio.TimerHandle] = None

    def send(self, op: _Op) -> None:
        """Put ``op``'s current attempt on its way to the server."""
        link = self.link
        if link is None:
            self.queued.append(op)
            if self.dialing is None:
                self.dialing = self.gen._loop.create_task(self._dial())
            return
        transport = self.gen.transport
        if transport.faulty:
            if link.closing:  # reset: unsent, and the fabric draws nothing
                self.gen._attempt_failed(op, False)
                return
            wait = transport.data_verdict(CLIENT_ADDR, self.addr)
            if wait is None:
                # A fabric-lost frame still waits out its timeout: the
                # client cannot know its request evaporated.
                self._arm(op)
                return
            if wait > 0:
                self.held[op.op_id] = op
                self.gen._later(wait, self._write, link, op)
                return
        self._write(link, op)

    def _write(self, link: FrameLink, op: _Op) -> None:
        # This send may run inside another link's reply callback: an error
        # is this attempt's, and must not close that link.
        try:
            drained = link.write(op.frame)
        except LinkClosed:
            if op.op_id in self.held:  # a send the fabric delayed
                self._send_failed(op)
            else:
                # Reset before this send (its loss not yet handled): nothing
                # reached the wire, and the next attempt redials.
                self.gen._attempt_failed(op, False)
            return
        except (ConnectionError, OSError):
            self._send_failed(op)
            return
        if drained:
            if self.held:
                self.held.pop(op.op_id, None)
            self._arm(op)
        else:
            self.held[op.op_id] = op
            link.when_drained(
                partial(self.gen._guarded, self._drained, link, op)
            )

    def _drained(self, link: FrameLink, op: _Op) -> None:
        if link.closing:  # woken by the loss
            self._send_failed(op)
        else:
            del self.held[op.op_id]
            self._arm(op)

    def _send_failed(self, op: _Op) -> None:
        """The send itself failed: it may have reached the server, and a
        reply it caught while held does not count."""
        self.held.pop(op.op_id, None)
        op.reply = None
        self.gen._attempt_failed(op, True)

    def _arm(self, op: _Op) -> None:
        """The send returned: settle the attempt on a reply that came while
        it was held, or start its reply clock."""
        gen = self.gen
        reply = op.reply
        if reply is not None:
            op.reply = None
            gen._on_reply(op, reply)
            return
        op.expires = expires = gen._loop.time() + gen.cfg.request_timeout
        self.armed[op.op_id] = op
        if self.timer is None:
            self.timer = gen._loop.call_at(expires, gen._guarded, self._sweep)

    def _sweep(self) -> None:
        """Expire every attempt past its deadline; re-arm at the next."""
        self.timer = None
        gen = self.gen
        now = gen._loop.time()
        expired = []
        for op in self.armed.values():
            if op.expires > now:
                self.timer = gen._loop.call_at(
                    op.expires, gen._guarded, self._sweep
                )
                break
            expired.append(op)
        for op in expired:
            del self.armed[op.op_id]
            gen._attempt_failed(op, True)

    async def _dial(self) -> None:
        gen = self.gen
        try:
            link = await gen.transport.dial(
                self.addr, self._on_frame, self._on_lost
            )
        except (ConnectionError, OSError):
            link = None
        self.dialing = None
        queued, self.queued = self.queued, []
        try:
            if link is None or link.closing:
                # Refused, or reset before its first send: nothing of
                # these attempts reached the wire.
                for op in queued:
                    gen._attempt_failed(op, False)
            else:
                self.link = link
                for op in queued:
                    self.send(op)
        except Exception as error:  # unexpected: ends run()
            gen._abort(error)

    def _on_frame(self, link: FrameLink, wire) -> None:
        if wire[0] != ClientReply.TAG:
            return
        reply = ClientReply.from_wire(wire)
        op = self.armed.pop(reply.op_id, None)
        if op is None:
            # The attempt's send is still held: the first reply waits for
            # it. Otherwise the attempt already settled (a reply after its
            # timeout, a duplicate) and the reply is dropped.
            op = self.held.get(reply.op_id)
            if op is not None and op.reply is None:
                op.reply = reply
            return
        try:
            self.gen._on_reply(op, reply)
        except Exception as error:  # unexpected: ends run()
            self.gen._abort(error)

    def _on_lost(self, link: FrameLink, exc) -> None:
        if link is not self.link:
            return
        self.link = None
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        lost = list(self.armed.values())
        self.armed.clear()
        try:
            for op in lost:
                self.gen._attempt_failed(op, True)
        except Exception as error:  # unexpected: ends run()
            self.gen._abort(error)

    def close(self) -> Optional[asyncio.Task]:
        """Hang up and drop every attempt; the dial still running, if any,
        is cancelled and returned for the caller to await."""
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if self.link is not None:
            link, self.link = self.link, None
            link.close()
        self.armed.clear()
        self.held.clear()
        self.queued.clear()
        dialing, self.dialing = self.dialing, None
        if dialing is not None:
            dialing.cancel()
        return dialing


class LoadGenerator:
    """Drive a trace's operations through the live transport."""

    def __init__(
        self,
        transport: AsyncioTransport,
        num_servers: int,
        trace: Trace,
        cfg: Optional[LoadConfig] = None,
    ) -> None:
        if num_servers < 1:
            raise ValueError("the load generator needs at least one server")
        self.transport = transport
        self.num_servers = num_servers
        #: The operations; op ``i`` has op_id ``i``, stable across retries.
        self.trace = trace
        self.cfg = cfg or LoadConfig()
        self.report = LoadReport(issued=len(trace))
        #: The op log (one call per op transition, folded as it is
        #: recorded), audited by the live invariant check after quiescence.
        self.history = self.report.history
        self._conns: Dict[int, _ServerConn] = {}
        self._done = 0
        #: subtree-root path -> (owner, epoch): the cached inter-node index.
        self.index_cache: LRUCache[str, Tuple[int, int]] = LRUCache(
            INDEX_CACHE_SIZE
        )
        #: global-layer path -> (primary, epoch), learned from the redirect
        #: of an ``update``; only updates are routed by it.
        self.primaries: LRUCache[str, Tuple[int, int]] = LRUCache(
            INDEX_CACHE_SIZE
        )
        # The run's state, set by run().
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Resolves when the last slot ends, or with the first unexpected
        #: error a callback raised.
        self._finished: Optional[asyncio.Future] = None
        #: The one cursor every slot takes from: ``(op_id, arrival offset,
        #: entry server)``.
        self._cursor = iter(())
        self._started = 0.0
        self._cap = 0
        #: Slots spawned / ended.
        self._slots = 0
        self._ended = 0
        #: Slots waiting out the arrival offset of an operation they hold.
        self._waiting = 0

    @property
    def completed(self) -> int:
        """Operations finished (acked or failed) — the fault-plan clock."""
        return self._done

    def _forget(self, root: str, server: int) -> None:
        """Drop what ``root`` names — an index entry or a learned primary —
        if it still names ``server`` (another in-flight op may have
        corrected it since this one read it)."""
        for cache in (self.index_cache, self.primaries):
            known = cache.peek(root)
            if known is not None and known[0] == server:
                cache.invalidate(root)

    # ------------------------------------------------------------------
    async def run(self) -> LoadReport:
        """Dispatch every operation on its Poisson arrival; await the tail."""
        loop = self._loop = asyncio.get_running_loop()
        offsets, entries = self._schedule()
        self._cursor = zip(count(), offsets, entries)
        self._cap = min(self.cfg.max_inflight, len(offsets))
        finished = self._finished = loop.create_future()
        started = self._started = loop.time()
        if self._cap > 0:
            self._spawn()
        else:
            finished.set_result(None)
        try:
            await finished
            self.report.duration = loop.time() - started
            self.report.index_cache_hits = self.index_cache.hits
            self.report.index_cache_misses = self.index_cache.misses
        finally:
            await self.close()
        return self.report

    def _schedule(self) -> Tuple[array, array]:
        """Every op's Poisson arrival offset, then its entry server: the
        bits ``expovariate(rate)`` and ``randrange(num_servers)`` take."""
        rng = random.Random((self.cfg.seed << 12) ^ 0xA11CE)
        random_, rate = rng.random, self.cfg.rate
        offsets = array("d")
        clock = 0.0
        for _ in range(len(self.trace)):
            clock += -log(1.0 - random_()) / rate
            offsets.append(clock)
        # Entry servers are pre-drawn so the draw sequence is deterministic
        # regardless of how the in-flight operations interleave.
        n = self.num_servers
        draws = filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length())))
        return offsets, array("i", islice(draws, len(offsets)))

    # Every step below runs in a loop callback. Scheduled ones go through
    # _guarded: after run() has ended they do nothing, and an unexpected
    # exception ends run() with it instead of leaving it waiting forever.
    def _guarded(self, step, *args) -> None:
        if self._finished.done():
            return
        try:
            step(*args)
        except Exception as error:  # unexpected: ends run()
            self._abort(error)

    def _later(self, delay: float, step, *args) -> None:
        self._loop.call_later(delay, self._guarded, step, *args)

    def _abort(self, error: BaseException) -> None:
        if not self._finished.done():
            self._finished.set_exception(error)

    def _spawn(self) -> None:
        """Line up one more slot; its first take runs on the next turn."""
        self._slots += 1
        self._loop.call_soon(self._guarded, self._take)

    def _take(self) -> None:
        """A slot is free: start its next operation, in trace order, at
        max(its arrival offset, now) — or end the slot once the trace is
        done. Operations that settle at once loop here, never recurse. The
        clock is read once: every operation this call starts, starts now."""
        loop = self._loop
        now = loop.time()
        for item in self._cursor:
            arrival = self._started + item[1]
            if arrival > now:
                self._waiting += 1
                loop.call_at(arrival, self._guarded, self._arrive, item)
                return
            if self._slots == self._cap:
                self.report.saturated += 1
            if not self._begin(item, now):
                return
        self._ended += 1
        if self._ended == self._slots and not self._finished.done():
            self._finished.set_result(None)

    def _arrive(self, item) -> None:
        self._waiting -= 1
        if self._begin(item, self._loop.time()):
            self._take()

    def _begin(self, item, start: float) -> bool:
        """Start a taken operation at ``start`` (now) — lining up another
        slot for the next arrival first; True when it settled at once."""
        if not self._waiting and self._slots < self._cap:
            self._spawn()
        op_id, _, entry = item
        trace = self.trace
        path = trace.paths[trace.path_ids[op_id]]
        op_value = OP_VALUES[trace.op_codes[op_id]]
        self.history.invoke(op_id, -1, start, path, op_value)
        # Longest cached prefix -> straight to the owner; a miss (cold
        # subtree or global-layer path) -> the pre-drawn random entry, or a
        # global-layer update's learned primary.
        cached = covering_entry(path, self.index_cache.peek)
        if cached:
            root, target = cached[0], cached[1][0]
        else:
            primary = op_value == "update" and self.primaries.peek(path)
            root, target = (path, primary[0]) if primary else ("", entry)
        # The op's one counting lookup (hits + misses == ops routed), which
        # also refreshes the entry's recency.
        self.index_cache.get(root or path)
        frame = ClientRequest.frame(op_id, path, op_value)
        return self._attempt(_Op(op_id, frame, start, root, target), start)

    def _attempt(self, op: _Op, now: float) -> bool:
        """Send ``op``'s next attempt; or, its retry budget or deadline
        spent at ``now``, settle it (True)."""
        if op.attempts >= self.cfg.max_retries or now >= op.deadline:
            if op.maybe_applied:
                self.history.indeterminate(op.op_id, -1, now, op.attempts, op.jumps)
            else:
                self.history.fail(op.op_id, -1, now, op.target, op.attempts, op.jumps)
            self._done += 1
            return True
        op.attempts += 1
        conn = self._conns.get(op.target)
        if conn is None:  # the first send to this server
            conn = self._conns[op.target] = _ServerConn(self, op.target)
        conn.send(op)
        return False

    def _retry(self, op: _Op) -> None:
        if self._attempt(op, self._loop.time()):
            self._take()

    def _back_off(self, op: _Op, backoff: float) -> None:
        """Retry against a random entry server after ``backoff``, jittered."""
        self.history.retry(op.op_id, -1, self._loop.time(), op.target, op.attempts)
        rng = op.rng
        if rng is None:
            rng = op.rng = random.Random(
                (self.cfg.seed << 20) ^ (op.op_id * 2654435761 % 2**31)
            )
        self._later(backoff * (0.5 + rng.random()), self._retry, op)
        op.target = rng.randrange(self.num_servers)

    def _attempt_failed(self, op: _Op, maybe_applied: bool) -> None:
        """The attempt got no answer: unsent (a refused dial, a closed
        link) — determinately not applied — or maybe applied (timed out,
        reset after the send)."""
        if maybe_applied:
            op.maybe_applied = True
        # The index entry that led here names a dead or silent owner:
        # forget it rather than retry it per op.
        self._forget(op.root, op.target)
        op.root = ""
        self._back_off(op, retry_backoff(op.attempts))

    def _on_reply(self, op: _Op, reply: ClientReply) -> None:
        status = reply.status
        if status == "ack":
            if reply.root and reply.owner >= 0:
                _learn(self.index_cache, reply.root, reply)
            # Each earlier send was a redirect (a jump) or a retry.
            jumps = op.jumps
            now = self._loop.time()
            self.report.latencies.append(now - op.start)
            self.history.ok(
                op.op_id, -1, now, reply.server, reply.epoch,
                jumps, jumps > 0, op.attempts - 1 - jumps,
            )
            self._done += 1
            self._take()
            return
        # A cached owner that does not ack has disowned the subtree: the
        # entry is stale whatever the reply teaches in its place.
        self._forget(op.root, op.target)
        op.root = ""
        if status == "redirect" and reply.owner >= 0:
            op.jumps += 1
            root = reply.root
            if root:
                _learn(self.index_cache, root, reply)
            elif OP_VALUES[self.trace.op_codes[op.op_id]] == "update":
                # A global-layer update: the owner named is its primary.
                root = self.trace.paths[self.trace.path_ids[op.op_id]]
                _learn(self.primaries, root, reply)
            op.root, op.target = root, reply.owner
            self._retry(op)
            return
        # "error" (no routing entry yet) or a bogus redirect: try another
        # entry server after the first attempt's backoff. The server
        # answered, so the op was determinately not applied by this attempt.
        self._back_off(op, retry_backoff(1))

    async def close(self) -> None:
        dials = [
            dialing
            for dialing in (conn.close() for conn in self._conns.values())
            if dialing is not None
        ]
        self._conns.clear()
        if dials:
            await asyncio.wait(dials)

