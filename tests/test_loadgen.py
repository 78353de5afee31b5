"""The load generator and the request path under it, against real sockets.

What a request costs on the live path is mostly event-loop hand-offs, so
these tests pin the shape of the path, not its speed: slots that are
callback chains rather than tasks, one reply timer per link whose sweep
expires only attempts nobody answered, and a fault fabric that is not
consulted at all while no fault is installed.
"""

import asyncio
import dataclasses
import heapq
import random
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.cluster.messages import ClientReply
from repro.traces import DatasetProfile, Trace, load_workload
from repro.transport import CLIENT_ADDR, mds_addr
from repro.transport import loadgen
from repro.transport.asyncio_net import AsyncioTransport, FrameLink
from repro.transport.base import FaultFabric
from repro.transport.live import LiveCluster, LiveConfig
from repro.transport.loadgen import LoadConfig, LoadGenerator
from tests.conftest import index_size, live_audit, ops_trace
from tests.history_sink import HistorySink

NUM_SERVERS = 4
SEED = 7


@pytest.fixture(scope="module")
def workload():
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=600, scale=1e-4), seed=SEED
    )
    bundle = load_workload(profile.scaled(num_operations=600))
    return dataclasses.replace(bundle, trace=bundle.trace.slice(0, 600))


def _with_cluster(workload, body, **live):
    """Boot a cluster, run ``await body(cluster)``, stop it. Anything the
    loop's exception handler saw is returned next to the body's result."""

    async def go():
        loop = asyncio.get_running_loop()
        unhandled = []
        loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
        cfg = LiveConfig(num_servers=NUM_SERVERS, num_monitors=3, seed=SEED, **live)
        cluster = LiveCluster(registry.create("d2-tree"), workload, cfg)
        await cluster.start()
        try:
            # start() returns once the boot broadcast is sent, not applied.
            for _ in range(500):
                if all(index_size(mds.index) for mds in cluster.servers):
                    break
                await asyncio.sleep(0.01)
            result = await body(cluster)
        finally:
            await cluster.stop()
        await asyncio.sleep(0)
        return result, unhandled

    return asyncio.run(go())


def _recording(generator):
    """Attach a keep-everything sink to the generator's op log."""
    sink = HistorySink()
    generator.history.listen(sink)
    return sink


def _invokes(sink):
    return [event for event in sink.events if event.kind == "invoke"]


def _peak_outstanding(sink):
    peak = outstanding = 0
    for event in sink.events:
        if event.kind == "retry":
            continue
        outstanding += 1 if event.kind == "invoke" else -1
        peak = max(peak, outstanding)
    return peak


# ----------------------------------------------------------------------
# (a) no task per operation or per slot: dials are the only tasks
# ----------------------------------------------------------------------
def _counting_dials(loop):
    """Install a task factory that records every task created as its
    coroutine's name, and the most dials to one MDS ever running at once."""
    created, dials, peak = [], {}, {}

    def factory(loop, coro, **kwargs):
        created.append(coro.__qualname__)
        task = asyncio.Task(coro, loop=loop, **kwargs)
        if coro.__qualname__ == "_ServerConn._dial":
            tasks = dials.setdefault(coro.cr_frame.f_locals["self"].server, [])
            tasks.append(task)
            running = sum(not dial.done() for dial in tasks)
            peak[id(tasks)] = max(peak.get(id(tasks), 0), running)
        return task

    loop.set_task_factory(factory)
    return created, peak


def test_a_run_creates_no_task_per_op_or_slot_only_dials(workload):
    ops = workload.trace.slice(0, 500)

    async def body(cluster):
        loop = asyncio.get_running_loop()
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=4, seed=SEED),
        )
        created, peak = _counting_dials(loop)
        try:
            report = await generator.run()
        finally:
            loop.set_task_factory(None)
        return report, created, peak

    (report, created, peak), unhandled = _with_cluster(workload, body)
    assert report.acked == len(ops) and unhandled == []
    dials = [name for name in created if name == "_ServerConn._dial"]
    # One dial per MDS, and the event loop's own accept per connection:
    # slots are callback chains and links decode in callbacks, so nothing
    # else — no slot, no op, no reader — is a task.
    assert 1 <= len(dials) <= NUM_SERVERS
    assert set(peak.values()) == {1}
    accepts = [name for name in created if name != "_ServerConn._dial"]
    assert all(name.endswith("_accept_connection2") for name in accepts), created
    assert len(accepts) <= NUM_SERVERS + 3  # the client's, and any heartbeat redial
    assert report.saturated >= len(ops) - 4  # a closed loop from the start


def test_a_serial_run_is_one_slot(workload):
    ops = workload.trace.slice(0, 50)

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
        )
        sink = _recording(generator)
        return await generator.run(), sink

    (report, sink), unhandled = _with_cluster(workload, body)
    assert report.acked == len(ops) and unhandled == []
    assert _peak_outstanding(sink) == 1
    assert [e.op_id for e in _invokes(sink)] == list(range(len(ops)))


def test_an_empty_trace_is_an_empty_report(workload):
    async def body(cluster):
        return await LoadGenerator(cluster.transport, NUM_SERVERS, Trace("empty")).run()

    report, unhandled = _with_cluster(workload, body)
    assert (report.issued, report.acked, report.history.counts()["events"]) == (0, 0, 0)
    assert unhandled == []


# ----------------------------------------------------------------------
# (b) the start rule: trace order, max(arrival offset, a slot is free)
# ----------------------------------------------------------------------
def test_outstanding_requests_never_exceed_the_cap(workload):
    ops = workload.trace.slice(0, 60)

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=3, seed=SEED),
        )
        sink = _recording(generator)
        report = await generator.run()
        return report, sink, live_audit(cluster, generator)

    (report, sink, violations), unhandled = _with_cluster(
        workload, body, service_time=0.002
    )
    assert report.acked == len(ops) and violations == [] and unhandled == []
    # Service takes 2 ms and arrivals are 1 µs apart: the cap binds at once
    # and stays bound, so all three slots are in use and never a fourth.
    assert _peak_outstanding(sink) == 3
    assert [e.op_id for e in _invokes(sink)] == list(range(len(ops)))
    assert report.saturated >= len(ops) - 3


def _arrival_offsets(cfg: LoadConfig, count: int):
    """The generator's pre-drawn Poisson offsets (its seeded first draws)."""
    rng = random.Random((cfg.seed << 12) ^ 0xA11CE)
    clock, offsets = 0.0, []
    for _ in range(count):
        clock += rng.expovariate(cfg.rate)
        offsets.append(clock)
    return offsets


def test_at_a_low_rate_no_op_starts_before_its_arrival_offset(workload):
    ops = workload.trace.slice(0, 40)
    cfg = LoadConfig(rate=400.0, max_inflight=len(ops), seed=SEED)

    async def body(cluster):
        generator = LoadGenerator(cluster.transport, NUM_SERVERS, ops, cfg)
        sink = _recording(generator)
        before = asyncio.get_running_loop().time()
        report = await generator.run()
        return before, report, sink

    (before, report, sink), unhandled = _with_cluster(workload, body)
    assert report.acked == len(ops) and unhandled == []
    invoked_at = {e.op_id: e.t for e in _invokes(sink)}
    assert sorted(invoked_at) == list(range(len(ops)))
    offsets = _arrival_offsets(cfg, len(ops))
    # run() reads its start time after ``before``, so this bound is loose
    # by what little ran in between, never tight the wrong way. (Idle slots
    # hold operations in trace order, but two whose arrivals fall inside
    # one event-loop iteration may start in either order — so the order
    # statement at a low rate is this one: never before its own arrival,
    # hence never before an earlier operation's.)
    for op_id, offset in enumerate(offsets):
        assert invoked_at[op_id] >= before + offset
    # ~100 ms of arrivals cannot be dispatched in less.
    assert report.duration >= offsets[-1]
    # The cap never bound: nothing was delayed by it.
    assert report.saturated == 0
    assert _peak_outstanding(sink) < len(ops)


# ----------------------------------------------------------------------
# (c) the reply timer: one per link, sweeping a deadline FIFO
# ----------------------------------------------------------------------
def _counting_expiries(monkeypatch):
    """Count the links' sweeps, record each attempt one expires as
    ``(server, op_id, overdue)``, and every generator step that runs once
    the test sets ``returned`` (right after ``run()`` returns)."""
    seen = types.SimpleNamespace(sweeps=0, expired=[], returned=False, late=[])
    sweep, guarded = loadgen._ServerConn._sweep, LoadGenerator._guarded

    def counting_sweep(conn):
        before = dict(conn.armed)
        sweep(conn)
        now = conn.gen._loop.time()  # no earlier than the sweep's own clock
        seen.sweeps += 1
        seen.expired.extend(
            (conn.server, op_id, op.expires <= now)
            for op_id, op in before.items()
            if op_id not in conn.armed
        )

    def counting_guarded(generator, step, *args):
        if seen.returned:
            seen.late.append(step.__name__)
        guarded(generator, step, *args)

    monkeypatch.setattr(loadgen._ServerConn, "_sweep", counting_sweep)
    monkeypatch.setattr(LoadGenerator, "_guarded", counting_guarded)
    return seen


def test_full_loss_on_one_server_times_out_and_is_routed_around(
    workload, monkeypatch
):
    """Every frame to or from one MDS is lost. Attempts against it wait out
    ``request_timeout`` and forget the owner; what another server may ack
    is acked, the rest ends indeterminate (a timeout may have been applied)
    and never failed."""
    seen = _counting_expiries(monkeypatch)
    tree = workload.tree
    placement = registry.create("d2-tree").partition(tree, NUM_SERVERS)
    victim_root, victim = next(iter(placement.subtree_owner.items()))
    other_root = next(
        root for root, owner in placement.subtree_owner.items() if owner != victim
    )
    ops = ops_trace(
        [(tree.path(victim_root), "read"), (tree.path(other_root), "read")]
        + [(r.path, r.op.value) for r in workload.trace.slice(0, 60)]
    )
    cfg = LoadConfig(
        rate=1e6, max_inflight=8, seed=SEED, request_timeout=0.03,
        max_retries=3, retry_backoff_base=0.001, retry_backoff_cap=0.002,
    )

    async def body(cluster):
        cluster.transport.set_loss(mds_addr(victim), 1.0)
        generator = LoadGenerator(cluster.transport, NUM_SERVERS, ops, cfg)
        generator.index_cache.put(tree.path(victim_root), (victim, 0))
        sink = _recording(generator)
        report = await generator.run()
        seen.returned = True
        # Long enough for any timer left armed by mistake to fire.
        await asyncio.sleep(2 * cfg.request_timeout)
        cluster.transport.clear_endpoint(mds_addr(victim))
        return report, generator, sink, live_audit(cluster, generator)

    (report, generator, sink, violations), unhandled = _with_cluster(workload, body)
    assert unhandled == [] and violations == []
    assert report.failed == 0
    assert report.acked + report.indeterminate == len(ops)
    events = {(e.kind, e.op_id): e for e in sink.events}
    lost = [op_id for kind, op_id in events if kind == "indeterminate"]
    assert 0 in lost and ("ok", 1) in events
    # Each lost attempt burned a whole timeout, started after its send.
    for op_id in lost:
        waited = events["indeterminate", op_id].t - events["invoke", op_id].t
        assert waited >= cfg.request_timeout
    # The sweeps expired only the lost attempts — each sent to the victim,
    # each past its deadline — never one a reply had answered; and nothing
    # of the generator ran once run() had returned.
    assert seen.expired and {server for server, _, _ in seen.expired} == {victim}
    assert all(overdue for _, _, overdue in seen.expired)
    assert len(seen.expired) <= report.retries
    assert generator.transport.messages_dropped >= len(seen.expired)
    assert seen.late == []


def test_a_timed_out_cached_owner_is_forgotten(workload):
    tree = workload.tree
    placement = registry.create("d2-tree").partition(tree, NUM_SERVERS)
    root, owner = next(iter(placement.subtree_owner.items()))
    cfg = LoadConfig(
        rate=1e6, max_inflight=1, seed=SEED, request_timeout=0.02, max_retries=1,
    )

    async def body(cluster):
        cluster.transport.set_loss(mds_addr(owner), 1.0)
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops_trace([(tree.path(root), "read")]), cfg
        )
        generator.index_cache.put(tree.path(root), (owner, 0))
        report = await generator.run()
        cluster.transport.clear_endpoint(mds_addr(owner))
        return report, generator.index_cache.peek(tree.path(root))

    (report, entry), unhandled = _with_cluster(workload, body)
    assert unhandled == []
    assert (report.acked, report.failed, report.indeterminate) == (0, 0, 1)
    assert report.retries == 1 and report.duration >= cfg.request_timeout
    assert entry is None


def test_a_reply_after_its_timer_fired_is_dropped_silently(workload):
    """The server answers later than the client waits: every attempt times
    out, every reply lands on a waiter that is gone. The op was applied —
    the client can only call it indeterminate — and nothing blows up."""
    ops = workload.trace.slice(0, 6)
    cfg = LoadConfig(
        rate=1e6, max_inflight=2, seed=SEED, request_timeout=0.01,
        max_retries=2, retry_backoff_base=0.001, retry_backoff_cap=0.001,
    )

    async def body(cluster):
        generator = LoadGenerator(cluster.transport, NUM_SERVERS, ops, cfg)
        report = await generator.run()
        # Let the queued late replies drain into the (closed) client pool
        # and the servers' ledgers settle before the audit.
        await asyncio.sleep(0.3)
        served = sum(len(mds.acked) for mds in cluster.servers)
        return report, served, live_audit(cluster, generator)

    (report, served, violations), unhandled = _with_cluster(
        workload, body, service_time=0.03
    )
    assert unhandled == [] and violations == []
    assert report.acked == 0 and report.failed == 0
    assert report.indeterminate == len(ops)
    assert served > 0  # the late replies were real: servers did ack


def test_answered_attempts_never_expire(workload, monkeypatch):
    seen = _counting_expiries(monkeypatch)
    ops = workload.trace.slice(0, 200)
    # The 2 ms service time stretches the run over a few sweeps of each
    # link's timer, and a reply still lands well inside its timeout.
    cfg = LoadConfig(rate=1e6, max_inflight=4, seed=SEED, request_timeout=0.05)

    async def body(cluster):
        generator = LoadGenerator(cluster.transport, NUM_SERVERS, ops, cfg)
        report = await generator.run()
        seen.returned = True
        await asyncio.sleep(2 * cfg.request_timeout)
        return report

    report, unhandled = _with_cluster(workload, body, service_time=0.002)
    assert report.acked == len(ops) and report.retries == 0
    assert seen.sweeps > 0  # the links' timers did fire mid-run
    assert seen.expired == [] and seen.late == [] and unhandled == []


# ----------------------------------------------------------------------
# (d) a fault-free fabric is not consulted
# ----------------------------------------------------------------------
class _CountingRandom(random.Random):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class _Writer:
    def __init__(self):
        self.frames = []

    def write(self, frame):
        self.frames.append(frame)

    async def drain(self):
        pass


def _run_without_a_loop(coro):
    """Drive a coroutine that must finish without suspending — and without
    a running event loop, so any ``get_running_loop()`` inside raises."""
    with pytest.raises(StopIteration) as stop:
        coro.send(None)
    return stop.value.value


def test_a_fault_free_fabric_draws_nothing_and_reads_no_clock():
    fabric = FaultFabric(seed=SEED)
    fabric._rng = rng = _CountingRandom(1)
    assert not fabric.faulty
    assert fabric.data_arrival(CLIENT_ADDR, "mds:0", 1.5) == 1.5
    assert fabric.deliver("mds:0", "mon:0", 2.5) == 2.5
    assert rng.draws == 0

    transport = AsyncioTransport(mode="tcp", seed=SEED)
    transport._rng = rng
    writer = _Writer()
    send = transport.send_data(CLIENT_ADDR, "mds:0", writer, b"frame")
    assert _run_without_a_loop(send) is True
    beat = transport.send_control("mds:0", "mon:0", writer, b"beat")
    assert _run_without_a_loop(beat) is True
    assert writer.frames == [b"frame", b"beat"]
    assert rng.draws == 0 and transport.messages_dropped == 0

    # Installed and cleared again, the fabric is back to not being asked.
    transport.set_loss("mds:0", 0.5)
    assert transport.faulty
    transport.clear_endpoint("mds:0")
    assert _run_without_a_loop(
        transport.send_data(CLIENT_ADDR, "mds:0", writer, b"again")
    ) is True
    assert rng.draws == 0


def test_data_verdicts_under_loss_and_delay_follow_the_seeded_draws():
    """With faults installed the verdict sequence is the seeded one it
    always was: a loss draw per lossy endpoint, then one delay draw."""
    fabric = FaultFabric(seed=SEED)
    fabric.set_loss("mds:1", 0.4)
    fabric.set_delay("mds:1", 0.01)
    reference = random.Random((SEED << 8) ^ 0xC7A05)
    verdicts = []
    for step in range(200):
        base = step * 0.001
        # Alternate direction; an untouched server's link draws nothing.
        src, dst = (CLIENT_ADDR, "mds:1") if step % 2 else ("mds:1", CLIENT_ADDR)
        assert fabric.data_arrival(CLIENT_ADDR, "mds:0", base) == base
        if reference.random() < 0.4:
            expected = None
        else:
            expected = base + reference.uniform(0.0, 0.02)
        verdict = fabric.data_arrival(src, dst, base)
        assert verdict == expected
        verdicts.append(verdict)
    lost = verdicts.count(None)
    assert fabric.messages_dropped == lost and 40 < lost < 120
    assert fabric.messages_delayed == len(verdicts) - lost


def test_send_data_applies_the_fabric_verdict_when_faulty():
    async def go():
        transport = AsyncioTransport(mode="tcp", seed=SEED)
        writer = _Writer()
        transport.set_loss("mds:0", 1.0)
        lost = await transport.send_data(CLIENT_ADDR, "mds:0", writer, b"x")
        transport.set_loss("mds:0", 0.0)
        transport.set_delay("mds:0", 0.01)
        loop = asyncio.get_running_loop()
        before = loop.time()
        sent = await transport.send_data(CLIENT_ADDR, "mds:0", writer, b"y")
        return lost, sent, writer.frames, transport.messages_delayed, loop.time() - before

    lost, sent, frames, delayed, took = asyncio.run(go())
    assert lost is False and sent is True
    assert frames == [b"y"] and delayed == 1 and took > 0


# ----------------------------------------------------------------------
# (e) one link's deadline FIFO, driven by hand
# ----------------------------------------------------------------------
TIMEOUT = 0.1


class _Handle:
    def __init__(self, when, callback, args):
        self.when, self.callback, self.args = when, callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ManualLoop:
    """The slice of an event loop a link's timer uses, on a clock the test
    moves: ``advance(seconds)`` runs the timers that fall due, each at its
    own time, in order."""

    def __init__(self):
        self.now = 0.0
        self._timers = []
        self._armed = 0

    def time(self):
        return self.now

    def call_at(self, when, callback, *args):
        handle = _Handle(when, callback, args)
        self._armed += 1
        heapq.heappush(self._timers, (when, self._armed, handle))
        return handle

    def call_later(self, delay, callback, *args):
        return self.call_at(self.now + delay, callback, *args)

    def live_timers(self):
        return [handle for _, _, handle in self._timers if not handle.cancelled]

    def run_due(self):
        while self._timers and self._timers[0][0] <= self.now:
            handle = heapq.heappop(self._timers)[2]
            if not handle.cancelled:
                handle.callback(*handle.args)

    def advance(self, seconds):
        end = self.now + seconds
        while self._timers and self._timers[0][0] <= end:
            self.now = max(self.now, self._timers[0][0])
            self.run_due()
        self.now = end


class _StubLink:
    """A link whose writes leave at once — or, ``paused``, wait for
    :meth:`drain`, which a loss runs too (``connection_lost`` wakes the
    blocked senders before ``on_lost``)."""

    def __init__(self):
        self.closing = False
        self.paused = False
        self.frames = []
        self._drained = []

    def write(self, frame):
        if self.closing:
            raise ConnectionResetError("link is closed")
        self.frames.append(frame)
        return not self.paused

    def when_drained(self, callback):
        self._drained.append(callback)

    def drain(self):
        self.paused = False
        callbacks, self._drained = self._drained, []
        for callback in callbacks:
            callback()

    def close(self):
        self.closing = True


def _hand_driven_link():
    """A real ``_ServerConn`` on a stub link and a manual clock. Its
    generator records how each attempt settled, as ``(how, op_id,
    attempt, time)`` with ``how`` "reply" or "failed", instead of going on
    with the operation."""
    loop = _ManualLoop()
    generator = LoadGenerator(
        types.SimpleNamespace(faulty=False), 1, Trace("empty"),
        LoadConfig(request_timeout=TIMEOUT),
    )
    generator._loop = loop
    generator._finished = types.SimpleNamespace(done=lambda: False)
    settled = []
    generator._attempt_failed = lambda op, maybe_applied: settled.append(
        ("failed", op.op_id, op.attempts, loop.now)
    )
    generator._on_reply = lambda op, reply: settled.append(
        ("reply", op.op_id, op.attempts, loop.now)
    )
    conn = loadgen._ServerConn(generator, 0)
    conn.link = _StubLink()
    return loop, conn, settled


def _send(conn, ops, op_id):
    """Send ``op_id``'s next attempt (a fresh op on its first)."""
    op = ops.setdefault(
        op_id, loadgen._Op(op_id, b"request", float("inf"), "", 0)
    )
    op.attempts += 1
    conn.send(op)
    return op


def _reply(conn, op_id):
    conn._on_frame(conn.link, ClientReply(op_id, "ack", 0).to_wire())


def _lose(conn):
    """The link dies: blocked senders wake to a closed link, then
    ``on_lost``; the next send's dial opens a fresh link."""
    link = conn.link
    link.closing = True
    link.drain()
    conn._on_lost(link, None)
    conn.link = _StubLink()


_LINK_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, 5)),
        st.tuples(st.just("reply"), st.integers(0, 5)),
        st.tuples(st.just("advance"), st.floats(0.0, 2 * TIMEOUT)),
        st.tuples(st.sampled_from(["lose", "pause", "drain"]), st.none()),
    ),
    max_size=80,
)

#: (step, how an attempt may settle in it): a reply settles an armed
#: attempt, a drain a held one whose reply came first, a loss any.
_SETTLES = {
    ("reply", "reply"), ("drain", "reply"), ("lose", "failed"),
    ("advance", "failed"),
}


@settings(max_examples=300, deadline=None)
@given(_LINK_STEPS)
def test_each_attempt_on_a_link_settles_once_and_never_before_its_deadline(
    steps,
):
    """Any interleaving of sends, replies (to an attempt in flight, held or
    settled), losses, write pauses, drains and clock moves: every attempt
    settles exactly once, an expiry never before its deadline; a clock
    starts only when its send returns; one timer serves the link; and the
    deadline FIFO is in deadline order and holds only attempts in flight
    (so never more than in flight + settled since the last send)."""
    loop, conn, settled = _hand_driven_link()
    ops, deadlines, outcomes = {}, {}, {}
    in_flight = {}  # op_id -> the attempt out on the link

    def check(step, mark):
        for how, op_id, attempt, at in settled[mark:]:
            assert in_flight.pop(op_id, None) == attempt
            assert (op_id, attempt) not in outcomes
            outcomes[op_id, attempt] = how
            assert (step, how) in _SETTLES
            if step == "advance":
                assert at >= deadlines[op_id, attempt]
        for op_id, op in conn.armed.items():
            if (op_id, op.attempts) not in deadlines:  # armed by this step
                assert step in ("send", "drain")
                assert op.expires == loop.now + TIMEOUT
                deadlines[op_id, op.attempts] = op.expires
        assert not set(conn.armed) & set(conn.held)
        assert set(conn.armed) | set(conn.held) == set(in_flight)
        expires = [op.expires for op in conn.armed.values()]
        assert expires == sorted(expires)
        timers = loop.live_timers()
        assert len(timers) <= 1
        if expires:
            assert len(timers) == 1 and timers[0].when <= expires[0]

    for step, arg in steps:
        mark = len(settled)
        if step == "send":
            if arg in in_flight:
                continue  # an operation has one attempt out at a time
            in_flight[arg] = _send(conn, ops, arg).attempts
        elif step == "reply":
            _reply(conn, arg)
        elif step == "advance":
            loop.advance(arg)
        elif step == "lose":
            _lose(conn)
        elif step == "pause":
            conn.link.paused = True
        else:
            conn.link.drain()
        check(step, mark)
    for step in ("drain", "advance"):
        mark = len(settled)
        conn.link.drain() if step == "drain" else loop.advance(2 * TIMEOUT)
        check(step, mark)
    assert in_flight == {} and len(outcomes) == len(settled)


@pytest.mark.parametrize("first", ["reply", "sweep"])
def test_a_reply_and_its_expiry_in_one_loop_turn_settle_the_attempt_once(first):
    loop, conn, settled = _hand_driven_link()
    _send(conn, {}, 7)
    # The reply has been read and the timer has fallen due: the loop runs
    # both callbacks in the same turn, in either order.
    loop.now += TIMEOUT
    if first == "reply":
        _reply(conn, 7)
        loop.run_due()
    else:
        loop.run_due()
        _reply(conn, 7)
    assert [how for how, *_ in settled] == (
        ["reply"] if first == "reply" else ["failed"]
    )
    assert conn.armed == {}


def test_a_send_blocked_on_a_paused_link_starts_its_reply_clock_once_drained():
    loop, conn, settled = _hand_driven_link()
    conn.link.paused = True
    op = _send(conn, {}, 3)
    assert conn.link.frames == [b"request"]
    assert conn.armed == {} and conn.held == {3: op}
    loop.advance(5 * TIMEOUT)  # blocked on the socket: no clock runs
    assert settled == [] and loop.live_timers() == []
    conn.link.drain()
    assert op.expires == loop.now + TIMEOUT and conn.armed == {3: op}
    loop.advance(TIMEOUT)
    assert settled == [("failed", 3, 1, loop.now)]


@pytest.mark.parametrize("then", ["drain", "lose"])
def test_a_reply_to_a_blocked_send_counts_only_once_the_send_returns(then):
    """What an awaited ``send_data`` did: the reply settles the attempt
    when the send's drain returns — not before, and not at all when the
    link dies first and the send fails with it."""
    loop, conn, settled = _hand_driven_link()
    conn.link.paused = True
    _send(conn, {}, 3)
    loop.advance(TIMEOUT / 2)
    _reply(conn, 3)
    assert settled == []
    loop.advance(5 * TIMEOUT)
    assert settled == []
    if then == "drain":
        conn.link.drain()
        assert settled == [("reply", 3, 1, loop.now)]
    else:
        _lose(conn)
        assert settled == [("failed", 3, 1, loop.now)]
    loop.advance(2 * TIMEOUT)
    assert len(settled) == 1 and conn.armed == {} and conn.held == {}


# ----------------------------------------------------------------------
# (f) callbacks that fail, and chains that settle at once
# ----------------------------------------------------------------------
def test_a_send_that_fails_inside_a_reply_callback_spares_the_replying_link(
    workload, monkeypatch
):
    """With one slot, every send after the first is made by the callback
    that decoded the previous reply. One of them raises: that attempt
    fails and is retried, and the link that delivered the reply stays up."""
    ops = workload.trace.slice(0, 40)
    write, on_lost = FrameLink.write, loadgen._ServerConn._on_lost
    client_writes, live_links_lost = [], []

    def failing_write(link, data):
        if isinstance(getattr(link.on_frame, "__self__", None), loadgen._ServerConn):
            client_writes.append(data)
            if len(client_writes) == 10:
                raise ConnectionResetError("injected")
        return write(link, data)

    def counting_on_lost(conn, link, exc):
        if link is conn.link:
            live_links_lost.append(conn.server)
        on_lost(conn, link, exc)

    monkeypatch.setattr(FrameLink, "write", failing_write)
    monkeypatch.setattr(loadgen._ServerConn, "_on_lost", counting_on_lost)

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
        )
        report = await generator.run()
        return report, live_audit(cluster, generator)

    (report, violations), unhandled = _with_cluster(workload, body)
    assert unhandled == [] and violations == []
    assert report.acked == len(ops) and report.retries == 1
    assert live_links_lost == []


@pytest.mark.parametrize("rate", [1e6, 400.0])
def test_an_unexpected_error_in_a_callback_ends_run_instead_of_hanging_it(
    workload, monkeypatch, rate
):
    """At 10^6 ops/s the failing step runs inside a reply callback; at 400
    it runs in an arrival timer. Either way run() raises it, and nothing
    of the generator acts afterwards."""
    ops = workload.trace.slice(0, 30)
    invoke = loadgen.OpHistory.invoke
    invoked = []

    def failing_invoke(history, op_id, *record):
        invoked.append(op_id)
        if op_id == 10:
            raise RuntimeError("boom")
        invoke(history, op_id, *record)

    monkeypatch.setattr(loadgen.OpHistory, "invoke", failing_invoke)

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=rate, max_inflight=2, seed=SEED),
        )
        with pytest.raises(RuntimeError, match="boom"):
            await asyncio.wait_for(generator.run(), 10.0)
        started = len(invoked)
        await asyncio.sleep(0.1)  # anything still scheduled comes due
        return started, len(invoked)

    (started, later), unhandled = _with_cluster(workload, body)
    assert unhandled == []
    assert started == later <= 12  # op 10 and at most one other slot's next


def test_operations_that_settle_at_once_loop_instead_of_recursing():
    """No retry budget: every operation fails at its start, inside the take
    that started it. A slot going through thousands of them iterates."""
    ops = ops_trace([("/a", "read")] * (3 * sys.getrecursionlimit()))

    async def go():
        transport = AsyncioTransport()
        try:
            return await LoadGenerator(
                transport, NUM_SERVERS, ops,
                LoadConfig(rate=1e6, max_inflight=2, max_retries=0, seed=SEED),
            ).run()
        finally:
            await transport.close()

    report = asyncio.run(go())
    assert (report.failed, report.indeterminate, report.retries) == (len(ops), 0, 0)
    assert report.history.counts()["events"] == 2 * len(ops)


def test_every_dial_refused_fails_each_op_as_unsent_one_dial_per_mds_at_a_time():
    """Nothing listens. Every attempt queues on its MDS's one dial and is
    refused with it: nothing reached the wire, so every op fails —
    determinately not applied, never indeterminate."""
    ops = ops_trace([(f"/p{op_id}", "read") for op_id in range(200)])
    cfg = LoadConfig(
        rate=1e6, max_inflight=8, max_retries=3, seed=SEED,
        retry_backoff_base=0.0, retry_backoff_cap=0.0,
    )

    async def go():
        loop = asyncio.get_running_loop()
        transport = AsyncioTransport()
        created, peak = _counting_dials(loop)
        try:
            report = await LoadGenerator(transport, NUM_SERVERS, ops, cfg).run()
        finally:
            loop.set_task_factory(None)
            await transport.close()
        return report, created, peak

    report, created, peak = asyncio.run(go())
    assert (report.failed, report.indeterminate) == (len(ops), 0)
    assert report.retries == cfg.max_retries * len(ops)
    assert set(created) == {"_ServerConn._dial"} and set(peak.values()) == {1}
    assert len(created) < report.retries  # attempts shared their dials
