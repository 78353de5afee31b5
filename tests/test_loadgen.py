"""The load generator and the request path under it, against real sockets.

What a request costs on the live path is mostly event-loop hand-offs, so
these tests pin the shape of the path, not its speed: in-flight *slots*
rather than a task per operation, a reply timer armed after the send and
cancelled on reply, and a fault fabric that is not consulted at all while
no fault is installed.
"""

import asyncio
import dataclasses
import random

import pytest

from repro import registry
from repro.traces import DatasetProfile, load_workload
from repro.transport import CLIENT_ADDR, mds_addr
from repro.transport import loadgen
from repro.transport.asyncio_net import AsyncioTransport
from repro.transport.base import FaultFabric
from repro.transport.live import LiveCluster, LiveConfig, check_invariants
from repro.transport.loadgen import LoadConfig, LoadGenerator, trace_ops

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
                if all(len(mds.index) for mds in cluster.servers):
                    break
                await asyncio.sleep(0.01)
            result = await body(cluster)
        finally:
            await cluster.stop()
        await asyncio.sleep(0)
        return result, unhandled

    return asyncio.run(go())


def _invokes(history):
    return [event for event in history.events if event.kind == "invoke"]


def _peak_outstanding(history):
    peak = outstanding = 0
    for event in history.events:
        outstanding += 1 if event.kind == "invoke" else -1
        peak = max(peak, outstanding)
    return peak


# ----------------------------------------------------------------------
# (a) tasks scale with slots and connections, not with operations
# ----------------------------------------------------------------------
def test_a_run_creates_tasks_per_slot_not_per_op(workload):
    ops = trace_ops(workload.trace)[:500]

    async def body(cluster):
        loop = asyncio.get_running_loop()
        created = []

        def factory(loop, coro, **kwargs):
            created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=4, seed=SEED),
        )
        loop.set_task_factory(factory)
        try:
            report = await generator.run()
        finally:
            loop.set_task_factory(None)
        return report, created

    (report, created), unhandled = _with_cluster(workload, body)
    assert report.acked == len(ops) and unhandled == []
    slots = [name for name in created if name.endswith("._slot")]
    assert 1 <= len(slots) <= 4
    assert not [name for name in created if name.endswith("._run_op")]
    # Four slots and the event loop's own accept per connection: framed
    # links decode in callbacks, so no reader or handler task per
    # connection, and nothing that grows with the 500 operations.
    assert len(created) <= 4 + NUM_SERVERS + 4, created
    assert report.saturated >= len(ops) - 4  # a closed loop from the start


def test_a_serial_run_is_one_slot(workload):
    ops = trace_ops(workload.trace)[:50]

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
        )
        return await generator.run()

    report, unhandled = _with_cluster(workload, body)
    assert report.acked == len(ops) and unhandled == []
    assert _peak_outstanding(report.history) == 1
    assert [e.op_id for e in _invokes(report.history)] == [op[0] for op in ops]


def test_an_empty_trace_is_an_empty_report(workload):
    async def body(cluster):
        return await LoadGenerator(cluster.transport, NUM_SERVERS, []).run()

    report, unhandled = _with_cluster(workload, body)
    assert (report.issued, report.acked, len(report.history)) == (0, 0, 0)
    assert unhandled == []


# ----------------------------------------------------------------------
# (b) the start rule: trace order, max(arrival offset, a slot is free)
# ----------------------------------------------------------------------
def test_outstanding_requests_never_exceed_the_cap(workload):
    ops = trace_ops(workload.trace)[:60]

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=3, seed=SEED),
        )
        report = await generator.run()
        return report, check_invariants(cluster, report)

    (report, violations), unhandled = _with_cluster(
        workload, body, service_time=0.002
    )
    assert report.acked == len(ops) and violations == [] and unhandled == []
    # Service takes 2 ms and arrivals are 1 µs apart: the cap binds at once
    # and stays bound, so all three slots are in use and never a fourth.
    assert _peak_outstanding(report.history) == 3
    assert [e.op_id for e in _invokes(report.history)] == [op[0] for op in ops]
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
    ops = trace_ops(workload.trace)[:40]
    cfg = LoadConfig(rate=400.0, max_inflight=len(ops), seed=SEED)

    async def body(cluster):
        generator = LoadGenerator(cluster.transport, NUM_SERVERS, ops, cfg)
        before = asyncio.get_running_loop().time()
        report = await generator.run()
        return before, report

    (before, report), unhandled = _with_cluster(workload, body)
    assert report.acked == len(ops) and unhandled == []
    invoked_at = {e.op_id: e.t for e in _invokes(report.history)}
    assert sorted(invoked_at) == [op[0] for op in ops]
    offsets = _arrival_offsets(cfg, len(ops))
    # run() reads its start time after ``before``, so this bound is loose
    # by what little ran in between, never tight the wrong way. (Idle slots
    # hold operations in trace order, but two whose arrivals fall inside
    # one event-loop iteration may start in either order — so the order
    # statement at a low rate is this one: never before its own arrival,
    # hence never before an earlier operation's.)
    for (op_id, _, _), offset in zip(ops, offsets):
        assert invoked_at[op_id] >= before + offset
    # ~100 ms of arrivals cannot be dispatched in less.
    assert report.duration >= offsets[-1]
    # The cap never bound: nothing was delayed by it.
    assert report.saturated == 0
    assert _peak_outstanding(report.history) < len(ops)


# ----------------------------------------------------------------------
# (c) the reply timer
# ----------------------------------------------------------------------
def _counting_expire(monkeypatch):
    fired = []
    real = loadgen._expire

    def expire(future):
        fired.append(future.done())
        real(future)

    monkeypatch.setattr(loadgen, "_expire", expire)
    return fired


def test_full_loss_on_one_server_times_out_and_is_routed_around(
    workload, monkeypatch
):
    """Every frame to or from one MDS is lost. Attempts against it wait out
    ``request_timeout`` and forget the owner; what another server may ack
    is acked, the rest ends indeterminate (a timeout may have been applied)
    and never failed."""
    fired = _counting_expire(monkeypatch)
    placement = registry.create("d2-tree").partition(workload.tree, NUM_SERVERS)
    victim_root, victim = next(iter(placement.subtree_owner.items()))
    other_root = next(
        root for root, owner in placement.subtree_owner.items() if owner != victim
    )
    ops = [(0, victim_root.path, "read"), (1, other_root.path, "read")]
    ops += [
        (op_id + 2, path, op)
        for op_id, path, op in trace_ops(workload.trace)[:60]
    ]
    cfg = LoadConfig(
        rate=1e6, max_inflight=8, seed=SEED, request_timeout=0.03,
        max_retries=3, retry_backoff_base=0.001, retry_backoff_cap=0.002,
    )

    async def body(cluster):
        cluster.transport.set_loss(mds_addr(victim), 1.0)
        generator = LoadGenerator(cluster.transport, NUM_SERVERS, ops, cfg)
        generator.index_cache.put(victim_root.path, (victim, 0))
        report = await generator.run()
        # Long enough for any timer left armed by mistake to fire.
        await asyncio.sleep(2 * cfg.request_timeout)
        cluster.transport.clear_endpoint(mds_addr(victim))
        return report, generator, check_invariants(cluster, report)

    (report, generator, violations), unhandled = _with_cluster(workload, body)
    assert unhandled == [] and violations == []
    assert report.failed == 0
    assert report.acked + report.indeterminate == len(ops)
    assert 0 in report.indeterminate_ids and 1 in report.acked_ids
    # Each lost attempt burned a whole timeout, started after its send.
    events = {(e.kind, e.op_id): e for e in report.history.events}
    for op_id in report.indeterminate_ids:
        waited = events["indeterminate", op_id].t - events["invoke", op_id].t
        assert waited >= cfg.request_timeout
    # The only timers that fired are the lost attempts' own, each on a
    # future nothing had settled; every answered attempt cancelled its.
    assert fired and not any(fired)
    assert len(fired) <= report.retries
    assert generator.transport.messages_dropped >= len(fired)


def test_a_timed_out_cached_owner_is_forgotten(workload):
    placement = registry.create("d2-tree").partition(workload.tree, NUM_SERVERS)
    root, owner = next(iter(placement.subtree_owner.items()))
    cfg = LoadConfig(
        rate=1e6, max_inflight=1, seed=SEED, request_timeout=0.02, max_retries=1,
    )

    async def body(cluster):
        cluster.transport.set_loss(mds_addr(owner), 1.0)
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, [(0, root.path, "read")], cfg
        )
        generator.index_cache.put(root.path, (owner, 0))
        report = await generator.run()
        cluster.transport.clear_endpoint(mds_addr(owner))
        return report, generator.index_cache.peek(root.path)

    (report, entry), unhandled = _with_cluster(workload, body)
    assert unhandled == []
    assert (report.acked, report.failed, report.indeterminate) == (0, 0, 1)
    assert report.retries == 1 and report.duration >= cfg.request_timeout
    assert entry is None


def test_a_reply_after_its_timer_fired_is_dropped_silently(workload):
    """The server answers later than the client waits: every attempt times
    out, every reply lands on a waiter that is gone. The op was applied —
    the client can only call it indeterminate — and nothing blows up."""
    ops = trace_ops(workload.trace)[:6]
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
        return report, served, check_invariants(cluster, report)

    (report, served, violations), unhandled = _with_cluster(
        workload, body, service_time=0.03
    )
    assert unhandled == [] and violations == []
    assert report.acked == 0 and report.failed == 0
    assert report.indeterminate == len(ops)
    assert served > 0  # the late replies were real: servers did ack


def test_cancelled_timers_never_fire(workload, monkeypatch):
    fired = _counting_expire(monkeypatch)
    ops = trace_ops(workload.trace)[:200]
    cfg = LoadConfig(rate=1e6, max_inflight=4, seed=SEED, request_timeout=0.05)

    async def body(cluster):
        generator = LoadGenerator(cluster.transport, NUM_SERVERS, ops, cfg)
        report = await generator.run()
        await asyncio.sleep(2 * cfg.request_timeout)
        return report

    report, unhandled = _with_cluster(workload, body)
    assert report.acked == len(ops) and report.retries == 0
    assert fired == [] and unhandled == []


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
