"""AsyncioTransport contracts: lifecycle, crash semantics, fault checks.

These tests exercise the *live* side of the unified Transport API with
real sockets (unix by default, one TCP case). The shared FaultFabric
verdict logic itself is covered by tests/test_network.py; here we assert
the live transport obeys the same surface — a muted endpoint's control
frames vanish, partitions never touch client traffic, a stopped endpoint
refuses connections like a dead process — on the raw stream surface and on
the framed links every live node speaks, and that a live MDS holds a link
while a request is in service.
"""

import asyncio

import pytest

from repro import registry
from repro.cluster.index import RoutingIndex
from repro.cluster.messages import ClientRequest, Heartbeat, from_wire
from repro.simulation import ClusterSimulator
from repro.transport import CLIENT_ADDR, FaultFabric, mds_addr, mon_addr
from repro.transport.asyncio_net import AsyncioTransport
from repro.transport.live import LiveConfig, LiveMDS
from repro.transport.wire import LENGTH_PREFIX, FrameError, decode_payload, encode_frame


def run(coro):
    return asyncio.run(coro)


async def _read_wire(reader):
    """One frame off a raw stream: its length prefix, then its payload."""
    (length,) = LENGTH_PREFIX.unpack(await reader.readexactly(LENGTH_PREFIX.size))
    return decode_payload(await reader.readexactly(length))


async def _echo_handler(reader, writer):
    """Echo frames back until the peer hangs up (the stream surface; the
    transport ends the handler on the EOF's IncompleteReadError)."""
    while True:
        writer.write(encode_frame(await _read_wire(reader)))
        await writer.drain()


def _echo(link, wire):
    """The framed twin of ``_echo_handler``: answer in the callback."""
    link.write(encode_frame(wire))


#: The wire form bounced off the echo handler: any real message's will do.
PING = Heartbeat(server=1, time=0.5).to_wire()


# ----------------------------------------------------------------------
# One fault fabric under both transports
# ----------------------------------------------------------------------
def test_both_implementations_satisfy_transport(tiny_dtr_workload):
    # The simulator replays against the fabric itself; the live transport
    # subclasses it.
    sim = ClusterSimulator(registry.create("d2-tree"), tiny_dtr_workload, 4)
    assert type(sim.network) is FaultFabric
    assert isinstance(AsyncioTransport(), FaultFabric)


def test_addr_helpers():
    assert mds_addr(3) == "mds:3"
    assert mon_addr(0) == "mon:0"
    assert CLIENT_ADDR == "client"


# ----------------------------------------------------------------------
# Endpoint lifecycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["unix", "tcp"])
def test_endpoint_echo_round_trip(mode):
    async def go():
        transport = AsyncioTransport(mode=mode)
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            assert transport.is_listening("mds:0")
            reader, writer = await transport.connect("mds:0")
            writer.write(encode_frame(PING))
            await writer.drain()
            payload = await _read_wire(reader)
            writer.close()
            return payload
        finally:
            await transport.close()

    assert run(go()) == PING


def test_stopped_endpoint_refuses_connections():
    async def go():
        transport = AsyncioTransport()
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            await transport.stop_endpoint("mds:0")
            assert not transport.is_listening("mds:0")
            with pytest.raises(ConnectionRefusedError):
                await transport.connect("mds:0")
        finally:
            await transport.close()

    run(go())


def test_crash_aborts_established_connections():
    async def go():
        transport = AsyncioTransport()
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            reader, writer = await transport.connect("mds:0")
            # One echo round-trip first: guarantees the server has accepted
            # the stream (otherwise there is no inbound socket to abort).
            writer.write(encode_frame(PING))
            await writer.drain()
            assert await _read_wire(reader) == PING
            # The live "crash", with the client still holding its end open:
            # it must not wait for the client to hang up (since CPython 3.12
            # Server.wait_closed() waits for the endpoint's connections, so
            # they have to be aborted before it is awaited).
            await asyncio.wait_for(transport.stop_endpoint("mds:0"), timeout=1.0)
            # The aborted stream surfaces as EOF or a reset on next read.
            try:
                data = await asyncio.wait_for(reader.read(64), timeout=2.0)
            except ConnectionError:
                return True
            return data == b""
        finally:
            await transport.close()

    assert run(go())


def test_endpoint_restarts_at_the_same_address():
    async def go():
        transport = AsyncioTransport()
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            before = transport._addresses["mds:0"]
            await transport.stop_endpoint("mds:0")
            await transport.start_endpoint("mds:0", _echo_handler)
            assert transport._addresses["mds:0"] == before
            reader, writer = await transport.connect("mds:0")
            writer.write(encode_frame(PING))
            await writer.drain()
            assert await _read_wire(reader) == PING
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_double_start_is_an_error():
    async def go():
        transport = AsyncioTransport()
        try:
            await transport.start_endpoint("mds:0", _echo_handler)
            with pytest.raises(RuntimeError, match="already listening"):
                await transport.start_endpoint("mds:0", _echo_handler)
        finally:
            await transport.close()

    run(go())


# ----------------------------------------------------------------------
# Fault-checked sends
# ----------------------------------------------------------------------
def _connected(transport):
    """Open mds:0 with an echo handler and connect to it."""

    async def go():
        await transport.start_endpoint("mds:0", _echo_handler)
        return await transport.connect("mds:0")

    return go()


def test_muted_endpoint_drops_control_frames():
    async def go():
        transport = AsyncioTransport()
        try:
            reader, writer = await _connected(transport)
            transport.mute("mds:0")
            sent = await transport.send_control(
                "mon:0", "mds:0", writer, encode_frame(PING)
            )
            assert sent is False
            assert transport.messages_dropped == 1
            transport.clear_endpoint("mds:0")
            assert await transport.send_control(
                "mon:0", "mds:0", writer, encode_frame(PING)
            )
            assert await _read_wire(reader) == PING  # only the second landed
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_partition_blocks_control_but_not_client_data():
    async def go():
        transport = AsyncioTransport()
        try:
            reader, writer = await _connected(transport)
            transport.partition("wall", [["mds:0"], ["mon:0"]])
            assert not transport.reachable("mon:0", "mds:0")
            sent = await transport.send_control(
                "mon:0", "mds:0", writer, encode_frame(PING)
            )
            assert sent is False
            # Clients sit outside the partition model: data-plane frames
            # still land exactly as the shared data_arrival rule allows.
            assert await transport.send_data(
                CLIENT_ADDR, "mds:0", writer, encode_frame(PING)
            )
            assert await _read_wire(reader) == PING
            transport.heal()
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_full_loss_drops_data_frames():
    async def go():
        transport = AsyncioTransport(seed=5)
        try:
            reader, writer = await _connected(transport)
            transport.set_loss("mds:0", 1.0)
            sent = await transport.send_data(
                CLIENT_ADDR, "mds:0", writer, encode_frame(PING)
            )
            assert sent is False
            assert transport.messages_dropped == 1
            transport.clear_endpoint("mds:0")
            assert await transport.send_data(
                CLIENT_ADDR, "mds:0", writer, encode_frame(PING)
            )
            assert await _read_wire(reader) == PING
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_delay_defers_the_write():
    async def go():
        transport = AsyncioTransport(seed=5)
        try:
            reader, writer = await _connected(transport)
            transport.set_delay("mds:0", 0.05)
            loop = asyncio.get_running_loop()
            start = loop.time()
            assert await transport.send_control(
                "mon:0", "mds:0", writer, encode_frame(PING)
            )
            elapsed = loop.time() - start
            assert transport.messages_delayed == 1
            assert elapsed > 0.0  # the exponential draw actually slept
            assert await _read_wire(reader) == PING
            writer.close()
        finally:
            await transport.close()

    run(go())


def test_rejects_unknown_mode():
    with pytest.raises(ValueError, match="transport mode"):
        AsyncioTransport(mode="carrier-pigeon")


# ----------------------------------------------------------------------
# Framed links
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["unix", "tcp"])
def test_framed_endpoint_round_trip(mode):
    async def go():
        transport = AsyncioTransport(mode=mode)
        got = asyncio.get_running_loop().create_future()
        try:
            await transport.listen("mds:0", _echo)
            link = await transport.dial(
                "mds:0", lambda link, wire: got.set_result(wire)
            )
            link.write(encode_frame(PING))
            wire = await asyncio.wait_for(got, 2.0)
            link.close()
            return wire
        finally:
            await transport.close()

    assert run(go()) == PING


def test_a_crash_aborts_framed_links():
    async def go():
        transport = AsyncioTransport()
        loop = asyncio.get_running_loop()
        echoed, lost = loop.create_future(), loop.create_future()
        try:
            await transport.listen("mds:0", _echo)
            link = await transport.dial(
                "mds:0",
                lambda link, wire: echoed.set_result(wire),
                lambda link, exc: lost.set_result(exc),
            )
            link.write(encode_frame(PING))
            assert await asyncio.wait_for(echoed, 2.0) == PING
            # The crash does not wait for the client to hang up, and the
            # client's link learns of it through on_lost.
            await asyncio.wait_for(transport.stop_endpoint("mds:0"), timeout=1.0)
            await asyncio.wait_for(lost, 2.0)
            assert link.closing
            with pytest.raises(ConnectionResetError):
                link.write(encode_frame(PING))
            with pytest.raises(ConnectionRefusedError):
                await transport.dial("mds:0", _echo)
        finally:
            await transport.close()

    run(go())


def test_a_torn_frame_from_the_peer_closes_the_link():
    async def half_a_frame(reader, writer):
        writer.write(encode_frame(PING)[:7])
        await writer.drain()

    async def go():
        transport = AsyncioTransport()
        lost = asyncio.get_running_loop().create_future()
        frames = []
        try:
            await transport.start_endpoint("mds:0", half_a_frame)
            await transport.dial(
                "mds:0",
                lambda link, wire: frames.append(wire),
                lambda link, exc: lost.set_result(exc),
            )
            return frames, await asyncio.wait_for(lost, 2.0)
        finally:
            await transport.close()

    frames, error = run(go())
    assert frames == []
    assert isinstance(error, FrameError) and "inside a frame body" in str(error)


# ----------------------------------------------------------------------
# A live MDS holds its link while a request is in service
# ----------------------------------------------------------------------
def _request(op_id, path="/a"):
    return encode_frame(ClientRequest(op_id, path, "read").to_wire())


def _serving_mds(transport, service_time):
    """An MDS that acks every path: it owns the one subtree, ``/``."""
    mds = LiveMDS(0, transport, LiveConfig(
        num_servers=1, num_monitors=0, service_time=service_time,
    ))
    mds.index = RoutingIndex(roots=[("/", 0)])
    return mds


def _with_mds(service_time, body):
    """Run ``await body(mds, reader, writer)`` against a listening MDS and a
    raw client stream; anything the loop's exception handler saw comes back
    next to the result."""

    async def go():
        loop = asyncio.get_running_loop()
        unhandled = []
        loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
        transport = AsyncioTransport()
        mds = _serving_mds(transport, service_time)
        await mds.sync()
        try:
            reader, writer = await transport.connect(mds.addr)
            try:
                return await body(mds, reader, writer), unhandled
            finally:
                writer.close()
        finally:
            await mds.stop()
            await transport.close()

    return run(go())


def test_pipelined_requests_on_one_link_are_served_in_order_service_time_apart():
    service = 0.04

    async def body(mds, reader, writer):
        loop = asyncio.get_running_loop()
        routed = []
        route = mds.route

        def timed_route(request):
            routed.append((request.op_id, loop.time()))
            return route(request)

        mds.route = timed_route
        writer.write(_request(1) + _request(2, "/b"))
        await writer.drain()
        sent = loop.time()
        replies = [from_wire(await asyncio.wait_for(_read_wire(reader), 2.0))
                   for _ in range(2)]
        return sent, routed, replies

    (sent, routed, replies), unhandled = _with_mds(service, body)
    assert unhandled == []
    assert [(r.op_id, r.status) for r in replies] == [(1, "ack"), (2, "ack")]
    (first, t1), (second, t2) = routed
    assert (first, second) == (1, 2)
    # The second request waited out the first one's service, then its own.
    assert t1 - sent >= service * 0.9
    assert t2 - t1 >= service * 0.99


def test_a_crash_during_service_routes_acks_and_writes_nothing():
    async def body(mds, reader, writer):
        writer.write(_request(1))
        await writer.drain()
        first = from_wire(await asyncio.wait_for(_read_wire(reader), 2.0))
        writer.write(_request(2))
        await writer.drain()
        await asyncio.sleep(0.01)  # request 2 is in service
        await mds.transport.stop_endpoint(mds.addr)  # the crash
        await asyncio.sleep(0.1)  # long past its service time
        try:
            tail = await asyncio.wait_for(reader.read(), 2.0)
        except ConnectionError:
            tail = b""
        return first, tail, set(mds.acked), mds.served

    (first, tail, acked, served), unhandled = _with_mds(0.03, body)
    assert unhandled == []
    assert (first.op_id, first.status) == (1, "ack")
    assert tail == b""
    assert acked == {1} and served == 1


def test_a_crash_just_after_a_dial_aborts_that_link_too():
    """The dial returns once the client's side is connected; the server's
    side may still be between asyncio's accept and its attach to the
    listener. A crash then must abort that link as well: the client sees the
    reset, and nothing reaches the loop's exception handler."""

    async def go():
        loop = asyncio.get_running_loop()
        unhandled = []
        loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
        transport = AsyncioTransport()
        lost = loop.create_future()
        try:
            await transport.listen("mds:0", _echo)
            await transport.dial(
                "mds:0", _echo, lambda link, exc: lost.set_result(exc)
            )
            # Awaited in this task, not wrapped in wait_for: a new task
            # would queue behind the server's pending accept.
            await transport.stop_endpoint("mds:0")
            await asyncio.wait_for(lost, 2.0)
        finally:
            await transport.close()
        return unhandled

    assert run(go()) == []
