"""Wire-codec contracts: exhaustive round-trips, versioning, framing.

Hypothesis drives ``from_wire(to_wire(msg)) == msg`` across every type in
``messages.WIRE_TYPES`` — including a pass through the actual JSON bytes
the live transport frames, so anything JSON would mangle (tuple identity,
float formatting, unicode) is caught here and not on a live socket.
"""

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import (
    WIRE_TYPES,
    WIRE_VERSION,
    ClientReply,
    ClientRequest,
    Directive,
    Heartbeat,
    from_wire,
    to_wire,
)
from repro.transport.wire import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_payload,
    encode_frame,
    encode_message,
)

# JSON-safe building blocks: no NaN/inf (JSON round-trips them lossily or
# not at all) and no lone surrogates in text.
finite = st.floats(allow_nan=False, allow_infinity=False)
ints = st.integers(min_value=-(2**53), max_value=2**53)
texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=64
)
#: Directive.info values must round-trip through JSON *by equality*:
#: scalars and flat lists of scalars do; tuples would come back as lists.
info_values = st.one_of(
    st.none(), st.booleans(), ints, finite, texts,
    st.lists(st.one_of(st.booleans(), ints, finite, texts), max_size=4),
)

heartbeats = st.builds(
    Heartbeat, server=ints, time=finite, load=finite,
    relative_capacity=finite,
)
directives = st.builds(
    Directive,
    epoch=ints,
    kind=texts,
    server=ints,
    t=finite,
    info=st.lists(st.tuples(texts, info_values), max_size=4).map(tuple),
)
client_requests = st.builds(
    ClientRequest, op_id=ints, path=texts, op=texts, client_id=ints,
)
client_replies = st.builds(
    ClientReply,
    op_id=ints, status=texts, server=ints, owner=ints, epoch=ints,
    root=texts,
)

#: One strategy per entry in WIRE_TYPES; the completeness test below fails
#: if a new message type lands without a round-trip strategy here.
MESSAGE_STRATEGIES = {
    "heartbeat": heartbeats,
    "directive": directives,
    "client_request": client_requests,
    "client_reply": client_replies,
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def test_every_wire_type_has_a_strategy():
    assert set(MESSAGE_STRATEGIES) == set(WIRE_TYPES)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
@settings(max_examples=200)
@given(any_message)
def test_wire_round_trip(message):
    wire = to_wire(message)
    assert wire["v"] == WIRE_VERSION
    assert type(from_wire(wire)) is type(message)
    assert from_wire(wire) == message


@settings(max_examples=200)
@given(any_message)
def test_wire_round_trip_through_json_bytes(message):
    """The full live path: message -> frame bytes -> payload -> message."""
    frame = encode_message(message)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    payload = decode_payload(frame[4:])
    rebuilt = from_wire(payload)
    assert rebuilt == message
    # JSON re-encoding is canonical (sorted keys, compact separators), so
    # a decode/re-encode cycle is byte-stable — what makes frame bytes
    # comparable across runs and hosts.
    assert encode_frame(payload) == frame


@given(any_message)
def test_typed_from_wire_matches_dispatcher(message):
    wire = to_wire(message)
    assert type(message).from_wire(json.loads(json.dumps(wire))) == message


# ----------------------------------------------------------------------
# Envelope rejection
# ----------------------------------------------------------------------
@given(any_message, st.integers().filter(lambda v: v != WIRE_VERSION))
def test_version_mismatch_is_rejected(message, bad_version):
    wire = to_wire(message)
    wire["v"] = bad_version
    with pytest.raises(ValueError, match="schema version"):
        from_wire(wire)


@given(any_message)
def test_missing_version_is_rejected(message):
    wire = to_wire(message)
    del wire["v"]
    with pytest.raises(ValueError, match="schema version"):
        from_wire(wire)


def test_unknown_type_is_rejected():
    with pytest.raises(ValueError, match="unknown wire message type"):
        from_wire({"v": WIRE_VERSION, "type": "no-such-message"})


def test_typed_decoder_rejects_wrong_tag():
    wire = Heartbeat(0, 0.0, 0.0, 1.0).to_wire()
    with pytest.raises(ValueError, match="expected a 'directive'"):
        Directive.from_wire(wire)


# ----------------------------------------------------------------------
# Hostile frames: a missing or mistyped field is the typed ValueError the
# transport drops a connection on, never a KeyError/TypeError that would
# kill the handler task.
# ----------------------------------------------------------------------
@given(any_message, st.data())
def test_a_missing_field_is_a_value_error(message, data):
    wire = to_wire(message)
    field = data.draw(st.sampled_from(sorted(set(wire) - {"v", "type"})))
    del wire[field]
    with pytest.raises(ValueError, match="malformed"):
        from_wire(wire)
    with pytest.raises(ValueError, match="malformed"):
        type(message).from_wire(wire)


@pytest.mark.parametrize("message, field, value", [
    (ClientRequest(1, "/a", "read"), "op_id", None),
    (ClientRequest(1, "/a", "read"), "op_id", [1]),
    (ClientRequest(1, "/a", "read"), "path", 7),
    (ClientRequest(1, "/a", "read"), "op", None),
    (ClientRequest(1, "/a", "read"), "client_id", {}),
    (ClientReply(1, "ack", 0), "status", 3),
    (ClientReply(1, "ack", 0), "owner", None),
    (ClientReply(1, "ack", 0), "root", None),
    (ClientReply(1, "ack", 0), "root", ["/a"]),
    (Directive(1, "rehome"), "epoch", None),
    (Directive(1, "rehome"), "kind", 5),
    (Directive(1, "rehome"), "info", None),
    (Directive(1, "rehome"), "info", [["only-a-key"]]),
    (Directive(1, "rehome"), "info", [[5, "non-text key"]]),
    (Heartbeat(0, 0.0, 0.0, 1.0), "server", None),
    (Heartbeat(0, 0.0, 0.0, 1.0), "load", "heavy"),
    (Heartbeat(0, 0.0, 0.0, 1.0), "time", []),
])
def test_a_mistyped_field_is_a_value_error(message, field, value):
    wire = to_wire(message)
    wire[field] = value
    with pytest.raises(ValueError):
        from_wire(wire)


def test_the_issue_example_frame_is_a_value_error():
    with pytest.raises(ValueError, match="malformed 'client_request'"):
        ClientRequest.from_wire({"v": WIRE_VERSION, "type": "client_request"})


def test_an_unhashable_type_tag_is_rejected():
    with pytest.raises(ValueError, match="unknown wire message type"):
        from_wire({"v": WIRE_VERSION, "type": ["client_request"]})


def test_a_garbage_frame_drops_the_connection_not_the_server():
    """A live MDS answers a hostile frame by closing that connection; the
    handler task ends cleanly and the endpoint keeps serving."""
    from repro.transport.asyncio_net import AsyncioTransport
    from repro.transport.live import LiveConfig, LiveMDS
    from repro.transport.wire import read_frame

    async def go():
        loop = asyncio.get_running_loop()
        unhandled = []
        loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
        transport = AsyncioTransport(mode="unix")
        mds = LiveMDS(0, transport, LiveConfig(num_servers=1, num_monitors=0))
        await transport.start_endpoint(mds.addr, mds._handle)
        try:
            for garbage in (
                {"v": WIRE_VERSION, "type": "client_request"},
                {"v": WIRE_VERSION, "type": "client_request", "op_id": None,
                 "path": "/a", "op": "read", "client_id": 0},
                {"v": WIRE_VERSION, "type": "directive", "epoch": 1,
                 "kind": "rehome", "server": -1, "t": 0.0,
                 "info": [["roots", "not-a-list-of-pairs"]]},
            ):
                reader, writer = await transport.connect(mds.addr)
                writer.write(encode_frame(garbage))
                await writer.drain()
                # The server hangs up on us (EOF), it does not reply.
                assert await asyncio.wait_for(read_frame(reader), 2.0) is None
                writer.close()
            assert mds.state.fence_epoch == 0  # the bad directive applied nothing
            reader, writer = await transport.connect(mds.addr)
            writer.write(encode_message(ClientRequest(9, "/a", "read")))
            await writer.drain()
            reply = from_wire(await asyncio.wait_for(read_frame(reader), 2.0))
            writer.close()
        finally:
            await transport.close()
        await asyncio.sleep(0)
        return reply, unhandled

    reply, unhandled = asyncio.run(go())
    assert reply == ClientReply(9, "error", 0)
    assert unhandled == []


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def _read_frames(data: bytes, count: int, eof: bool = True):
    """Feed ``data`` to a fresh StreamReader and read ``count`` frames."""
    from repro.transport.wire import read_frame

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return [await read_frame(reader) for _ in range(count)]

    return asyncio.run(go())


def _read_one(data: bytes, eof: bool = True):
    return _read_frames(data, 1, eof=eof)[0]


def test_read_frame_round_trip_and_clean_eof():
    payload = {"v": WIRE_VERSION, "type": "heartbeat", "server": 3,
               "time": 1.5, "load": 2.0, "relative_capacity": 1.0}
    first, second, third = _read_frames(encode_frame(payload) * 2, 3)
    assert first == payload
    assert second == payload
    assert third is None  # clean EOF between frames


def test_torn_header_raises_frame_error():
    with pytest.raises(FrameError, match="frame header"):
        _read_one(b"\x00\x00")


def test_torn_body_raises_frame_error():
    frame = encode_frame({"v": WIRE_VERSION, "type": "heartbeat",
                          "server": 1, "time": 0.5})
    with pytest.raises(FrameError, match="frame body"):
        _read_one(frame[:-3])


def test_oversized_length_prefix_is_rejected_before_reading():
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(FrameError, match="exceeds cap"):
        _read_one(header, eof=False)


def test_oversized_payload_is_rejected_at_encode():
    with pytest.raises(FrameError, match="exceeds cap"):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_non_object_payload_is_rejected():
    with pytest.raises(FrameError, match="JSON object"):
        decode_payload(b"[1,2,3]")


def test_garbage_payload_is_rejected():
    with pytest.raises(FrameError, match="undecodable"):
        decode_payload(b"\xff\xfe not json")


def test_frame_just_under_cap_round_trips():
    # A frame that nearly fills the cap must still be accepted on both the
    # encode and the read side (the cap guards runaway peers, not big but
    # legitimate payloads).
    payload = {"pad": "x" * (MAX_FRAME_BYTES - 64)}
    assert _read_one(encode_frame(payload)) == payload


def test_good_frame_then_torn_tail_fails_only_the_tail():
    # A torn frame after a good one must not poison the earlier decode:
    # the reader hands back the complete frame, then reports the tear.
    from repro.transport.wire import read_frame

    good = {"v": WIRE_VERSION, "type": "heartbeat", "server": 1, "time": 0.5}
    frame = encode_frame(good)

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(frame + frame[: len(frame) // 2])
        reader.feed_eof()
        first = await read_frame(reader)
        with pytest.raises(FrameError, match="frame body"):
            await read_frame(reader)
        return first

    assert asyncio.run(go()) == good


def test_torn_length_prefix_alone_raises_header_error():
    # Fewer than four bytes cannot even carry the length prefix.
    for size in (1, 2, 3):
        with pytest.raises(FrameError, match="frame header"):
            _read_one(b"\x7f" * size)
