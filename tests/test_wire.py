"""Wire-codec contracts: exhaustive round-trips, versioning, framing.

Hypothesis drives ``from_wire(to_wire(msg)) == msg`` across every type in
``messages.WIRE_TYPES`` — including a pass through the actual frame bytes
the live transport writes — with every field drawn from the full range its
packed width allows. The other half is hostility: arbitrary bytes,
truncations and single-bit flips of valid frames either decode to a message
or raise ``ValueError``; nothing else (``struct.error``,
``UnicodeDecodeError``, ``IndexError``) may reach a connection handler.
"""

import asyncio
import dataclasses
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
    read_frame,
)

# Field ranges are the packed widths: i32 / i64 header fields, text whose
# UTF-8 form fits the u8 (op, status) or u16 (path, root) length field.
# Floats ride as IEEE doubles, so infinities survive; NaN only fails ``==``.
i32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
doubles = st.floats(allow_nan=False)
characters = st.characters(blacklist_categories=("Cs",))
short_texts = st.text(alphabet=characters, max_size=63)   # <= 252 bytes
long_texts = st.text(alphabet=characters, max_size=300)   # <= 1200 bytes
# A directive's body is JSON: no NaN/inf, ints any size JSON carries.
finite = st.floats(allow_nan=False, allow_infinity=False)
json_ints = st.integers(min_value=-(2**70), max_value=2**70)
#: Directive.info values must round-trip through JSON *by equality*:
#: scalars and flat lists of scalars do; tuples would come back as lists.
info_values = st.one_of(
    st.none(), st.booleans(), json_ints, finite, long_texts,
    st.lists(st.one_of(st.booleans(), json_ints, finite, long_texts), max_size=4),
)

heartbeats = st.builds(
    Heartbeat, server=i32, time=doubles, load=doubles,
    relative_capacity=doubles,
)
directives = st.builds(
    Directive,
    epoch=json_ints,
    kind=long_texts,
    server=json_ints,
    t=finite,
    info=st.lists(st.tuples(long_texts, info_values), max_size=4).map(tuple),
)
client_requests = st.builds(
    ClientRequest, op_id=i64, path=long_texts, op=short_texts, client_id=i32,
)
client_replies = st.builds(
    ClientReply,
    op_id=i64, status=short_texts, server=i32, owner=i32, epoch=i64,
    root=long_texts,
)

#: One strategy per entry in WIRE_TYPES; the completeness test below fails
#: if a new message type lands without a round-trip strategy here.
MESSAGE_STRATEGIES = {
    Heartbeat: heartbeats,
    Directive: directives,
    ClientRequest: client_requests,
    ClientReply: client_replies,
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def payload_of(message) -> bytes:
    """The frame payload (version, tag, body) of one message."""
    return encode_frame(to_wire(message))[4:]


def decode(payload: bytes):
    """What a connection handler does with the bytes after the length."""
    return from_wire(decode_payload(payload))


def decodes_or_value_error(payload: bytes):
    """Decode hostile bytes: a message, or exactly the error the transport
    drops a connection on. Any other exception propagates and fails."""
    try:
        message = decode(payload)
    except ValueError as error:
        assert type(error) in (ValueError, FrameError), repr(error)
        return None
    assert type(message) in MESSAGE_STRATEGIES
    return message


def replaced(message, **changes):
    if dataclasses.is_dataclass(message):
        return dataclasses.replace(message, **changes)
    return message._replace(**changes)


def test_every_wire_type_has_a_strategy():
    assert set(MESSAGE_STRATEGIES) == set(WIRE_TYPES.values())
    assert all(WIRE_TYPES[cls.TAG] is cls for cls in MESSAGE_STRATEGIES)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
@settings(max_examples=200)
@given(any_message)
def test_wire_round_trip(message):
    tag, body = wire = to_wire(message)
    assert WIRE_TYPES[tag] is type(message) and isinstance(body, bytes)
    assert type(from_wire(wire)) is type(message)
    assert from_wire(wire) == message


@settings(max_examples=200)
@given(any_message)
def test_wire_round_trip_through_frame_bytes(message):
    """The full live path: message -> frame bytes -> wire form -> message."""
    frame = encode_frame(to_wire(message))
    length, version, tag = struct.unpack_from(">IBB", frame)
    assert length == len(frame) - 4
    assert (version, tag) == (WIRE_VERSION, type(message).TAG)
    wire = decode_payload(frame[4:])
    assert from_wire(wire) == message
    # Re-framing a decoded wire form is byte-stable — what makes frame
    # bytes comparable across runs and hosts.
    assert encode_frame(wire) == frame


@given(any_message)
def test_typed_from_wire_matches_dispatcher(message):
    wire = to_wire(message)
    assert type(message).from_wire(wire) == from_wire(wire) == message


@pytest.mark.parametrize("message", [
    ClientRequest(2**63 - 1, "/" + "p" * 65534, "o" * 255, -(2**31)),
    ClientRequest(-(2**63), "", "", 2**31 - 1),
    ClientReply(-(2**63), "s" * 255, 2**31 - 1, -(2**31), 2**63 - 1, "r" * 65535),
    Heartbeat(-(2**31), float("inf"), -0.0, 5e-324),
])
def test_every_field_round_trips_at_the_edge_of_its_width(message):
    assert decode(payload_of(message)) == message


def test_fixed_layout_frames_are_a_few_dozen_bytes():
    request = encode_frame(to_wire(ClientRequest(1234, "/d3/d17/f42", "update")))
    reply = encode_frame(to_wire(ClientReply(1234, "ack", 2, 2, 1, "/d3/d17")))
    assert len(request) == 4 + 2 + 15 + len("update") + len("/d3/d17/f42") <= 60
    assert len(reply) == 4 + 2 + 27 + len("ack") + len("/d3/d17") <= 50


# ----------------------------------------------------------------------
# Encode-time rejection: a field the layout has no room for
# ----------------------------------------------------------------------
@pytest.mark.parametrize("message", [
    ClientRequest(2**63, "/a", "read"),
    ClientRequest(-(2**63) - 1, "/a", "read"),
    ClientRequest(1, "/a", "read", client_id=2**31),
    ClientRequest(1, "/" + "p" * 65535, "read"),        # path over the u16
    ClientRequest(1, "/a", "o" * 256),                  # op over the u8
    ClientRequest(1, "/" + "é" * 32768, "read"),        # counted in bytes
    ClientRequest(1, "/lone\ud800surrogate", "read"),   # not UTF-8-encodable
    ClientRequest(1.5, "/a", "read"),
    ClientReply(1, "ack", 2**31),
    ClientReply(1, "ack", 0, owner=-(2**31) - 1),
    ClientReply(1, "ack", 0, epoch=2**63),
    ClientReply(1, "s" * 256, 0),
    ClientReply(1, "ack", 0, root="r" * 65536),
    Heartbeat(2**31, 0.0, 0.0, 1.0),
    Heartbeat(0, 0.0, 10**400, 1.0),                    # int too big for a double
    Directive(1, "rehome", info=(("when", object()),)),  # not JSON-encodable
])
def test_an_out_of_range_field_is_a_value_error_at_encode(message):
    with pytest.raises(ValueError, match="does not fit the wire layout") as info:
        to_wire(message)
    assert type(info.value) is ValueError


# ----------------------------------------------------------------------
# Envelope rejection
# ----------------------------------------------------------------------
@given(any_message, st.integers(0, 255).filter(lambda v: v != WIRE_VERSION))
def test_version_mismatch_is_rejected(message, bad_version):
    payload = bytes([bad_version]) + payload_of(message)[1:]
    with pytest.raises(FrameError, match=f"schema version {bad_version} "):
        decode_payload(payload)


def test_a_v2_json_frame_is_rejected_as_version_123():
    """A version-2 peer's payload is a JSON object: its first byte is ``{``
    (123), which must read as an unsupported version — never half-parse."""
    v2 = json.dumps(
        {"v": 2, "type": "client_request", "op_id": 1, "path": "/a",
         "op": "read", "client_id": 0},
        separators=(",", ":"), sort_keys=True,
    ).encode()
    with pytest.raises(FrameError, match="version 123 is not supported"):
        decode_payload(v2)
    with pytest.raises(FrameError, match="speaks version 3"):
        _read_one(struct.pack(">I", len(v2)) + v2)


def test_missing_version_is_rejected():
    # A payload too short to carry the version and tag bytes at all.
    for payload in (b"", bytes([WIRE_VERSION])):
        with pytest.raises(FrameError, match="shorter than the version/tag"):
            decode_payload(payload)


def test_unknown_type_is_rejected():
    assert 99 not in WIRE_TYPES
    with pytest.raises(ValueError, match="unknown wire message tag 99"):
        from_wire((99, b""))
    with pytest.raises(ValueError, match="unknown wire message tag 0"):
        decode(bytes([WIRE_VERSION, 0]) + b"body")


def test_typed_decoder_rejects_wrong_tag():
    wire = Heartbeat(0, 0.0, 0.0, 1.0).to_wire()
    with pytest.raises(ValueError, match="expected a Directive"):
        Directive.from_wire(wire)


# ----------------------------------------------------------------------
# Hostile bodies: whatever is wrong with one, the decoder raises the plain
# ValueError the transport drops a connection on — never a struct.error,
# UnicodeDecodeError, IndexError or KeyError that would kill the handler
# task.
# ----------------------------------------------------------------------
@given(any_message, st.data())
def test_a_missing_field_is_a_value_error(message, data):
    """A body cut short of its last field (a directive: a JSON key gone)."""
    tag, body = to_wire(message)
    if isinstance(message, Directive):
        fields = json.loads(body)
        del fields[data.draw(st.sampled_from(sorted(fields)))]
        short = json.dumps(fields).encode()
    else:
        short = body[: data.draw(st.integers(0, len(body) - 1))]
    for typed in (from_wire, type(message).from_wire):
        with pytest.raises(ValueError, match="malformed") as info:
            typed((tag, short))
        assert type(info.value) is ValueError


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
    """A packed layout has no way to carry a mistyped field, so the three
    fixed-layout types refuse it at encode time; a directive's JSON body
    can carry one, so its decoder is the one that must refuse."""
    if isinstance(message, Directive):
        tag, body = to_wire(message)
        fields = json.loads(body)
        fields[field] = value
        with pytest.raises(ValueError, match="malformed Directive"):
            from_wire((tag, json.dumps(fields).encode()))
    else:
        with pytest.raises(ValueError, match="does not fit the wire layout"):
            to_wire(replaced(message, **{field: value}))


def test_the_issue_example_frame_is_a_value_error():
    # PR 13's example: a client_request envelope with no fields behind it.
    with pytest.raises(ValueError, match="malformed ClientRequest"):
        ClientRequest.from_wire((ClientRequest.TAG, b""))


def _request_body(op_id=1, client_id=0, op_len=4, path_len=2, tail=b"read/a"):
    return struct.pack(">qiBH", op_id, client_id, op_len, path_len) + tail


def _reply_body(status_len=3, root_len=2, tail=b"ack/a"):
    return struct.pack(">qiiqBH", 1, 0, 0, 1, status_len, root_len) + tail


_DEEP = b'{"epoch":1,"kind":"k","server":0,"t":0,"info":[["k",' + b"[" * 100_000


@pytest.mark.parametrize("wire", [
    (ClientRequest.TAG, _request_body()[:14]),                 # header torn
    (ClientRequest.TAG, _request_body(path_len=12)),           # path overruns
    (ClientRequest.TAG, _request_body(op_len=200)),            # op overruns
    (ClientRequest.TAG, _request_body() + b"trailing"),        # bytes left over
    (ClientRequest.TAG, _request_body(tail=b"re\xffd/a")),     # op not UTF-8
    (ClientRequest.TAG, _request_body(tail=b"read\xc3\x28")),  # path not UTF-8
    (ClientReply.TAG, _reply_body()[:26]),
    (ClientReply.TAG, _reply_body(root_len=65535)),
    (ClientReply.TAG, _reply_body(status_len=0)),
    (ClientReply.TAG, _reply_body(tail=b"a\xffk/a")),
    (ClientReply.TAG, _request_body()),                        # another type's body
    (Heartbeat.TAG, struct.pack(">iddd", 0, 0.0, 0.0, 1.0)[:-1]),
    (Heartbeat.TAG, struct.pack(">iddd", 0, 0.0, 0.0, 1.0) + b"\x00"),
    (Directive.TAG, b"\xff\xfe not json"),
    (Directive.TAG, b'{"epoch":1,"kind":'),
    (Directive.TAG, _DEEP),                                    # RecursionError inside
    (Directive.TAG, b'{"epoch":1,"kind":"k","server":0,"t":1' + b"0" * 400 + b',"info":[]}'),
    (Directive.TAG, b'{"epoch":1.5,"kind":"k","server":0,"t":0,"info":[]}'),
    (Directive.TAG, b'{"epoch":1,"kind":"k","server":0,"t":"0","info":[]}'),
    (Directive.TAG, b'{"epoch":1,"kind":"k","server":0,"t":0,"info":["ab"]}'),
])
def test_a_malformed_body_is_a_plain_value_error(wire):
    cls = WIRE_TYPES[wire[0]]
    for typed in (from_wire, cls.from_wire):
        with pytest.raises(ValueError, match=f"malformed {cls.__name__}") as info:
            typed(wire)
        assert type(info.value) is ValueError


def test_non_object_payload_is_rejected():
    # The one JSON body left on the wire must still be an object.
    for body in (b"[1,2,3]", b'"text"', b"7", b"null"):
        with pytest.raises(ValueError, match="JSON object"):
            from_wire((Directive.TAG, body))


def test_garbage_payload_is_rejected():
    with pytest.raises(FrameError, match="version 255 is not supported"):
        decode_payload(b"\xff\xfe not json")


@settings(max_examples=300)
@given(st.one_of(
    st.binary(max_size=160),
    st.builds(
        lambda tag, body: bytes([WIRE_VERSION, tag]) + body,
        st.sampled_from(sorted(WIRE_TYPES)), st.binary(max_size=160),
    ),
))
def test_arbitrary_bytes_decode_or_value_error(payload):
    decodes_or_value_error(payload)


@settings(max_examples=200)
@given(any_message, st.data())
def test_a_truncated_frame_is_always_a_value_error(message, data):
    """Every strict prefix of a valid payload is rejected: the length
    fields (a directive: the closing brace) make a short body detectable."""
    payload = payload_of(message)
    cut = data.draw(st.integers(0, len(payload) - 1))
    assert decodes_or_value_error(payload[:cut]) is None


@settings(max_examples=300)
@given(any_message, st.data())
def test_a_bit_flipped_frame_decodes_or_value_error(message, data):
    """One flipped bit anywhere in a frame — length prefix included — ends
    in a decoded message or a ValueError, through the real frame reader."""
    frame = bytearray(encode_frame(to_wire(message)))
    bit = data.draw(st.integers(0, len(frame) * 8 - 1))
    frame[bit // 8] ^= 1 << (bit % 8)

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(bytes(frame))
        reader.feed_eof()
        try:
            while True:
                wire = await read_frame(reader)
                if wire is None:
                    return
                from_wire(wire)
        except ValueError as error:
            assert type(error) in (ValueError, FrameError), repr(error)

    asyncio.run(go())


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def test_a_garbage_frame_drops_the_connection_not_the_server():
    """A live MDS answers a hostile frame by closing that connection; the
    handler task ends cleanly, nothing is applied and the endpoint keeps
    serving."""
    from repro.transport.asyncio_net import AsyncioTransport
    from repro.transport.live import LiveConfig, LiveMDS

    envelope = bytes([WIRE_VERSION, ClientRequest.TAG])
    bad_index = Directive(
        1, "ownership", info=(("roots", "not-a-list-of-pairs"),)
    )
    garbage = {
        "short header": _framed(bytes([WIRE_VERSION])),
        "bad version": _framed(b'{"v":2,"type":"client_request"}'),
        "unknown tag": _framed(bytes([WIRE_VERSION, 99]) + _request_body()),
        "empty body": _framed(envelope),
        "path overruns the frame": _framed(envelope + _request_body(path_len=500)),
        "invalid UTF-8": _framed(envelope + _request_body(tail=b"read\xff\xfe")),
        "directive body not an object": _framed(
            bytes([WIRE_VERSION, Directive.TAG]) + b"[1,2,3]"
        ),
        "directive index malformed": encode_frame(to_wire(bad_index)),
    }

    async def go():
        loop = asyncio.get_running_loop()
        unhandled = []
        loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
        transport = AsyncioTransport(mode="unix")
        mds = LiveMDS(0, transport, LiveConfig(num_servers=1, num_monitors=0))
        await transport.start_endpoint(mds.addr, mds._handle)
        try:
            for what, frame in garbage.items():
                reader, writer = await transport.connect(mds.addr)
                writer.write(frame)
                await writer.drain()
                # The server hangs up on us (EOF), it does not reply.
                hung_up = await asyncio.wait_for(reader.read(), 2.0)
                assert hung_up == b"", what
                writer.close()
            # Nothing was applied: no fence ratchet, no index, no ack.
            assert mds.state.fence_epoch == 0
            assert len(mds.index) == 0
            assert mds.acked == set() and mds.served == 0
            reader, writer = await transport.connect(mds.addr)
            writer.write(encode_frame(to_wire(ClientRequest(9, "/a", "read"))))
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
BEAT = Heartbeat(server=3, time=1.5, load=2.0, relative_capacity=1.0)


def _read_frames(data: bytes, count: int, eof: bool = True):
    """Feed ``data`` to a fresh StreamReader and read ``count`` frames."""

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
    first, second, third = _read_frames(encode_frame(to_wire(BEAT)) * 2, 3)
    assert first == second == to_wire(BEAT)
    assert from_wire(first) == BEAT
    assert third is None  # clean EOF between frames


def test_torn_header_raises_frame_error():
    with pytest.raises(FrameError, match="frame header"):
        _read_one(b"\x00\x00")


def test_torn_body_raises_frame_error():
    frame = encode_frame(to_wire(BEAT))
    with pytest.raises(FrameError, match="frame body"):
        _read_one(frame[:-3])


def test_oversized_length_prefix_is_rejected_before_reading():
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(FrameError, match="exceeds cap"):
        _read_one(header, eof=False)


def test_oversized_payload_is_rejected_at_encode():
    # Two envelope bytes count against the cap with the body.
    with pytest.raises(FrameError, match="exceeds cap"):
        encode_frame((Directive.TAG, b"x" * (MAX_FRAME_BYTES - 1)))


def test_a_tag_outside_the_envelope_byte_is_rejected_at_encode():
    for tag in (-1, 256, None):
        with pytest.raises(FrameError, match="does not fit the envelope"):
            encode_frame((tag, b""))


def test_frame_just_under_cap_round_trips():
    # A frame that nearly fills the cap must still be accepted on both the
    # encode and the read side (the cap guards runaway peers, not big but
    # legitimate payloads).
    wire = (Directive.TAG, b"x" * (MAX_FRAME_BYTES - 64))
    assert _read_one(encode_frame(wire)) == wire
    full = (Directive.TAG, b"x" * (MAX_FRAME_BYTES - 2))
    assert _read_one(encode_frame(full)) == full


def test_good_frame_then_torn_tail_fails_only_the_tail():
    # A torn frame after a good one must not poison the earlier decode:
    # the reader hands back the complete frame, then reports the tear.
    frame = encode_frame(to_wire(BEAT))

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(frame + frame[: len(frame) // 2])
        reader.feed_eof()
        first = await read_frame(reader)
        with pytest.raises(FrameError, match="frame body"):
            await read_frame(reader)
        return first

    assert from_wire(asyncio.run(go())) == BEAT


def test_torn_length_prefix_alone_raises_header_error():
    # Fewer than four bytes cannot even carry the length prefix.
    for size in (1, 2, 3):
        with pytest.raises(FrameError, match="frame header"):
            _read_one(b"\x7f" * size)
