"""Wire-codec contracts: exhaustive round-trips, versioning, framing.

Hypothesis drives ``from_wire(to_wire(msg)) == msg`` across every type in
``messages.WIRE_TYPES`` — including a pass through the actual frame bytes
the live transport writes — with every field drawn from the full range its
packed width allows. The other half is hostility: arbitrary bytes,
truncations and single-bit flips of valid frames either decode to a message
or raise ``ValueError``; nothing else (``struct.error``,
``UnicodeDecodeError``, ``IndexError``) may reach a connection handler.

The frame reader is :class:`~repro.transport.asyncio_net.FrameLink`, driven
here through a recording stand-in for its socket: any split of the bytes
into chunks decodes the same frames, a torn or oversized frame closes the
link, and a held link buffers, pauses and resumes by ``StreamReader``'s
rule.
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
from repro.transport.asyncio_net import PAUSE_ABOVE, RESUME_AT, FrameLink
from repro.transport.wire import (
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    FrameError,
    decode_payload,
    encode_frame,
)
from tests.conftest import index_size

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

heartbeats = st.builds(Heartbeat, server=i32, time=doubles)
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
    Heartbeat(-(2**31), float("inf")),
])
def test_every_field_round_trips_at_the_edge_of_its_width(message):
    assert decode(payload_of(message)) == message


def test_fixed_layout_frames_are_a_few_dozen_bytes():
    beat = encode_frame(to_wire(Heartbeat(3, 1.5)))
    request = encode_frame(to_wire(ClientRequest(1234, "/d3/d17/f42", "update")))
    reply = encode_frame(to_wire(ClientReply(1234, "ack", 2, 2, 1, "/d3/d17")))
    assert len(beat) == 4 + 2 + 12 == 18
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
    Heartbeat(2**31, 0.0),
    Heartbeat(0, 10**400),                              # int too big for a double
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
    with pytest.raises(FrameError, match="speaks version 4"):
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
    wire = Heartbeat(0, 0.0).to_wire()
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
    (Heartbeat(0, 0.0), "server", None),
    (Heartbeat(0, 0.0), "time", []),
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
    (Heartbeat.TAG, struct.pack(">id", 0, 0.0)[:-1]),
    (Heartbeat.TAG, struct.pack(">id", 0, 0.0) + b"\x00"),
    (Heartbeat.TAG, struct.pack(">iddd", 0, 0.0, 0.0, 1.0)),  # a version-3 beat
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
    # from_wire in the callback, as a live node does: its ValueError closes
    # the link like the decoder's own.
    _, lost = _feed([bytes(frame)], on_frame=from_wire)
    assert len(lost) == 1
    assert lost[0] is None or type(lost[0]) in (ValueError, FrameError), repr(lost[0])


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


async def _read_wire(reader):
    """One frame off a raw stream: its length prefix, then its payload."""
    (length,) = LENGTH_PREFIX.unpack(await reader.readexactly(LENGTH_PREFIX.size))
    return decode_payload(await reader.readexactly(length))


def test_a_garbage_frame_drops_the_connection_not_the_server():
    """A live MDS answers a hostile frame by closing that connection; its
    link closes cleanly (nothing reaches the loop's exception handler),
    nothing is applied and the endpoint keeps serving. The client is a raw
    stream: the bytes are the test's, not an encoder's."""
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
        await mds.sync()
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
            assert index_size(mds.index) == 0
            assert mds.acked == set() and mds.served == 0
            reader, writer = await transport.connect(mds.addr)
            writer.write(encode_frame(to_wire(ClientRequest(9, "/a", "read"))))
            await writer.drain()
            reply = from_wire(await asyncio.wait_for(_read_wire(reader), 2.0))
            writer.close()
        finally:
            await mds.stop()
            await transport.close()
        await asyncio.sleep(0)
        return reply, unhandled

    reply, unhandled = asyncio.run(go())
    assert reply == ClientReply(9, "error", 0)
    assert unhandled == []


# ----------------------------------------------------------------------
# Framing: the link's decoder
# ----------------------------------------------------------------------
BEAT = Heartbeat(server=3, time=1.5)


class FakeSocket:
    """The transport under a FrameLink, reduced to what the link asks of it."""

    def __init__(self):
        self.closed = False
        self.reading = True
        self.written = []

    def is_closing(self):
        return self.closed

    def write(self, data):
        self.written.append(data)

    def close(self):
        self.closed = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def _link(on_frame, on_lost=None):
    link = FrameLink(on_frame, on_lost)
    socket = FakeSocket()
    link.connection_made(socket)
    return link, socket


def _feed(chunks, eof=True, on_frame=None):
    """Push ``chunks`` through a fresh link, then EOF. Returns the wire forms
    it handed on, in order, and what ``on_lost`` reported: ``[]`` while the
    link is open, ``[None]`` for a clean close, ``[error]`` otherwise."""
    wires, lost = [], []

    def handed(link, wire):
        wires.append(wire)
        if on_frame is not None:
            on_frame(wire)

    link, socket = _link(handed, lambda link, exc: lost.append(exc))
    for chunk in chunks:
        if socket.closed:
            break  # a closed transport delivers nothing more
        link.data_received(chunk)
    if eof and not socket.closed:
        link.eof_received()
    if socket.closed:
        link.connection_lost(None)  # what asyncio does once close() is done
    return wires, lost


def _read_one(data: bytes, eof: bool = True):
    """The first frame of ``data`` — or the error the link closed on."""
    wires, lost = _feed([data], eof=eof)
    if wires:
        return wires[0]
    if lost and lost[0] is not None:
        raise lost[0]
    return None


@settings(max_examples=200)
@given(st.lists(any_message, min_size=1, max_size=6), st.data())
def test_any_split_of_a_run_of_frames_decodes_the_same_frames(messages, data):
    """However the socket chunks a run of frames — and whichever frames the
    owner holds the link for — the link hands on the same wire forms, in
    order, and closes cleanly at EOF."""
    stream = b"".join(encode_frame(to_wire(m)) for m in messages)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=10)))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
    holds = data.draw(st.lists(st.booleans(), min_size=len(messages),
                               max_size=len(messages)))
    wires, lost, held = [], [], []

    def on_frame(link, wire):
        if holds[len(wires)]:
            link.hold()
            held.append(link)
        wires.append(wire)

    link, socket = _link(on_frame, lambda link, exc: lost.append(exc))
    for chunk in chunks:
        link.data_received(chunk)
        while held:  # the owner answers, frees the link, and it decodes on
            held.pop().release()
    link.eof_received()
    while held:
        held.pop().release()
    assert socket.closed
    link.connection_lost(None)
    assert [from_wire(wire) for wire in wires] == messages
    assert lost == [None]


def test_link_round_trip_and_clean_eof():
    wires, lost = _feed([encode_frame(to_wire(BEAT)) * 2])
    assert wires == [to_wire(BEAT)] * 2
    assert from_wire(wires[0]) == BEAT
    assert lost == [None]  # clean EOF between frames


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


def test_an_oversized_prefix_closes_the_link_before_its_body_is_buffered():
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    link, socket = _link(lambda link, wire: None)
    link.data_received(header[:3])
    assert not socket.closed  # three bytes cannot carry a length yet
    link.data_received(header[3:] + b"x" * 1000)
    assert socket.closed  # refused on its length, not after the body came
    link.connection_lost(None)


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
    # the link hands on the complete frame, then reports the tear.
    frame = encode_frame(to_wire(BEAT))
    wires, lost = _feed([frame + frame[: len(frame) // 2]])
    assert [from_wire(wire) for wire in wires] == [BEAT]
    assert len(lost) == 1 and isinstance(lost[0], FrameError)
    assert "frame body" in str(lost[0])


def test_torn_length_prefix_alone_raises_header_error():
    # Fewer than four bytes cannot even carry the length prefix.
    for size in (1, 2, 3):
        with pytest.raises(FrameError, match="frame header"):
            _read_one(b"\x7f" * size)


def _flip(frame: bytes, index: int, value: int) -> bytes:
    """``frame`` with the byte at ``index`` replaced by another value."""
    value = value if value != frame[index] else (value + 1) % 256
    return frame[:index] + bytes([value]) + frame[index + 1:]


@st.composite
def hostile_segments(draw):
    """One stretch of a stream: a valid frame, or one with its version, tag
    or a length byte flipped, a payload of 0 or 1 bytes, or a length one
    over the cap."""
    frame = encode_frame(to_wire(draw(any_message)))
    kind = draw(st.sampled_from(
        ["valid", "version", "tag", "length", "empty", "one byte", "over cap"]
    ))
    if kind == "version":
        return _flip(frame, LENGTH_PREFIX.size, draw(st.integers(0, 255)))
    if kind == "tag":
        return _flip(frame, LENGTH_PREFIX.size + 1, draw(st.integers(0, 255)))
    if kind == "length":
        return _flip(frame, draw(st.integers(0, 3)), draw(st.integers(0, 255)))
    if kind == "empty":
        return LENGTH_PREFIX.pack(0)
    if kind == "one byte":
        return LENGTH_PREFIX.pack(1) + bytes([draw(st.integers(0, 255))])
    if kind == "over cap":
        return LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1) + frame
    return frame


def _frames_one_by_one(stream: bytes):
    """The reference reader: cut ``stream`` at its length prefixes and open
    each payload with ``decode_payload``. Returns the wire forms and the
    error the stream ends on (``None`` for a clean end)."""
    wires, offset = [], 0
    while len(stream) - offset >= LENGTH_PREFIX.size:
        (length,) = LENGTH_PREFIX.unpack_from(stream, offset)
        if length > MAX_FRAME_BYTES:
            return wires, FrameError("over the cap")
        end = offset + LENGTH_PREFIX.size + length
        if end > len(stream):
            return wires, FrameError("torn body")
        try:
            wires.append(decode_payload(stream[offset + LENGTH_PREFIX.size:end]))
        except FrameError as error:
            return wires, error
        offset = end
    return wires, (FrameError("torn header") if offset < len(stream) else None)


@settings(max_examples=300)
@given(st.lists(hostile_segments(), min_size=1, max_size=5), st.data())
def test_the_link_opens_frames_exactly_as_decode_payload_does(segments, data):
    """However the stream is cut into chunks, the link hands on the wire
    forms ``decode_payload`` gives frame by frame, and closes on the frame
    the reference reader stops at, with the same error class — for an
    envelope error, the same error."""
    stream = b"".join(segments)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=8)))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
    wires, lost = _feed(chunks)
    want_wires, want_error = _frames_one_by_one(stream)
    assert wires == want_wires
    assert len(lost) == 1
    if want_error is None:
        assert lost[0] is None
    else:
        assert type(lost[0]) is type(want_error)
        if "envelope" in str(want_error) or "version" in str(want_error):
            assert str(lost[0]) == str(want_error)


@settings(max_examples=200)
@given(st.one_of(client_requests, client_replies))
def test_a_request_or_reply_packed_into_its_frame_is_its_framed_wire_form(message):
    """The live path packs a request or a reply straight from its fields:
    the same bytes as framing its wire form."""
    assert type(message).frame(*message) == encode_frame(to_wire(message))


# ----------------------------------------------------------------------
# The hold rule and the write side
# ----------------------------------------------------------------------
def test_a_held_link_pauses_reading_above_128_kib_and_resumes_at_64():
    """StreamReader's default-limit rule, which bounds a slow server's
    backlog: a link held on every frame stops reading once more than
    PAUSE_ABOVE bytes wait, and reads again at RESUME_AT or fewer."""
    frame = encode_frame(to_wire(BEAT))
    handled = []

    def on_frame(link, wire):
        handled.append(wire)
        link.hold()

    link, socket = _link(on_frame)
    fed = 0
    chunk = frame * 100
    for _ in range(2 * PAUSE_ABOVE // len(chunk)):
        if not socket.reading:
            break  # a paused socket delivers nothing more
        assert fed - len(frame) * len(handled) <= PAUSE_ABOVE
        link.data_received(chunk)
        fed += len(chunk)
    assert not socket.reading
    assert fed - len(frame) * len(handled) > PAUSE_ABOVE
    while not socket.reading:
        assert fed - len(frame) * len(handled) > RESUME_AT
        link.release()  # one frame answered; the next one holds again
    assert fed - len(frame) * len(handled) <= RESUME_AT
    assert len(handled) < fed // len(frame)  # resumed while still backlogged


def test_every_writer_blocked_on_a_paused_link_wakes():
    async def go():
        link, _ = _link(lambda link, wire: None)
        link.pause_writing()
        blocked = [asyncio.ensure_future(link.drain()) for _ in range(3)]
        cancelled = asyncio.ensure_future(link.drain())
        await asyncio.sleep(0)
        assert not any(task.done() for task in blocked)
        cancelled.cancel()  # its waiter is done before the buffer drains
        await asyncio.sleep(0)
        link.resume_writing()
        await asyncio.wait_for(asyncio.gather(*blocked), 1.0)
        assert cancelled.cancelled()
        # A lost link fails its blocked writers instead of stranding them.
        link.pause_writing()
        stranded = asyncio.ensure_future(link.drain())
        await asyncio.sleep(0)
        link.connection_lost(None)
        with pytest.raises(ConnectionResetError):
            await asyncio.wait_for(stranded, 1.0)

    asyncio.run(go())


def test_a_write_over_the_high_water_mark_says_so_and_drained_callbacks_wake():
    """drain() for a sender that cannot await: write() returns False while
    the buffer is over its high-water mark, and a callback registered then
    runs once, when it drains or when the link is lost."""
    link, socket = _link(lambda link, wire: None)
    woke = []
    assert link.write(b"a") is True
    link.pause_writing()
    assert link.write(b"b") is False
    link.when_drained(lambda: woke.append("drained"))
    link.when_drained(lambda: woke.append("drained too"))
    assert woke == []
    link.resume_writing()
    link.pause_writing()
    link.resume_writing()  # each callback runs once
    assert woke == ["drained", "drained too"]
    link.pause_writing()
    link.when_drained(lambda: woke.append(("lost", link.closing)))
    socket.close()
    link.connection_lost(None)
    assert woke[2:] == [("lost", True)]
    assert socket.written == [b"a", b"b"]


def test_a_release_waits_for_paused_writes_to_drain():
    """The reply's ``await writer.drain()`` of a stream handler: a link whose
    writes are paused decodes its next frame only after they drain."""
    frame = encode_frame(to_wire(BEAT))
    handled = []
    link, _ = _link(lambda link, wire: (handled.append(wire), link.hold()))
    link.data_received(frame * 2)
    link.pause_writing()
    link.release()
    assert len(handled) == 1
    link.resume_writing()
    assert len(handled) == 2
