"""The wire envelope of the live asyncio transport.

Every frame is ``[u32 length][u8 version][u8 tag][body]``, big-endian:
``length`` counts the bytes after itself, ``version`` is
``messages.WIRE_VERSION``, and ``(tag, body)`` is the *wire form* of one
:mod:`repro.cluster.messages` type (the per-tag body layouts are tabulated
in that module's docstring). So ``encode_frame(to_wire(msg))`` is the frame
and ``from_wire(decode_payload(frame[4:]))`` is the message again.

The length prefix is what makes torn reads detectable: a reader either
gets a whole frame or knows the stream died mid-frame. The version byte is
checked here, once, before anything looks at the body; a frame this build
does not speak — a version-2 peer's JSON object reads as "version 123" —
is a :class:`FrameError`, as is a payload too short to carry the envelope.
Unknown tags and malformed bodies are ``messages.from_wire``'s
``ValueError``. Either way the transport drops the connection.

Packed frames are not readable in ``socat`` output the way version 2's
JSON was; to read one, strip the four length bytes and decode it::

    >>> from_wire(decode_payload(frame[4:]))
    ClientRequest(op_id=7, path='/a/b', op='read', client_id=0)
"""

from __future__ import annotations

import asyncio
import struct
from typing import Optional

from repro.cluster.messages import WIRE_VERSION, Wire

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_frame",
    "decode_payload",
    "read_frame",
]

#: Upper bound on one frame's payload. Metadata messages are a few dozen
#: bytes; ownership-broadcast directives scale with moved subtrees but stay
#: far below this. Anything larger is a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LEN = struct.Struct(">I")
_ENVELOPE = struct.Struct(">IBB")
#: Payload bytes the envelope itself takes (version + tag).
_ENVELOPE_PAYLOAD = _ENVELOPE.size - _LEN.size


class FrameError(ValueError):
    """A malformed frame: bad length prefix, torn stream or bad envelope."""


def encode_frame(wire: Wire) -> bytes:
    """Frame one wire form: ``length || version || tag || body``."""
    tag, body = wire
    length = _ENVELOPE_PAYLOAD + len(body)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {length} bytes exceeds cap")
    try:
        return _ENVELOPE.pack(length, WIRE_VERSION, tag) + body
    except struct.error as error:
        raise FrameError(f"tag {tag!r} does not fit the envelope: {error}") from None


def decode_payload(data: bytes) -> Wire:
    """Open a frame payload (the bytes after the length prefix): check the
    version byte and split off ``(tag, body)``."""
    if len(data) < _ENVELOPE_PAYLOAD:
        raise FrameError(
            f"frame payload of {len(data)} bytes is shorter than the "
            "version/tag envelope"
        )
    if data[0] != WIRE_VERSION:
        raise FrameError(
            f"wire schema version {data[0]} is not supported "
            f"(this build speaks version {WIRE_VERSION})"
        )
    return data[1], data[_ENVELOPE_PAYLOAD:]


async def read_frame(reader: asyncio.StreamReader) -> Optional[Wire]:
    """Read one frame's wire form; ``None`` on clean EOF (peer closed
    between frames).

    An EOF *inside* a frame (torn stream) raises ``FrameError`` — the
    distinction matters to the live MDS, which treats clean EOF as a client
    hanging up and a torn frame as a connection fault.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise FrameError("stream ended inside a frame header") from error
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds cap")
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError("stream ended inside a frame body") from error
    return decode_payload(data)
