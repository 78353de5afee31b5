"""The wire envelope of the live asyncio transport.

Every frame is ``[u32 length][u8 version][u8 tag][body]``, big-endian:
``length`` counts the bytes after itself, ``version`` is
``messages.WIRE_VERSION``, and ``(tag, body)`` is the *wire form* of one
:mod:`repro.cluster.messages` type (the per-tag body layouts are tabulated
in that module's docstring). So ``encode_frame(to_wire(msg))`` is the frame
and ``from_wire(decode_payload(frame[4:]))`` is the message again. The
live request path packs its requests and replies into the same bytes in
one call (``ClientRequest.frame`` / ``ClientReply.frame``).

The length prefix is what makes torn reads detectable: a reader either
gets a whole frame or knows the stream died mid-frame (the live transport's
reader is :class:`~repro.transport.asyncio_net.FrameLink`, which decodes
frames as their bytes arrive). The envelope rule is stated here, once:
a frame this build does not speak — a version-2 peer's JSON object reads
as "version 123" — is a :class:`FrameError`, as is a payload too short to
carry the version and tag; :func:`envelope_error` says which.
:func:`decode_payload` applies the rule to a payload, and ``FrameLink``
reads the version and tag in place and asks :func:`envelope_error` for
the error of a frame that breaks it. Unknown tags and malformed bodies are
``messages.from_wire``'s ``ValueError``. Either way the transport drops
the connection.

Packed frames are not readable in ``socat`` output the way version 2's
JSON was; to read one, strip the four length bytes and decode it::

    >>> from_wire(decode_payload(frame[4:]))
    ClientRequest(op_id=7, path='/a/b', op='read', client_id=0)
"""

from __future__ import annotations

import struct

from repro.cluster.messages import FRAME_HEAD, WIRE_VERSION, Wire

__all__ = [
    "LENGTH_PREFIX",
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_frame",
    "decode_payload",
    "envelope_error",
]

#: Upper bound on one frame's payload. Metadata messages are a few dozen
#: bytes; ownership-broadcast directives scale with moved subtrees but stay
#: far below this. Anything larger is a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The ``[u32 length]`` in front of every frame's payload.
LENGTH_PREFIX = struct.Struct(">I")
#: Payload bytes the envelope itself takes (version + tag).
_ENVELOPE_PAYLOAD = FRAME_HEAD.size - LENGTH_PREFIX.size


class FrameError(ValueError):
    """A malformed frame: bad length prefix, torn stream or bad envelope."""


def encode_frame(wire: Wire) -> bytes:
    """Frame one wire form: ``length || version || tag || body``."""
    tag, body = wire
    length = _ENVELOPE_PAYLOAD + len(body)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {length} bytes exceeds cap")
    try:
        return FRAME_HEAD.pack(length, WIRE_VERSION, tag) + body
    except struct.error as error:
        raise FrameError(f"tag {tag!r} does not fit the envelope: {error}") from None


def envelope_error(data: bytes) -> FrameError:
    """The error of a frame payload (the bytes after the length prefix)
    that breaks the envelope rule: too short to carry the version and tag
    bytes, or a version byte other than ``WIRE_VERSION``."""
    if len(data) < _ENVELOPE_PAYLOAD:
        return FrameError(
            f"frame payload of {len(data)} bytes is shorter than the "
            "version/tag envelope"
        )
    return FrameError(
        f"wire schema version {data[0]} is not supported "
        f"(this build speaks version {WIRE_VERSION})"
    )


def decode_payload(data: bytes) -> Wire:
    """Open a frame payload (the bytes after the length prefix): check the
    version byte and split off ``(tag, body)``."""
    if len(data) < _ENVELOPE_PAYLOAD or data[0] != WIRE_VERSION:
        raise envelope_error(data)
    return data[1], data[_ENVELOPE_PAYLOAD:]
