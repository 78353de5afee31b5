"""Unified cluster transport: one fault surface, two implementations.

* :class:`~repro.transport.base.FaultFabric` — the shared fault core
  (endpoints, mutes, partitions, loss, delay, the ``deliver`` verdict),
  which the discrete-event simulator replays against directly.
* :class:`~repro.transport.asyncio_net.AsyncioTransport` — real asyncio
  sockets, every connection a :class:`~repro.transport.asyncio_net.FrameLink`
  that decodes frames as they arrive; :mod:`repro.transport.live` runs each
  MDS and Monitor replica on it, speaking the framed wire form of
  ``cluster.messages``.

See ``docs/SERVE.md`` for the live-mode architecture and CLI usage.
"""

from repro.transport.base import CLIENT_ADDR, FaultFabric, mds_addr, mon_addr
from repro.transport.wire import (
    FrameError,
    MAX_FRAME_BYTES,
    decode_payload,
    encode_frame,
)

__all__ = [
    "CLIENT_ADDR",
    "FaultFabric",
    "mds_addr",
    "mon_addr",
    "FrameError",
    "MAX_FRAME_BYTES",
    "decode_payload",
    "encode_frame",
]
