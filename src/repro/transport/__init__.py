"""Unified cluster transport: one fault surface, two implementations.

* :class:`~repro.transport.base.FaultFabric` — the shared fault core
  (endpoints, mutes, partitions, loss, delay, the ``deliver`` verdict).
* :class:`~repro.simulation.network.SimNetwork` — the discrete-event
  implementation the simulator replays against.
* :class:`~repro.transport.asyncio_net.AsyncioTransport` — real asyncio
  sockets; :mod:`repro.transport.live` runs each MDS and Monitor replica
  as a task speaking the framed wire form of ``cluster.messages``.

See ``docs/SERVE.md`` for the live-mode architecture and CLI usage.
"""

from repro.transport.base import CLIENT_ADDR, FaultFabric, mds_addr, mon_addr
from repro.transport.wire import (
    FrameError,
    MAX_FRAME_BYTES,
    decode_payload,
    encode_frame,
    read_frame,
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
    "read_frame",
]
