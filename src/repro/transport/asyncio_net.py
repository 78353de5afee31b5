"""Real-socket Transport: asyncio servers behind the shared fault fabric.

:class:`AsyncioTransport` is the live-cluster counterpart of the
simulator's fabric. It subclasses the same
:class:`~repro.transport.base.FaultFabric`, so the *verdict* for every
message — muted? partitioned? lost? delayed by how much? — comes from the
identical code path and the identical seeded RNG the simulator uses. What
differs is what a verdict *does*: here a drop means the frame is never
written to the socket, a delay is a wait before the write, and a crash
closes a real listening socket and aborts its connections.

Endpoints are the usual ``mds:<i>`` / ``mon:<i>`` tokens, each backed by
one asyncio server on a unix socket (default; one file per endpoint in a
self-cleaning directory) or a TCP port on localhost. Unix sockets keep the
serve-smoke CI job free of port collisions; TCP exercises the same code
via ``transport="tcp"``.

Every live connection is a :class:`FrameLink`: an ``asyncio.Protocol``
that decodes frames in ``data_received`` and hands each one, synchronously,
to its owner's ``on_frame(link, wire)`` — no reader task, no await per
frame. :meth:`AsyncioTransport.listen` and :meth:`AsyncioTransport.dial`
open them. The stream forms (:meth:`AsyncioTransport.start_endpoint` /
:meth:`AsyncioTransport.connect`, a ``(reader, writer)`` pair) remain only
as a raw-bytes surface, for the socket echo probe and for tests that need
to speak hostile bytes to an endpoint; no live node uses them.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
from functools import partial
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.messages import FRAME_HEAD, WIRE_VERSION, Wire
from repro.transport.base import FaultFabric
from repro.transport.wire import (
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    FrameError,
    envelope_error,
)

__all__ = ["AsyncioTransport", "FrameLink", "LinkClosed"]

#: (reader, writer) pair of one established stream connection.
Stream = Tuple[asyncio.StreamReader, asyncio.StreamWriter]
Handler = Callable[[asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]]
OnFrame = Callable[["FrameLink", Wire], None]
OnLost = Callable[["FrameLink", Optional[BaseException]], None]

#: A held link stops reading from its socket past this many buffered bytes
#: and starts again at :data:`RESUME_AT` or fewer: ``StreamReader``'s
#: default-limit rule (2 x 64 KiB, 64 KiB), which is what bounds a slow
#: server's backlog to socket buffers.
PAUSE_ABOVE = 128 * 1024
RESUME_AT = 64 * 1024

_PREFIX = LENGTH_PREFIX.size
_HEAD = FRAME_HEAD.size
_unpack_length = LENGTH_PREFIX.unpack_from


class LinkClosed(ConnectionResetError):
    """A :meth:`FrameLink.write` to a closed link: nothing was written."""


class FrameLink(asyncio.Protocol):
    """One framed connection: frames in through ``on_frame``, bytes out.

    ``data_received`` keeps a ``bytearray`` plus a read offset, checks each
    length prefix against ``MAX_FRAME_BYTES`` before it buffers the body,
    opens the frame where it lies — reads the version and tag bytes in
    place and slices the body once — and calls ``on_frame(link, (tag,
    body))``: the wire form :func:`~repro.transport.wire.decode_payload`
    gives for the same bytes, and a frame that breaks the envelope rule
    fails with the same :func:`~repro.transport.wire.envelope_error`. A
    ``ValueError`` from decoding or from ``on_frame`` (a ``FrameError``, a
    malformed body) closes the link; so does EOF inside a frame, the
    torn-stream case. ``on_lost(link, exc)``
    fires once, when the connection is gone: ``exc`` is the socket error,
    the ``ValueError`` that closed the link, or ``None``.

    An owner that cannot answer a frame at once :meth:`hold`\\ s the link:
    it decodes nothing more, keeps buffering, and stops reading from the
    socket past :data:`PAUSE_ABOVE` buffered bytes, until :meth:`release`.
    Outbound, :meth:`write` and :meth:`drain` are what ``send_data`` /
    ``send_control`` call; every :meth:`drain` blocked on a paused write
    buffer wakes when it drains. A sender that cannot await registers a
    plain callback with :meth:`when_drained` instead.
    """

    def __init__(self, on_frame: OnFrame, on_lost: Optional[OnLost] = None) -> None:
        self.on_frame = on_frame
        self.on_lost = on_lost
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._offset = 0
        #: True while the owner holds the link, and for good once it failed
        #: or was lost: either way nothing more is decoded.
        self._held = False
        self._decoding = False
        self._reading_paused = False
        self._writing_paused = False
        self._release_on_drain = False
        self._drain_waiters: List[asyncio.Future] = []
        self._drained: List[Callable[[], None]] = []
        self._eof = False
        self._lost = False
        self._aborted = False
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Owner surface
    # ------------------------------------------------------------------
    @property
    def closing(self) -> bool:
        """True once the connection is closed or closing (``abort()`` sets
        it at once; ``connection_lost`` follows a loop turn later)."""
        return self.transport is None or self.transport.is_closing()

    def hold(self) -> None:
        """Decode nothing more until :meth:`release`."""
        self._held = True

    def release(self) -> None:
        """Decode on: the owner is done with the frame it held the link for.

        While the link's writes are paused the release waits for them to
        drain: a peer that does not read its replies stops this side from
        reading its requests, instead of growing the write buffer.
        """
        if self._writing_paused:
            self._held = self._release_on_drain = True
        elif self._held and not self.closing:
            self._held = False
            if not self._decoding:  # else the running decode loop goes on
                self._decode_buffered()

    def write(self, data: bytes) -> bool:
        """Queue ``data``; False when the write buffer is now over its
        high-water mark (what a :meth:`drain` would wait out); on a closed
        link, :class:`LinkClosed` (so a sender need not check first)."""
        transport = self.transport
        if transport is None or transport.is_closing():  # ``closing``, inline
            raise LinkClosed("link is closed")
        transport.write(data)
        return not self._writing_paused

    def when_drained(self, callback: Callable[[], None]) -> None:
        """After a :meth:`write` that returned False: call ``callback()``
        once the write buffer drains, or once the link is lost."""
        self._drained.append(callback)

    async def drain(self) -> None:
        """Wait while the transport's write buffer is over its high-water
        mark; every waiter wakes when it drains."""
        if self._writing_paused:
            waiter = asyncio.get_running_loop().create_future()
            self._drain_waiters.append(waiter)
            try:
                await waiter
            finally:
                self._drain_waiters.remove(waiter)
        if self._lost:
            raise ConnectionResetError("link lost")

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    def abort(self) -> None:
        """Hang up without a goodbye (a crash). A link still being accepted
        hangs up the moment its connection is made."""
        self._aborted = True
        if self.transport is not None:
            self.transport.abort()

    # ------------------------------------------------------------------
    # asyncio.Protocol
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        if self._aborted:
            transport.abort()

    def data_received(self, data: bytes) -> None:
        if self._buffer or self._held:
            self._buffer += data
            if self._held:
                self._pause_if_full()
            else:
                self._decode_buffered()
            return
        # Nothing pending: decode straight from the chunk, keep the tail.
        end = self._decode(data, 0)
        if end < len(data):
            self._buffer += memoryview(data)[end:]
            if self._held:
                self._pause_if_full()

    def eof_received(self) -> bool:
        self._eof = True
        if not self._held:
            self._finish()
        return True  # the owner may still be answering; _finish closes

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._wake_drained()
        if self._release_on_drain:
            self._release_on_drain = False
            self.release()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._held = self._lost = True
        self._writing_paused = False
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)  # drain() raises, seeing _lost
        self._wake_drained()  # each sees ``closing``
        if self.on_lost is not None:
            self.on_lost(self, exc or self._error)

    def _wake_drained(self) -> None:
        callbacks, self._drained = self._drained, []
        for callback in callbacks:
            callback()

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode(self, data, offset: int) -> int:
        """Hand every whole frame of ``data[offset:]`` to ``on_frame`` until
        the link is held; the offset of the first byte not consumed."""
        size = len(data)
        on_frame = self.on_frame
        self._decoding = True
        try:
            while not self._held and size - offset >= _PREFIX:
                (length,) = _unpack_length(data, offset)
                if length > MAX_FRAME_BYTES:
                    raise FrameError(f"frame length {length} exceeds cap")
                end = offset + _PREFIX + length
                if end > size:
                    break
                body = offset + _HEAD
                if body > end or data[offset + _PREFIX] != WIRE_VERSION:
                    raise envelope_error(data[offset + _PREFIX:end])
                wire = data[body - 1], data[body:end]
                offset = end
                on_frame(self, wire)
        except (ValueError, ConnectionError) as error:
            self._fail(error)
            return size
        finally:
            self._decoding = False
        return offset

    def _decode_buffered(self) -> None:
        buffer = self._buffer
        offset = self._offset = self._decode(buffer, self._offset)
        if offset >= len(buffer):
            buffer.clear()
            self._offset = 0
        elif offset > len(buffer) >> 1:
            # Compact once the consumed head outweighs the tail: amortised
            # O(1) per byte however many releases drain the buffer.
            del buffer[:offset]
            self._offset = 0
        if self._reading_paused and (
            not self._held or len(buffer) - self._offset <= RESUME_AT
        ):
            self._reading_paused = False
            self.transport.resume_reading()
        if self._eof and not self._held:
            self._finish()

    def _pause_if_full(self) -> None:
        if (
            not self._reading_paused
            and len(self._buffer) - self._offset > PAUSE_ABOVE
        ):
            self._reading_paused = True
            self.transport.pause_reading()

    def _finish(self) -> None:
        """The peer sent EOF and every whole frame is handled: close, and
        report a partial frame as a torn stream."""
        pending = len(self._buffer) - self._offset
        if pending and self._error is None:
            where = "header" if pending < _PREFIX else "body"
            self._error = FrameError(f"stream ended inside a frame {where}")
        self.transport.close()

    def _fail(self, error: BaseException) -> None:
        """A hostile or broken frame: drop everything and hang up."""
        self._error = error
        self._held = True
        self._buffer.clear()
        self._offset = 0
        self.transport.close()


class AsyncioTransport(FaultFabric):
    """Live fabric: endpoints are real asyncio servers, faults are real.

    The fault-installation surface (``mute`` / ``set_loss`` / ``set_delay``
    / ``partition`` / ``heal`` / ``clear_endpoint``) is inherited unchanged
    from :class:`FaultFabric`; a ``FaultPlan`` therefore programs this
    transport exactly as it programs the simulator's. Message-level
    enforcement happens in :meth:`send_control` / :meth:`send_data` (and,
    for a reply that cannot await, in :meth:`data_verdict`, the verdict
    half of :meth:`send_data`), which every live node routes its outbound
    frames through.
    """

    def __init__(
        self,
        mode: str = "unix",
        socket_dir: Optional[str] = None,
        host: str = "127.0.0.1",
        seed: int = 0,
    ) -> None:
        if mode not in ("unix", "tcp"):
            raise ValueError(f"unknown transport mode {mode!r}")
        super().__init__(seed=seed)
        self.mode = mode
        self.host = host
        self._own_dir = socket_dir is None and mode == "unix"
        if mode == "unix":
            self.socket_dir = socket_dir or tempfile.mkdtemp(prefix="repro-")
        else:
            self.socket_dir = None
        #: endpoint -> listening server (while up).
        self._servers: Dict[str, asyncio.AbstractServer] = {}
        #: endpoint -> unix path or (host, port); survives a crash so the
        #: endpoint restarts at the same address (clients can reconnect).
        self._addresses: Dict[str, object] = {}
        #: endpoint -> currently-open inbound connections (links, or stream
        #: transports), so a crash can hard-drop them (RST-style) instead of
        #: draining.
        self._inbound: Dict[str, Set] = {}
        #: endpoint -> live stream-handler tasks; stop_endpoint drains
        #: them so no handler is left to be cancelled at loop shutdown.
        self._handlers: Dict[str, Set[asyncio.Task]] = {}

    # ------------------------------------------------------------------
    # Endpoint lifecycle
    # ------------------------------------------------------------------

    def is_listening(self, endpoint: str) -> bool:
        return endpoint in self._servers

    async def _bind(self, endpoint: str, unix_server, tcp_server) -> None:
        """Open (or reopen, after a crash) the endpoint's listening socket
        at its one address, with ``unix_server(path=)`` or
        ``tcp_server(host=, port=)``."""
        if endpoint in self._servers:
            raise RuntimeError(f"endpoint {endpoint!r} is already listening")
        address = self._addresses.get(endpoint)
        if self.mode == "unix":
            if address is None:
                address = self._addresses[endpoint] = os.path.join(
                    self.socket_dir, endpoint.replace(":", "-") + ".sock"
                )
            if os.path.exists(address):  # stale socket from a crashed endpoint
                os.unlink(address)
            server = await unix_server(path=address)
        else:
            host, port = address or (self.host, 0)
            server = await tcp_server(host=host, port=port)
            if address is None:
                port = server.sockets[0].getsockname()[1]
                self._addresses[endpoint] = (host, port)
        self._servers[endpoint] = server

    async def listen(self, endpoint: str, on_frame: OnFrame) -> None:
        """Open the endpoint as framed links: every inbound connection is a
        :class:`FrameLink` handing its frames to ``on_frame``."""
        tracked = self._inbound.setdefault(endpoint, set())

        def untrack(link: FrameLink, exc) -> None:
            tracked.discard(link)

        def accept() -> FrameLink:
            link = FrameLink(on_frame, untrack)
            tracked.add(link)
            return link

        loop = asyncio.get_running_loop()
        await self._bind(
            endpoint,
            partial(loop.create_unix_server, accept),
            partial(loop.create_server, accept),
        )

    async def start_endpoint(self, endpoint: str, handler: Handler) -> None:
        """Open the endpoint as raw streams: ``handler(reader, writer)``
        runs as a task per inbound connection."""
        tracked = self._inbound.setdefault(endpoint, set())
        tasks = self._handlers.setdefault(endpoint, set())

        async def _serve(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            task = asyncio.current_task()
            if task is not None:
                tasks.add(task)
            tracked.add(writer.transport)
            try:
                await handler(reader, writer)
            except (
                ConnectionError, asyncio.IncompleteReadError, ValueError
            ):
                pass  # peer died or spoke garbage; drop the connection
            except asyncio.CancelledError:
                pass  # endpoint stopping; end the handler cleanly
            finally:
                if task is not None:
                    tasks.discard(task)
                tracked.discard(writer.transport)
                try:
                    writer.close()
                except Exception:  # pragma: no cover - platform-dependent
                    pass

        await self._bind(
            endpoint,
            partial(asyncio.start_unix_server, _serve),
            partial(asyncio.start_server, _serve),
        )

    async def stop_endpoint(self, endpoint: str) -> None:
        """Close the endpoint's socket and hard-drop its connections.

        This is what a live ``crash`` / ``kill9`` fault does: the listening
        socket disappears (new connects are refused) and in-flight
        connections are aborted without a goodbye — clients see a reset,
        exactly the failure a killed process produces.
        """
        server = self._servers.pop(endpoint, None)
        if server is not None:
            # One loop turn first, so a connection the loop has accepted
            # attaches to the server (and is tracked, so aborted below):
            # closing between asyncio's accept and attach trips an internal
            # assertion and leaks the accepted socket.
            await asyncio.sleep(0)
            server.close()  # refuses new connects from here on
        for conn in list(self._inbound.get(endpoint, ())):
            conn.abort()
        self._inbound.get(endpoint, set()).clear()
        # Drain the stream handler tasks: the aborts above surface as
        # connection errors in their read loops, so they exit on their own;
        # cancellation is only the backstop (e.g. a handler asleep in a
        # fault-injected delay).
        tasks = [t for t in self._handlers.get(endpoint, ()) if not t.done()]
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        if server is not None:
            # Only now: since CPython 3.12 this waits for the endpoint's
            # connections as well, and a crash does not wait for its
            # clients to hang up.
            await server.wait_closed()
        if self.mode == "unix":
            path = self._addresses.get(endpoint)
            if path and os.path.exists(path):
                os.unlink(path)

    def _listening_address(self, endpoint: str) -> object:
        address = self._addresses.get(endpoint)
        if address is None or endpoint not in self._servers:
            raise ConnectionRefusedError(f"{endpoint} is not listening")
        return address

    async def dial(
        self, endpoint: str, on_frame: OnFrame, on_lost: Optional[OnLost] = None
    ) -> FrameLink:
        """Open a framed client link to an endpoint's current address."""
        address = self._listening_address(endpoint)
        loop = asyncio.get_running_loop()

        def link() -> FrameLink:
            return FrameLink(on_frame, on_lost)

        if self.mode == "unix":
            _, opened = await loop.create_unix_connection(link, address)
        else:
            _, opened = await loop.create_connection(link, *address)
        return opened

    async def connect(self, endpoint: str) -> Stream:
        """Open a raw stream connection to an endpoint's current address."""
        address = self._listening_address(endpoint)
        if self.mode == "unix":
            return await asyncio.open_unix_connection(address)
        return await asyncio.open_connection(address[0], address[1])

    async def close(self) -> None:
        """Tear down every endpoint and the socket directory."""
        for endpoint in list(self._servers):
            await self.stop_endpoint(endpoint)
        if self._own_dir and self.socket_dir:
            shutil.rmtree(self.socket_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Fault-checked sends. A fault-free fabric (``faulty`` false) passes
    # every frame at once, so neither the clock nor a verdict is read.
    # ------------------------------------------------------------------
    def data_verdict(self, src: str, dst: str) -> Optional[float]:
        """Seconds a data-plane frame (client request / reply) waits before
        its write — 0 for now — or ``None`` when the fabric drops it.

        Clients sit outside the partition model and are never muted — only
        loss and extra delay on the endpoints' links apply, the one
        ``data_arrival`` rule the simulator's client sends go through too.
        """
        if not self.faulty:
            return 0.0
        now = asyncio.get_running_loop().time()
        arrival = self.data_arrival(src, dst, now)
        return None if arrival is None else arrival - now

    async def send_control(self, src: str, dst: str, writer, frame: bytes) -> bool:
        """Send a control-plane frame (heartbeat, directive, probe) on a
        link or stream writer.

        The verdict comes from :meth:`FaultFabric.deliver` — mutes,
        partitions, loss and delay all apply, with the same RNG draw order
        as the simulator. Returns False when the frame was dropped.
        """
        if self.faulty:
            now = asyncio.get_running_loop().time()
            arrival = self.deliver(src, dst, now)
            if arrival is None:
                return False
            if arrival > now:
                await asyncio.sleep(arrival - now)
        writer.write(frame)
        await writer.drain()
        return True

    async def send_data(self, src: str, dst: str, writer, frame: bytes) -> bool:
        """Send a data-plane frame (client request / reply) on a link or
        stream writer. Returns False when the frame was dropped (the sender
        should let its timeout fire)."""
        wait = self.data_verdict(src, dst)
        if wait is None:
            return False
        if wait > 0:
            await asyncio.sleep(wait)
        writer.write(frame)
        await writer.drain()
        return True
