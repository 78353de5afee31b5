"""Real-socket Transport: asyncio servers behind the shared fault fabric.

:class:`AsyncioTransport` is the live-cluster counterpart of
:class:`~repro.simulation.network.SimNetwork`. It subclasses the same
:class:`~repro.transport.base.FaultFabric`, so the *verdict* for every
message — muted? partitioned? lost? delayed by how much? — comes from the
identical code path and the identical seeded RNG the simulator uses. What
differs is what a verdict *does*: here a drop means the frame is never
written to the socket, a delay is an ``asyncio.sleep`` before the write,
and a crash closes a real listening socket and aborts its connections.

Endpoints are the usual ``mds:<i>`` / ``mon:<i>`` tokens, each backed by
one asyncio server on a unix socket (default; one file per endpoint in a
self-cleaning directory) or a TCP port on localhost. Unix sockets keep the
serve-smoke CI job free of port collisions; TCP exercises the same code
via ``transport="tcp"``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from repro.transport.base import FaultFabric

__all__ = ["AsyncioTransport"]

#: (reader, writer) pair of one established connection.
Stream = Tuple[asyncio.StreamReader, asyncio.StreamWriter]
Handler = Callable[[asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]]


class AsyncioTransport(FaultFabric):
    """Live fabric: endpoints are real asyncio servers, faults are real.

    The fault-installation surface (``mute`` / ``set_loss`` / ``set_delay``
    / ``partition`` / ``heal`` / ``clear_endpoint``) is inherited unchanged
    from :class:`FaultFabric`; a ``FaultPlan`` therefore programs this
    transport exactly as it programs ``SimNetwork``. Message-level
    enforcement happens in :meth:`send_control` / :meth:`send_data`, which
    every live node routes its outbound frames through.
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
        #: endpoint -> writers of currently-open inbound connections, so a
        #: crash can hard-drop them (RST-style) instead of draining.
        self._inbound: Dict[str, Set[asyncio.StreamWriter]] = {}
        #: endpoint -> live connection-handler tasks; stop_endpoint drains
        #: them so no handler is left to be cancelled at loop shutdown.
        self._handlers: Dict[str, Set[asyncio.Task]] = {}

    # ------------------------------------------------------------------
    # Endpoint lifecycle
    # ------------------------------------------------------------------
    def address_of(self, endpoint: str) -> object:
        """The socket address (path or ``(host, port)``) of an endpoint."""
        return self._addresses[endpoint]

    def is_listening(self, endpoint: str) -> bool:
        return endpoint in self._servers

    async def start_endpoint(self, endpoint: str, handler: Handler) -> None:
        """Open (or reopen, after a crash) the endpoint's listening socket."""
        if endpoint in self._servers:
            raise RuntimeError(f"endpoint {endpoint!r} is already listening")
        tracked = self._inbound.setdefault(endpoint, set())
        tasks = self._handlers.setdefault(endpoint, set())

        async def _serve(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            task = asyncio.current_task()
            if task is not None:
                tasks.add(task)
            tracked.add(writer)
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
                tracked.discard(writer)
                try:
                    writer.close()
                except Exception:  # pragma: no cover - platform-dependent
                    pass

        if self.mode == "unix":
            path = self._addresses.get(endpoint)
            if path is None:
                path = os.path.join(
                    self.socket_dir, endpoint.replace(":", "-") + ".sock"
                )
                self._addresses[endpoint] = path
            if os.path.exists(path):  # stale socket from a crashed endpoint
                os.unlink(path)
            server = await asyncio.start_unix_server(_serve, path=path)
        else:
            addr = self._addresses.get(endpoint)
            if addr is None:
                server = await asyncio.start_server(_serve, self.host, 0)
                port = server.sockets[0].getsockname()[1]
                self._addresses[endpoint] = (self.host, port)
            else:
                server = await asyncio.start_server(
                    _serve, addr[0], addr[1]
                )
        self._servers[endpoint] = server

    async def stop_endpoint(self, endpoint: str, abort: bool = True) -> None:
        """Close the endpoint's socket; ``abort`` hard-drops its connections.

        This is what a live ``crash`` / ``kill9`` fault does: the listening
        socket disappears (new connects are refused) and in-flight
        connections are aborted without a goodbye — clients see a reset,
        exactly the failure a killed process produces.
        """
        server = self._servers.pop(endpoint, None)
        if server is not None:
            server.close()  # refuses new connects from here on
        if abort:
            for writer in list(self._inbound.get(endpoint, ())):
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            self._inbound.get(endpoint, set()).clear()
            # Drain the handler tasks: the aborts above surface as
            # connection errors in their read loops, so they exit on their
            # own; cancellation is only the backstop (e.g. a handler asleep
            # in a fault-injected delay).
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

    async def connect(self, endpoint: str) -> Stream:
        """Open a client connection to an endpoint's current address."""
        address = self._addresses.get(endpoint)
        if address is None or endpoint not in self._servers:
            raise ConnectionRefusedError(f"{endpoint} is not listening")
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
    async def send_control(
        self, src: str, dst: str, writer: asyncio.StreamWriter, frame: bytes
    ) -> bool:
        """Send a control-plane frame (heartbeat, directive, probe).

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

    async def send_data(
        self, src: str, dst: str, writer: asyncio.StreamWriter, frame: bytes
    ) -> bool:
        """Send a data-plane frame (client request / reply).

        Clients sit outside the partition model and are never muted — only
        loss and extra delay on the endpoints' links apply, the one
        ``data_arrival`` rule the simulator's client sends go through too.
        Returns False when the frame was dropped (the sender should let its
        timeout fire).
        """
        if self.faulty:
            now = asyncio.get_running_loop().time()
            arrival = self.data_arrival(src, dst, now)
            if arrival is None:
                return False
            if arrival > now:
                await asyncio.sleep(arrival - now)
        writer.write(frame)
        await writer.drain()
        return True
