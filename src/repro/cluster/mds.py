"""Metadata server model.

The liveness, fault and fencing state of one MDS: what the shared control
plane (``ClusterControl``), the live ``LiveMDS`` and the invariant checker
act on. The service queue itself belongs to whoever drives the server — the
replay loop's per-server CPU columns (``ClusterSimulator.busy_until`` /
``busy_time`` / ``served``), or a live MDS's socket.
"""

from __future__ import annotations

__all__ = ["MetadataServer"]


class MetadataServer:
    """One MDS of the cluster, by its cluster-wide index ``server_id``."""

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id
        self.alive = True
        #: Fail-slow fault: every visit costs this multiple of the
        #: configured service time.
        self.slow_factor = 1.0
        #: Drop-heartbeats fault: the server serves but stops heartbeating.
        self.muted = False
        #: Highest Monitor-leadership epoch this server has applied a
        #: directive from. Deliberately NOT reset by :meth:`recover` — the
        #: fence must survive a crash/rejoin cycle, or a directive issued by
        #: a since-deposed leader could resurrect pre-crash ownership.
        self.fence_epoch = 0
        #: Directives rejected by the epoch fence (stale-leader attempts).
        self.fenced_directives = 0
        #: Set by :meth:`kill9`: the crash took volatile state (including
        #: the fence) with it, so the rejoin path must restore the fence
        #: from the durable store before applying any directive.
        self.lost_volatile = False

    # ------------------------------------------------------------------
    def accept_directive(self, epoch: int) -> bool:
        """Epoch fence: apply a Monitor directive only if it is not stale.

        Returns True (and ratchets the fence forward) for directives from
        the current or a newer leadership epoch; a directive stamped with an
        older epoch — a deposed leader on the wrong side of a partition —
        is rejected so it can never reintroduce ownership the newer epoch
        already moved elsewhere.
        """
        if epoch < self.fence_epoch:
            self.fenced_directives += 1
            return False
        self.fence_epoch = epoch
        return True

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Mark the server as crashed (failure injection)."""
        self.alive = False

    def kill9(self) -> None:
        """Crash with volatile-state loss (the ``kill9`` fault).

        Unlike :meth:`fail`, the process image is gone: the epoch fence —
        crucially — is wiped. Whatever the durable store
        replays at rejoin is all that survives; with the in-memory store
        that is nothing, which is exactly the hazard the durability faults
        exist to demonstrate.
        """
        self.alive = False
        self.fence_epoch = 0
        self.lost_volatile = True

    def recover(self) -> None:
        """Bring the server back (empty, faults cleared)."""
        self.alive = True
        self.slow_factor = 1.0
        self.muted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"MetadataServer({self.server_id}, {state})"
