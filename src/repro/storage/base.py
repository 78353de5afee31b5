"""The pluggable metadata store interface and its shared machinery.

A :class:`MetadataStore` is the crash-consistent persistence layer behind
one simulated cluster run (``simulate --store`` / ``chaos --store``). It
keeps two kinds of durable state:

* the **directive log** — every directive the Monitor group commits
  (:class:`repro.cluster.monitor.PlacementJournal` mirrors each append
  into the store), and
* **per-MDS logs** — operation acknowledgments (fsync-before-ack), epoch
  fence advances, and subtree grant/revoke mutations.

The store is the only thing a ``kill9`` crash does *not* wipe: a recovered
MDS replays its snapshot plus WAL tail (:meth:`MetadataStore.recover_server`),
restores its epoch fence from the replayed state, and only then re-fences
through ``accept_directive`` on the rejoin directive.

Record vocabulary (per-MDS logs; the packed records of
:mod:`repro.storage.wal`, where the byte layouts are):

==========  =====================================  ======
kind        other fields                           synced
==========  =====================================  ======
``fence``   ``epoch``, ``t``                       yes
``ack``     ``op`` (durable op seq), ``t``,        yes
            ``path``
``grant``   ``t``, ``path``                        no
``revoke``  ``t``, ``path``                        no
==========  =====================================  ======

Synced records are durable before the simulator acts on them (the client
ack, the fence ratchet); unsynced records ride until the next sync and are
the only state the torn/corrupt crash faults may damage.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.obs.telemetry import NULL_TELEMETRY
from repro.storage.wal import Record

__all__ = [
    "DurabilityLedger",
    "MetadataStore",
    "RecoveredState",
    "ServerLogState",
]


class ServerLogState:
    """Materialised view of one MDS's durable log (the replay state machine).

    Applying a log prefix record by record yields the state a recovered
    server starts from. The same class backs snapshot writing (dump the
    live view, truncate the log) and recovery (load snapshot, replay the
    tail) — one ``apply`` implementation, no drift between the two paths.
    """

    __slots__ = ("fence_epoch", "acked_ops", "subtrees")

    def __init__(self) -> None:
        self.fence_epoch = 0
        self.acked_ops: List[int] = []
        self.subtrees: Set[str] = set()

    def apply(self, record: Record) -> None:
        """Fold one log record into the state."""
        kind = record[0]
        if kind == "ack":
            self.acked_ops.append(record[1])
        elif kind == "fence":
            if record[1] > self.fence_epoch:
                self.fence_epoch = record[1]
        elif kind == "grant":
            self.subtrees.add(record[2])
        elif kind == "revoke":
            self.subtrees.discard(record[2])
        # Other kinds are ignored: logs must stay replayable by older
        # readers after the vocabulary grows.

    def to_snapshot(self) -> dict:
        """JSON-ready snapshot payload (deterministic field order)."""
        return {
            "fence_epoch": self.fence_epoch,
            "acked_ops": list(self.acked_ops),
            "subtrees": sorted(self.subtrees),
        }

    @classmethod
    def from_snapshot(cls, payload: Optional[dict]) -> "ServerLogState":
        """Rebuild a state from a snapshot payload (None → empty state)."""
        state = cls()
        if payload:
            state.fence_epoch = int(payload.get("fence_epoch", 0))
            state.acked_ops = [int(op) for op in payload.get("acked_ops", [])]
            state.subtrees = set(payload.get("subtrees", []))
        return state

    def copy(self) -> "ServerLogState":
        """Independent copy (recovery results must not alias live state)."""
        clone = ServerLogState()
        clone.fence_epoch = self.fence_epoch
        clone.acked_ops = list(self.acked_ops)
        clone.subtrees = set(self.subtrees)
        return clone


@dataclass
class RecoveredState:
    """What :meth:`MetadataStore.recover_server` reconstructed for one MDS."""

    server: int
    fence_epoch: int = 0
    acked_ops: List[int] = field(default_factory=list)
    subtrees: List[str] = field(default_factory=list)
    #: Log records replayed on top of the snapshot (the WAL tail).
    replayed_records: int = 0
    #: True when a snapshot seeded the replay.
    snapshot_loaded: bool = False
    #: True when a torn/corrupt tail was detected and truncated away.
    truncated: bool = False
    #: ``"torn"`` / ``"corrupt"`` when :attr:`truncated`.
    truncate_reason: Optional[str] = None
    #: Bytes of the log the truncation discarded.
    dropped: int = 0


class MetadataStore(ABC):
    """Crash-consistent persistence behind one cluster run (see module doc).

    Backends: ``memory`` (:class:`~repro.storage.memory.MemoryStore`, a
    no-op — ``durable`` is False and the simulator skips every hook)
    and ``wal`` (:class:`~repro.storage.filestore.WalStore`, per-server
    checksummed log files plus JSON snapshots).
    """

    #: Backend name (the ``--store`` value; recorded in run output).
    name = "abstract"
    #: False only for the in-memory no-op store — the flag every hot-path
    #: hook is gated on, so a disabled store costs one predicate check.
    durable = True

    def __init__(self, snapshot_every: int = 512) -> None:
        #: Appends per server between snapshots (0 disables snapshotting).
        self.snapshot_every = max(0, int(snapshot_every))
        self.telemetry = NULL_TELEMETRY
        #: server -> its log: ``append(record, sync)`` and ``reset()``, a
        #: :class:`~repro.storage.wal.WalFile` or the memory store's list.
        self._logs: Dict[int, Any] = {}
        self._state: Dict[int, ServerLogState] = {}
        self._since_snapshot: Dict[int, int] = {}
        # Counters surfaced through stats() (and result.durability).
        self.appends = 0
        self.fsyncs = 0
        self.snapshots = 0
        self.recoveries = 0
        self.replayed_records = 0
        self.truncations = 0
        self.dropped = 0

    def bind_telemetry(self, telemetry) -> None:
        """Attach the run's telemetry (``wal_fsync`` / ``snapshot`` events)."""
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    # Append surface (what the simulator calls)
    # ------------------------------------------------------------------
    def append_directive(self, record: dict) -> None:
        """Persist one committed Monitor directive (synced)."""
        self._append_directive(record)
        self.appends += 1

    def append_ack(self, server: int, op: int, path: str, t: float) -> None:
        """Persist an operation acknowledgment (fsync-before-ack)."""
        self._log(server, ("ack", op, t, path), True)

    def append_fence(self, server: int, epoch: int, t: float) -> None:
        """Persist an epoch-fence advance (synced — the fence must survive)."""
        self._log(server, ("fence", epoch, t), True)

    def append_mutation(self, server: int, kind: str, path: str, t: float) -> None:
        """Persist a subtree mutation (``grant``/``revoke``; group-synced)."""
        self._log(server, (kind, t, path), False)

    def _log(self, server: int, record: Record, sync: bool) -> None:
        """Append one record: the log itself, live view, snapshot policy."""
        log = self._logs.get(server) or self._log_for(server)
        log.append(record, sync)
        self.appends += 1
        if sync:
            self.fsyncs += 1
            if self.telemetry.enabled:
                self.telemetry.event("wal_fsync", server=server, record=record[0])
        state = self._state.get(server)
        if state is None:
            state = self._state[server] = ServerLogState()
        state.apply(record)
        if self.snapshot_every:
            count = self._since_snapshot.get(server, 0) + 1
            if count >= self.snapshot_every:
                self.snapshot_server(server)
            else:
                self._since_snapshot[server] = count

    def _log_for(self, server: int):
        """``server``'s log, opened on first use."""
        if server not in self._logs:
            self._logs[server] = self._open_log(server)
        return self._logs[server]

    def snapshot_server(self, server: int) -> None:
        """Write a snapshot of ``server``'s state and truncate its log."""
        state = self._state.get(server)
        if state is None:
            return
        # The log goes only once the snapshot that subsumes it is in place.
        self._write_snapshot(server, state.to_snapshot())
        self._log_for(server).reset()
        self._since_snapshot[server] = 0
        self.snapshots += 1
        if self.telemetry.enabled:
            self.telemetry.event(
                "snapshot", server=server, acked=len(state.acked_ops),
                subtrees=len(state.subtrees),
            )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover_server(self, server: int) -> RecoveredState:
        """Reconstruct ``server``'s durable state: snapshot + WAL tail.

        Purely disk-driven — the live materialised view is deliberately
        ignored (the process it lived in just died) and then *replaced* by
        the replayed state, so post-recovery appends and snapshots continue
        from what actually survived.
        """
        recovered = self._recover_server(server)
        state = ServerLogState()
        state.fence_epoch = recovered.fence_epoch
        state.acked_ops = list(recovered.acked_ops)
        state.subtrees = set(recovered.subtrees)
        self._state[server] = state
        self._since_snapshot[server] = 0
        self.recoveries += 1
        self.replayed_records += recovered.replayed_records
        if recovered.truncated:
            self.truncations += 1
            self.dropped += recovered.dropped
        return recovered

    # ------------------------------------------------------------------
    # Backend contract
    # ------------------------------------------------------------------
    @abstractmethod
    def _append_directive(self, record: dict) -> None:
        """Durably append one directive record."""

    @abstractmethod
    def _open_log(self, server: int):
        """Open ``server``'s log (an ``append`` with sync ⇒ durable now)."""

    @abstractmethod
    def _write_snapshot(self, server: int, payload: dict) -> None:
        """Persist a snapshot (the caller then truncates the log)."""

    @abstractmethod
    def _recover_server(self, server: int) -> RecoveredState:
        """Reconstruct one server's state from durable storage only."""

    @abstractmethod
    def recover_directives(self) -> List[dict]:
        """All committed directive records, in commit order."""

    # Damage injection (crash-fault surface). Backends that cannot be
    # damaged (memory) inherit the no-op.
    def tear_tail(self, server: int) -> bool:
        """Leave a torn (half-written) record at the log tail."""
        return False

    def corrupt_tail(self, server: int) -> bool:
        """Flip bits in an unsynced tail record (CRC now mismatches)."""
        return False

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Deterministic counters for ``result.durability`` / chaos cases."""
        return {
            "store": self.name,
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "snapshots": self.snapshots,
            "recoveries": self.recoveries,
            "replayed_records": self.replayed_records,
            "truncations": self.truncations,
            "dropped": self.dropped,
        }

    def close(self) -> None:
        """Release files/handles (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class DurabilityLedger:
    """The chaos harness's independent durability oracle.

    The ledger records, in plain Python and outside the store under test,
    what *must* survive every crash: the op acks appended (and synced)
    per server, plus which servers currently carry injected tail damage.
    When a ``kill9``'d server recovers, :meth:`note_recovery` compares the
    store's replayed state against the ledger — acked ops lost, or damage
    replayed instead of truncated, become invariant-5 violations.
    """

    def __init__(self) -> None:
        #: server -> every durably-acked op seq, in ack order.
        self.acked: Dict[int, List[int]] = {}
        #: server -> acked snapshot taken at its last kill9 (the contract
        #: its recovery must honour).
        self._expected_at_kill: Dict[int, List[int]] = {}
        #: server -> damage kind injected since its last recovery.
        self._pending_damage: Dict[int, str] = {}
        self.kill9_crashes = 0
        self.torn_writes = 0
        self.corrupt_records = 0
        self.recoveries: List[RecoveredState] = []
        self.violations: List[str] = []

    # ------------------------------------------------------------------
    def note_ack(self, server: int, op: int) -> None:
        """Record one synced-and-acknowledged operation."""
        self.acked.setdefault(server, []).append(op)

    def note_kill(self, server: int) -> None:
        """A kill9 fired: freeze what this server's recovery must replay."""
        self.kill9_crashes += 1
        self._expected_at_kill[server] = list(self.acked.get(server, ()))

    def note_damage(self, server: int, kind: str) -> None:
        """Tail damage was injected on ``server``'s log."""
        if kind == "torn":
            self.torn_writes += 1
        else:
            self.corrupt_records += 1
        self._pending_damage[server] = kind

    def note_recovery(self, server: int, recovered: RecoveredState) -> None:
        """Audit one recovery replay against the ledger's expectations."""
        self.recoveries.append(recovered)
        expected = self._expected_at_kill.pop(server, None)
        if expected is not None:
            lost = sorted(set(expected) - set(recovered.acked_ops))
            if lost:
                self.violations.append(
                    f"durability: server {server} lost {len(lost)} "
                    f"acknowledged ops across kill9 recovery "
                    f"(e.g. ops {lost[:3]})"
                )
        damage = self._pending_damage.pop(server, None)
        if damage is not None and not recovered.truncated:
            self.violations.append(
                f"durability: injected {damage} tail on server {server} "
                f"was not detected during recovery replay"
            )

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Deterministic JSON-ready roll-up (joins ``result.durability``)."""
        return {
            "kill9_crashes": self.kill9_crashes,
            "torn_writes": self.torn_writes,
            "corrupt_records": self.corrupt_records,
            "acked_ops": sum(len(ops) for ops in self.acked.values()),
            "violations": list(self.violations),
        }
