"""A server's durable log state, what recovery returns, and the oracle.

* :class:`ServerLogState` — the replay state machine behind every per-MDS
  log of :class:`~repro.storage.filestore.WalStore`;
* :class:`RecoveredState` — what one ``kill9`` recovery replayed;
* :class:`DurabilityLedger` — the chaos harness's durability oracle, kept
  outside the store it audits.

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

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.storage.wal import Record

__all__ = [
    "DurabilityLedger",
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


@dataclass
class RecoveredState:
    """What :meth:`~repro.storage.filestore.WalStore.recover_server` (or
    the read-only :meth:`~repro.storage.filestore.WalStore.read_server`)
    reconstructed for one MDS."""

    server: int
    #: The replayed state; a recovery installs it as the server's live log
    #: view, so later appends land in it.
    state: ServerLogState
    #: Log records replayed on top of the snapshot (the WAL tail).
    replayed_records: int = 0
    #: True when a snapshot seeded the replay.
    snapshot_loaded: bool = False
    #: True when a torn/corrupt tail was detected (a recovery truncates it
    #: away; a read leaves it in place).
    truncated: bool = False
    #: ``"torn"`` / ``"corrupt"`` when :attr:`truncated`.
    truncate_reason: Optional[str] = None
    #: Bytes of the log the truncation discarded.
    dropped: int = 0


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
        self.acked: Dict[int, List[int]] = defaultdict(list)
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
        self.acked[server].append(op)

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
            lost = sorted(set(expected) - set(recovered.state.acked_ops))
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
