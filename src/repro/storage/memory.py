"""The in-memory no-op store (the default: durability disabled).

``MemoryStore`` exists so every call site can hold *a* store without
branching on ``None``, while the hot path stays zero-cost: ``durable`` is
False, the simulator gates every append hook on that flag, and a fault-free
run with the memory store produces byte-identical output to a run with no
store at all (pinned by the golden tests).

It still implements the interface honestly — appends land in plain lists
and ``recover_server`` replays them — so unit tests can exercise the shared
:class:`~repro.storage.base.MetadataStore` plumbing without touching disk.
A ``kill9`` against the memory store is the documented hazard: the "disk"
dies with the process, so recovery returns empty state and the chaos
ledger reports the loss instead of hiding it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.storage.base import MetadataStore, RecoveredState, ServerLogState
from repro.storage.wal import Record

__all__ = ["MemoryStore"]


class _ListLog:
    """One server's records in a list: this store's stand-in for a WalFile."""

    def __init__(self) -> None:
        self.records: List[Record] = []

    def append(self, record: Record, sync: bool = False) -> None:
        self.records.append(record)

    def reset(self) -> None:
        self.records = []


class MemoryStore(MetadataStore):
    """Volatile store: keeps everything, guarantees nothing across kill9."""

    name = "memory"
    durable = False

    def __init__(self, snapshot_every: int = 512) -> None:
        super().__init__(snapshot_every=snapshot_every)
        self._directives: List[dict] = []
        self._snapshots: Dict[int, dict] = {}

    def _append_directive(self, record: dict) -> None:
        self._directives.append(dict(record))

    def _open_log(self, server: int) -> _ListLog:
        return _ListLog()

    def _write_snapshot(self, server: int, payload: dict) -> None:
        self._snapshots[server] = payload

    def _recover_server(self, server: int) -> RecoveredState:
        state = ServerLogState.from_snapshot(self._snapshots.get(server))
        tail = self._log_for(server).records
        for record in tail:
            state.apply(record)
        return RecoveredState(
            server=server,
            fence_epoch=state.fence_epoch,
            acked_ops=list(state.acked_ops),
            subtrees=sorted(state.subtrees),
            replayed_records=len(tail),
            snapshot_loaded=server in self._snapshots,
        )

    def recover_directives(self) -> List[dict]:
        return [dict(record) for record in self._directives]

    def wipe_server(self, server: int) -> None:
        """Volatile-loss hook: a kill9 takes the 'disk' down with the process."""
        self._logs.pop(server, None)
        self._snapshots.pop(server, None)
