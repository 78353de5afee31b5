"""File-backed WAL store: one checksummed log + JSON snapshot per MDS.

Layout inside the store directory::

    directives.log    committed Monitor directives (synced per append)
    wal-<N>.log       per-server mutation/ack/fence log (repro.storage.wal)
    snapshot-<N>.json ServerLogState snapshot subsuming the log before it

Snapshots are written atomically (tmp file + ``os.replace``) and the WAL is
truncated *after* the snapshot is in place, so a crash between the two
replays a tail that is already in the snapshot — replay is idempotent for
acks (duplicates are de-duplicated at recovery) and monotone for fences.

When no ``--store-dir`` is given the store lives in a self-cleaning
temporary directory. When a directory is reused, only files matching the
store's own naming pattern are removed on init — the store never deletes
anything it did not (by naming convention) create.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import Dict, List, Optional

from repro.storage.base import MetadataStore, RecoveredState, ServerLogState
from repro.storage.wal import WalFile

__all__ = ["WalStore"]

_OWN_FILES = re.compile(
    r"^(directives\.log|wal-\d+\.log|snapshot-\d+\.json(\.tmp)?)$"
)


class WalStore(MetadataStore):
    """Crash-consistent file-backed store (the ``--store wal`` backend)."""

    name = "wal"

    def __init__(
        self,
        directory: Optional[str] = None,
        snapshot_every: int = 512,
        fsync: bool = False,
    ) -> None:
        super().__init__(snapshot_every=snapshot_every)
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-wal-")
            directory = self._tmp.name
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._fsync = fsync
        # A store owns its directory for the duration of one run: stale
        # files from a previous run (matching our naming pattern only)
        # would otherwise replay into this run's recovery.
        for entry in os.listdir(directory):
            if _OWN_FILES.match(entry):
                os.unlink(os.path.join(directory, entry))
        self._directives = WalFile(
            os.path.join(directory, "directives.log"), fsync=fsync
        )
        self._closed = False

    # ------------------------------------------------------------------
    def _snapshot_path(self, server: int) -> str:
        return os.path.join(self.directory, f"snapshot-{server}.json")

    # ------------------------------------------------------------------
    # Backend contract
    # ------------------------------------------------------------------
    def _append_directive(self, record: dict) -> None:
        # Directive commit == durable: the Monitor quorum acted on it.
        self._directives.append(("directive", record), sync=True)

    def _open_log(self, server: int) -> WalFile:
        return WalFile(
            os.path.join(self.directory, f"wal-{server}.log"), fsync=self._fsync
        )

    def _write_snapshot(self, server: int, payload: dict) -> None:
        path = self._snapshot_path(server)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _recover_server(self, server: int) -> RecoveredState:
        snapshot = None
        snapshot_loaded = False
        path = self._snapshot_path(server)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
            snapshot_loaded = True
        state = ServerLogState.from_snapshot(snapshot)
        records, scan = self._log_for(server).recover(repair=True)
        seen = set(state.acked_ops)
        for record in records:
            # Snapshot/truncate races make ack replay idempotent-by-op.
            if record[0] == "ack" and record[1] in seen:
                continue
            state.apply(record)
        return RecoveredState(
            server=server,
            fence_epoch=state.fence_epoch,
            acked_ops=list(state.acked_ops),
            subtrees=sorted(state.subtrees),
            replayed_records=len(records),
            snapshot_loaded=snapshot_loaded,
            truncated=scan.truncated,
            truncate_reason=scan.reason,
            dropped=scan.dropped_bytes,
        )

    def recover_directives(self) -> List[dict]:
        records, _ = self._directives.recover(repair=False)
        return [record[1] for record in records if record[0] == "directive"]

    # ------------------------------------------------------------------
    # Damage injection
    # ------------------------------------------------------------------
    def tear_tail(self, server: int) -> bool:
        return self._log_for(server).tear_tail()

    def corrupt_tail(self, server: int) -> bool:
        return self._log_for(server).corrupt_tail()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        stats["wal_bytes"] = sum(wal.size for wal in self._logs.values())
        return stats

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._directives.close()
        for wal in self._logs.values():
            wal.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
