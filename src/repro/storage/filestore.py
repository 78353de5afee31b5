"""The durable store: one checksummed log + framed JSON snapshot per MDS.

:class:`WalStore` is the crash-consistent persistence layer behind one
cluster run (``simulate --store wal`` / ``chaos --store wal``); a run
without durability (``--store memory``) has no store at all, and every
caller skips its hooks on ``store is None``. It keeps two kinds of durable
state:

* the **directive log** — every directive the Monitor group commits
  (:class:`repro.cluster.monitor.PlacementJournal` mirrors each append
  into the store), and
* **per-MDS logs** — operation acknowledgments (fsync-before-ack), epoch
  fence advances, and subtree grant/revoke mutations
  (:class:`~repro.storage.base.ServerLogState` has the record vocabulary).

The store is the only thing a ``kill9`` crash does *not* wipe: a recovered
MDS replays its snapshot plus WAL tail (:meth:`WalStore.recover_server`),
restores its epoch fence from the replayed state, and only then re-fences
through ``accept_directive`` on the rejoin directive. The end-of-run audit
reads the same replay through :meth:`WalStore.read_server`, which changes
nothing on disk or in the counters.

Layout inside the store directory::

    directives.log    committed Monitor directives (synced per append)
    wal-<N>.log       per-server mutation/ack/fence log (repro.storage.wal)
    snapshot-<N>.json ServerLogState snapshot subsuming the log before it,
                      one WAL frame: [u32 len][u32 crc32][compact JSON]

A snapshot that is torn, fails its CRC or does not hold one JSON object
makes recovery raise a ``ValueError`` naming the file. Snapshots are
written atomically (tmp file + ``os.replace``) and the WAL is
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

from repro.obs.telemetry import NULL_TELEMETRY
from repro.storage.base import RecoveredState, ServerLogState
from repro.storage.wal import (
    Record,
    WalFile,
    encode_record,
    pack_ack,
    pack_directive,
    pack_fence,
    pack_mutation,
    scan_records,
)

__all__ = ["WalStore"]

_OWN_FILES = re.compile(
    r"^(directives\.log|wal-\d+\.log|snapshot-\d+\.json(\.tmp)?)$"
)


def _load_snapshot(path: str) -> ServerLogState:
    """The state a snapshot file frames. A torn frame, a CRC mismatch or a
    payload that is not one JSON object holding a log state is a
    ``ValueError`` naming the file."""
    with open(path, "rb") as handle:
        scan = scan_records(handle.read())
    if scan.truncated or len(scan.records) != 1:
        why = f"a {scan.reason} frame" if scan.truncated else (
            f"{len(scan.records)} frames, not one"
        )
        raise ValueError(f"snapshot {path} is damaged: {why}")
    try:
        payload = json.loads(scan.records[0].decode("utf-8"))
        if type(payload) is not dict:
            raise ValueError("not a JSON object")
        return ServerLogState.from_snapshot(payload)
    except (RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"snapshot {path} is damaged: {exc}") from exc


class WalStore:
    """Crash-consistent file-backed store (see module doc)."""

    def __init__(
        self,
        directory: Optional[str] = None,
        snapshot_every: int = 512,
        fsync: bool = False,
    ) -> None:
        #: Appends per server between snapshots (0 disables snapshotting).
        self.snapshot_every = max(0, int(snapshot_every))
        self.telemetry = NULL_TELEMETRY
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
        #: server -> its log, opened on first use.
        self._logs: Dict[int, WalFile] = {}
        #: server -> the materialised view of its log.
        self._state: Dict[int, ServerLogState] = {}
        #: server -> its log's ``appends`` count that triggers the next
        #: snapshot (``snapshot_every`` past the last snapshot or recovery).
        self._snapshot_due: Dict[int, int] = {}
        self._closed = False
        # Counters surfaced through stats() (and result.durability); the
        # append and sync counts are the logs' own.
        self.snapshots = 0
        self.recoveries = 0
        self.replayed_records = 0
        self.truncations = 0
        self.dropped = 0

    @property
    def appends(self) -> int:
        """Records appended to every log, the directive log included."""
        return self._directives.appends + sum(
            log.appends for log in self._logs.values()
        )

    @property
    def fsyncs(self) -> int:
        """Syncs of the per-MDS logs (the directive log syncs each append)."""
        return sum(log.fsyncs for log in self._logs.values())

    def bind_telemetry(self, telemetry) -> None:
        """Attach the run's telemetry (``wal_fsync`` / ``snapshot`` events)."""
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    # Append surface (what the simulator calls)
    # ------------------------------------------------------------------
    def append_directive(self, record: dict) -> None:
        """Persist one committed Monitor directive (synced: the Monitor
        quorum acted on it)."""
        self._directives.write_frame(pack_directive(record), True)

    # Each typed append packs its record first, so a misfit field raises
    # before anything is written or counted; then one frame, the live
    # view's fold and the snapshot policy. The ack, one per operation, has
    # them inline (its fold is `ServerLogState.apply`'s for an ack, a list
    # append); the rare fence and mutation share `_append`.
    def append_ack(self, server: int, op: int, path: str, t: float) -> None:
        """Persist an operation acknowledgment (fsync-before-ack)."""
        payload = pack_ack(op, t, path)
        log = self._logs.get(server) or self._log_for(server)
        log.write_frame(payload, True)
        if self.telemetry.enabled:
            self.telemetry.event("wal_fsync", server=server, record="ack")
        (self._state.get(server) or self._state_for(server)).acked_ops.append(op)
        if self.snapshot_every and log.appends >= self._snapshot_due.get(
            server, self.snapshot_every
        ):
            self.snapshot_server(server)

    def append_fence(self, server: int, epoch: int, t: float) -> None:
        """Persist an epoch-fence advance (synced — the fence must survive)."""
        self._append(server, pack_fence(epoch, t), True, ("fence", epoch, t))

    def append_mutation(self, server: int, kind: str, path: str, t: float) -> None:
        """Persist a subtree mutation (``grant``/``revoke``; group-synced)."""
        self._append(server, pack_mutation(kind, t, path), False, (kind, t, path))

    def _append(self, server: int, payload: bytes, sync: bool, record: Record) -> None:
        """:meth:`append_ack`'s steps for any packed ``record``."""
        log = self._logs.get(server) or self._log_for(server)
        log.write_frame(payload, sync)
        if sync and self.telemetry.enabled:
            self.telemetry.event("wal_fsync", server=server, record=record[0])
        (self._state.get(server) or self._state_for(server)).apply(record)
        if self.snapshot_every and log.appends >= self._snapshot_due.get(
            server, self.snapshot_every
        ):
            self.snapshot_server(server)

    def _state_for(self, server: int) -> ServerLogState:
        """``server``'s live view, empty until its first append."""
        state = self._state[server] = ServerLogState()
        return state

    def _log_for(self, server: int) -> WalFile:
        """``server``'s log, opened on first use."""
        if server not in self._logs:
            self._logs[server] = WalFile(
                os.path.join(self.directory, f"wal-{server}.log"),
                fsync=self._fsync,
            )
        return self._logs[server]

    def _snapshot_path(self, server: int) -> str:
        return os.path.join(self.directory, f"snapshot-{server}.json")

    def snapshot_server(self, server: int) -> None:
        """Write a snapshot of ``server``'s state and truncate its log."""
        state = self._state.get(server)
        if state is None:
            return
        # The log goes only once the snapshot that subsumes it is in place.
        path = self._snapshot_path(server)
        tmp = path + ".tmp"
        text = json.dumps(
            state.to_snapshot(), sort_keys=True, separators=(",", ":")
        )
        with open(tmp, "wb") as handle:
            handle.write(encode_record(text.encode("utf-8")))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        log = self._log_for(server)
        log.reset()
        self._snapshot_due[server] = log.appends + self.snapshot_every
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
        from what actually survived. A torn or corrupt tail is truncated
        away, and the replay counts in :meth:`stats`.
        """
        recovered = self._replay(server, repair=True)
        self._state[server] = recovered.state
        self._snapshot_due[server] = self._logs[server].appends + self.snapshot_every
        self.recoveries += 1
        self.replayed_records += recovered.replayed_records
        if recovered.truncated:
            self.truncations += 1
            self.dropped += recovered.dropped
        return recovered

    def read_server(self, server: int) -> RecoveredState:
        """What :meth:`recover_server` would replay for ``server``, read-only:
        no repair, nothing installed, no counter moves, and no log file is
        created for a server that never logged (the end-of-run audit)."""
        return self._replay(server, repair=False)

    def _replay(self, server: int, repair: bool) -> RecoveredState:
        """Snapshot + the valid prefix of ``server``'s log; ``repair``
        truncates a damaged tail (and opens the log if it never was)."""
        path = self._snapshot_path(server)
        snapshot_loaded = os.path.exists(path)
        state = _load_snapshot(path) if snapshot_loaded else ServerLogState()
        log = self._log_for(server) if repair else self._logs.get(server)
        if log is None:
            records, scan = [], scan_records(b"")
        else:
            records, scan = log.recover(repair)
        seen = set(state.acked_ops)
        for record in records:
            # Snapshot/truncate races make ack replay idempotent-by-op.
            if record[0] == "ack" and record[1] in seen:
                continue
            state.apply(record)
        return RecoveredState(
            server=server,
            state=state,
            replayed_records=len(records),
            snapshot_loaded=snapshot_loaded,
            truncated=scan.truncated,
            truncate_reason=scan.reason,
            dropped=scan.dropped_bytes,
        )

    def recover_directives(self) -> List[dict]:
        """All committed directive records, in commit order."""
        records, _ = self._directives.recover(repair=False)
        return [record[1] for record in records if record[0] == "directive"]

    # ------------------------------------------------------------------
    # Damage injection (the crash-fault surface)
    # ------------------------------------------------------------------
    def tear_tail(self, server: int) -> bool:
        """Leave a torn (half-written) record at the log tail."""
        return self._log_for(server).tear_tail()

    def corrupt_tail(self, server: int) -> bool:
        """Flip bits in an unsynced tail record (CRC now mismatches)."""
        return self._log_for(server).corrupt_tail()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Deterministic counters for ``result.durability`` / chaos cases."""
        return {
            "store": "wal",
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "snapshots": self.snapshots,
            "recoveries": self.recoveries,
            "replayed_records": self.replayed_records,
            "truncations": self.truncations,
            "dropped": self.dropped,
            "wal_bytes": sum(wal.size for wal in self._logs.values()),
        }

    def close(self) -> None:
        """Release files/handles (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._directives.close()
        for wal in self._logs.values():
            wal.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
