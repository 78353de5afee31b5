"""Crash-consistent metadata persistence (the ``--store`` subsystem).

Public surface:

* :class:`WalStore` — the durable store (snapshot + WAL per MDS),
* :func:`make_store` / :data:`STORE_BACKENDS` — the ``--store`` switch,
* :class:`DurabilityLedger` — the chaos harness's durability oracle,
* the WAL codec (:mod:`repro.storage.wal`) for tests and tooling.

See ``docs/DURABILITY.md`` for formats and recovery semantics.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.base import (
    DurabilityLedger,
    RecoveredState,
    ServerLogState,
)
from repro.storage.filestore import WalStore
from repro.storage.wal import (
    HEADER_SIZE,
    Record,
    ScanResult,
    WalFile,
    encode_record,
    pack_record,
    scan_records,
    unpack_record,
)

__all__ = [
    "DurabilityLedger",
    "HEADER_SIZE",
    "Record",
    "RecoveredState",
    "STORE_BACKENDS",
    "ScanResult",
    "ServerLogState",
    "WalFile",
    "WalStore",
    "encode_record",
    "make_store",
    "pack_record",
    "scan_records",
    "unpack_record",
]

#: ``--store`` choices, in help-text order. ``memory`` is the zero-cost
#: default (no store); ``wal`` takes an optional ``--store-dir``.
STORE_BACKENDS = ("memory", "wal")


def make_store(
    name: str,
    directory: Optional[str] = None,
    snapshot_every: int = 512,
    fsync: bool = False,
) -> Optional[WalStore]:
    """The store a ``--store`` name selects: None for ``memory`` (the run
    keeps nothing durable), else a :class:`WalStore` in ``directory`` (a
    self-cleaning temporary directory when it is None).
    """
    if name == "memory":
        return None
    if name == "wal":
        return WalStore(
            directory=directory, snapshot_every=snapshot_every, fsync=fsync
        )
    raise ValueError(
        f"unknown store backend {name!r} (choose from {', '.join(STORE_BACKENDS)})"
    )
