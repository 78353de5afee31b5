"""Append-only, checksummed write-ahead log file format.

Frame layout (little-endian), the same for every record::

    [u32 length][u32 CRC32(payload)][payload bytes]

The two framing fields give crash consistency at record granularity:

* a **torn** tail — the file ends mid-header or mid-payload, what a crash
  during ``write(2)`` leaves behind — is detected by the length prefix, and
* a **corrupt** record — bit rot, a misdirected write — is detected by the
  CRC.

A payload is one *record*: a kind byte, a fixed ``struct`` body and, for
the kinds that name one, a UTF-8 path filling the rest (so paths stay
greppable with ``strings``). In memory a record is the tuple in the right
column, tagged with its kind's name::

    kind  payload                                  record
    ----  ---------------------------------------  --------------------------
    1     [u8 1][u64 op][f64 t][path]              ("ack", op, t, path)
    2     [u8 2][u64 epoch][f64 t]                 ("fence", epoch, t)
    3     [u8 3][f64 t][path]                      ("grant", t, path)
    4     [u8 4][f64 t][path]                      ("revoke", t, path)
    5     [u8 5][compact JSON object, sorted keys] ("directive", body)

Only the directive — free-form, appended a few times a run — keeps a JSON
body. :func:`pack_record` / :func:`unpack_record` are the one codec; a kind
byte this reader does not know is skipped on replay, so the vocabulary can
grow without stranding old readers.

:func:`scan_records` returns the longest valid frame prefix plus what
stopped the scan; recovery truncates the file back to that prefix instead
of replaying garbage (see ``docs/DURABILITY.md``).

Sync model: :meth:`WalFile.append` is one unbuffered ``write``;
:meth:`WalFile.sync` advances ``durable_offset``, the byte boundary that
crash faults must respect. The simulator syncs before any state an
operation's client acknowledgment depends on — fsync-before-ack — so
injected torn/corrupt tails can only ever damage *unacknowledged* state.
Real ``os.fsync`` is opt-in (``fsync=True``): the simulated crashes are
process-internal, so data-on-platter guarantees buy nothing but latency in
tests.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "HEADER_SIZE",
    "Record",
    "ScanResult",
    "WalFile",
    "encode_record",
    "pack_record",
    "scan_records",
    "unpack_record",
]

_HEADER = struct.Struct("<II")
#: Bytes of framing (length + CRC32) in front of every payload.
HEADER_SIZE = _HEADER.size

#: One log record: ``(kind name, *fields)`` in payload order (module doc).
Record = tuple

_ACK, _FENCE, _GRANT, _REVOKE, _DIRECTIVE = 1, 2, 3, 4, 5
_COUNTED = struct.Struct("<BQd")  # kind, op | epoch, t
_TIMED = struct.Struct("<Bd")  # kind, t
#: What a mistyped, mis-sized or out-of-range field raises while packing.
_MISFITS = (
    struct.error, AttributeError, LookupError, OverflowError, TypeError, ValueError,
)


def encode_record(payload: bytes) -> bytes:
    """Frame one payload as ``[length][crc32][payload]``."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def pack_record(record: Record) -> bytes:
    """Payload bytes of one record; a field outside its layout is a ValueError."""
    try:
        kind = record[0]
        if kind == "ack":
            _, op, t, path = record
            return _COUNTED.pack(_ACK, op, t) + path.encode("utf-8")
        if kind == "fence":
            _, epoch, t = record
            return _COUNTED.pack(_FENCE, epoch, t)
        if kind == "grant" or kind == "revoke":
            _, t, path = record
            byte = _GRANT if kind == "grant" else _REVOKE
            return _TIMED.pack(byte, t) + path.encode("utf-8")
        if kind == "directive":
            _, body = record
            text = json.dumps(body, sort_keys=True, separators=(",", ":"))
            return bytes((_DIRECTIVE,)) + text.encode("utf-8")
    except _MISFITS as exc:
        raise ValueError(
            f"record {record!r} does not fit the WAL layout: {exc}"
        ) from exc
    raise ValueError(f"record {record!r} is of no known WAL kind")


def unpack_record(payload: bytes) -> Optional[Record]:
    """The record in one payload, ``None`` for a kind byte not known here.

    A known kind whose body is short, over-long or not valid UTF-8 / JSON
    raises ``ValueError``: recovery treats it as corruption.
    """
    try:
        kind = payload[0]
        if kind == _ACK:
            _, op, t = _COUNTED.unpack_from(payload)
            return ("ack", op, t, payload[_COUNTED.size:].decode("utf-8"))
        if kind == _FENCE:
            _, epoch, t = _COUNTED.unpack(payload)
            return ("fence", epoch, t)
        if kind == _GRANT or kind == _REVOKE:
            _, t = _TIMED.unpack_from(payload)
            path = payload[_TIMED.size:].decode("utf-8")
            return ("grant" if kind == _GRANT else "revoke", t, path)
        if kind == _DIRECTIVE:
            body = json.loads(payload[1:].decode("utf-8"))
            if type(body) is not dict:
                raise ValueError("directive body is not a JSON object")
            return ("directive", body)
    except (struct.error, IndexError, ValueError, RecursionError) as exc:
        raise ValueError(f"malformed WAL record: {exc}") from exc
    return None


@dataclass(frozen=True)
class ScanResult:
    """Outcome of scanning a byte buffer for valid records."""

    #: Payloads of the valid record prefix, in log order.
    records: Tuple[bytes, ...]
    #: Byte length of the valid prefix (the truncation point on repair).
    clean_length: int
    #: Why the scan stopped early (``None`` when the whole buffer is clean).
    reason: Optional[str]
    #: Bytes past the valid prefix (what a repair discards).
    dropped_bytes: int

    @property
    def truncated(self) -> bool:
        """True when the buffer held a torn or corrupt tail."""
        return self.reason is not None


#: Scan-stop reasons (also the fault-kind vocabulary of the chaos layer).
TORN = "torn"
CORRUPT = "corrupt"


def scan_records(data: bytes) -> ScanResult:
    """Walk ``data`` record by record, stopping at the first damage.

    A header or payload cut short is a **torn** write; a payload whose CRC
    does not match is **corrupt**. Everything before the damage is valid
    and returned; everything from the damaged record on is counted as
    dropped (a single bad record shadows any records behind it — framing
    is sequential, so nothing after the damage can be trusted).
    """
    records: List[bytes] = []
    offset = 0
    total = len(data)
    reason: Optional[str] = None
    while offset < total:
        if offset + HEADER_SIZE > total:
            reason = TORN
            break
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + HEADER_SIZE + length
        if end > total:
            reason = TORN
            break
        payload = data[offset + HEADER_SIZE:end]
        if zlib.crc32(payload) != crc:
            reason = CORRUPT
            break
        records.append(payload)
        offset = end
    return ScanResult(
        records=tuple(records),
        clean_length=offset,
        reason=reason,
        dropped_bytes=total - offset,
    )


class WalFile:
    """One append-only log file with sync tracking and damage injection.

    Parameters
    ----------
    path:
        The log file (created empty if missing).
    fsync:
        Call ``os.fsync`` on :meth:`sync` (off by default — see module
        docstring).
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self._fsync = fsync
        # Unbuffered: an append is one write(2), and the file's size is
        # tracked here instead of asked of the handle after every record.
        self._handle = open(path, "ab", buffering=0)
        #: Current size in bytes (including unsynced appends).
        self.size = self._handle.tell()
        #: Byte boundary of the last sync; crash damage never reaches below.
        self.durable_offset = self.size
        self.appends = 0
        self.fsyncs = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: Record, sync: bool = False) -> int:
        """Append one record; returns the bytes written."""
        frame = encode_record(pack_record(record))
        self._write(frame)
        self.appends += 1
        if sync:
            self.sync()
        return len(frame)

    def _write(self, data: bytes) -> None:
        written = self._handle.write(data)
        while written < len(data):  # a short write(2): finish the frame
            written += self._handle.write(data[written:])
        self.size += written

    def sync(self) -> None:
        """Advance the durable boundary over everything appended so far."""
        if self._fsync:
            os.fsync(self._handle.fileno())
        self.durable_offset = self.size
        self.fsyncs += 1

    def _truncate(self, size: int) -> None:
        self._handle.truncate(size)
        self.size = size
        self.durable_offset = min(self.durable_offset, size)

    def reset(self) -> None:
        """Discard every record (called after a snapshot subsumed them)."""
        self._truncate(0)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, repair: bool = True) -> Tuple[List[Record], ScanResult]:
        """Scan the on-disk log; optionally truncate damage away.

        Returns the decoded records of the valid prefix plus the scan
        verdict. A frame that passes its CRC but does not decode is
        **corrupt** like any other damage and ends the prefix; a kind byte
        this reader does not know is skipped. With ``repair`` (the default)
        a torn or corrupt tail is physically truncated so the next append
        continues from a clean boundary — the "detected and cleanly
        truncated rather than replayed" half of the durability invariant.
        """
        with open(self.path, "rb") as reader:
            data = reader.read()
        scan = scan_records(data)
        records: List[Record] = []
        clean = 0
        for index, payload in enumerate(scan.records):
            try:
                record = unpack_record(payload)
            except ValueError:
                scan = ScanResult(
                    scan.records[:index], clean, CORRUPT, len(data) - clean
                )
                break
            clean += HEADER_SIZE + len(payload)
            if record is not None:
                records.append(record)
        if repair:
            self._truncate(scan.clean_length)
        return records, scan

    # ------------------------------------------------------------------
    # Damage injection (the crash-fault surface; see repro.simulation.faults)
    # ------------------------------------------------------------------
    def tear_tail(self) -> bool:
        """Simulate a crash mid-``write``: leave a half-written record.

        If unsynced records exist the file is cut mid-way through the first
        of them; otherwise a partial junk record is appended (a torn
        in-flight append). Synced bytes are never touched — a torn OS write
        cannot un-write data that was fsynced. Returns True (damage always
        applies).
        """
        start = self.durable_offset
        pending = self.size - start
        if pending > 0:
            # Cut strictly inside the first unsynced record (a cut on a
            # record boundary would scan as a clean, shorter log).
            with open(self.path, "rb") as reader:
                reader.seek(start)
                header = reader.read(HEADER_SIZE)
            if len(header) == HEADER_SIZE:
                length, _ = _HEADER.unpack(header)
                first = HEADER_SIZE + length
            else:
                first = pending  # span already ends mid-header
            self._truncate(start + max(1, min(first, pending) - 1))
        else:
            frame = encode_record(b"\0torn-inflight")
            self._write(frame[: len(frame) // 2])
        return True

    def corrupt_tail(self) -> bool:
        """Simulate bit rot in the unsynced tail: flip one payload bit.

        If no unsynced record exists, a full junk record with a bad CRC is
        appended instead (a corrupted in-flight append). Synced bytes are
        never touched. Returns True (damage always applies).
        """
        start = self.durable_offset
        if self.size - start > HEADER_SIZE:
            victim = start + HEADER_SIZE  # first payload byte past the sync
            with open(self.path, "r+b") as patcher:
                patcher.seek(victim)
                byte = patcher.read(1)
                patcher.seek(victim)
                patcher.write(bytes([byte[0] ^ 0xFF]))
        else:
            frame = bytearray(encode_record(b"\0corrupt-inflight"))
            frame[-1] ^= 0xFF  # payload no longer matches its CRC
            self._write(bytes(frame))
        return True

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying handle (idempotent)."""
        self._handle.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalFile({self.path!r}, appends={self.appends})"
