"""Storage subsystem: WAL codec, damage injection, and the two backends."""

import json
import os
import struct

import pytest

from repro.obs.telemetry import Telemetry
from repro.storage import (
    HEADER_SIZE,
    MemoryStore,
    STORE_BACKENDS,
    ServerLogState,
    WalFile,
    encode_record,
    make_store,
    pack_record,
    scan_records,
    unpack_record,
)
from repro.storage.wal import CORRUPT, TORN

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "wal_records.bin")


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
def test_encode_record_framing():
    frame = encode_record(b"hello")
    assert len(frame) == HEADER_SIZE + 5
    length, _crc = struct.unpack("<II", frame[:HEADER_SIZE])
    assert length == 5
    assert frame[HEADER_SIZE:] == b"hello"


def test_directive_body_is_compact_sorted_json():
    # The directive alone keeps a JSON body, behind its kind byte.
    payload = pack_record(("directive", {"b": 1, "a": 2}))
    assert payload == b'\x05{"a":2,"b":1}'  # sorted keys, no whitespace


def test_packed_layout_per_kind():
    # [u8 kind][fixed little-endian body][UTF-8 path]; docs/DURABILITY.md.
    assert pack_record(("ack", 7, 1.5, "/a/é")) == (
        b"\x01" + struct.pack("<Qd", 7, 1.5) + "/a/é".encode()
    )
    assert pack_record(("fence", 3, 0.25)) == b"\x02" + struct.pack("<Qd", 3, 0.25)
    assert pack_record(("grant", 2.0, "/s")) == b"\x03" + struct.pack("<d", 2.0) + b"/s"
    assert pack_record(("revoke", 2.0, "/s")) == b"\x04" + struct.pack("<d", 2.0) + b"/s"


#: One record of each kind plus a directive: the bytes of
#: tests/golden/wal_records.bin, so the on-disk layout cannot drift silently.
GOLDEN_RECORDS = [
    ("fence", 3, 0.5),
    ("ack", 41, 1.25, "/home/ünï/a.txt"),
    ("grant", 2.0, "/home/sub1"),
    ("revoke", 2.5, "/home/sub1"),
    ("ack", 2**64 - 1, 1e-9, ""),
    ("directive", {"epoch": 4, "kind": "rejoin", "moves": [], "server": 1, "t": 0.75}),
]


def test_golden_log_bytes_are_pinned():
    with open(GOLDEN, "rb") as handle:
        golden = handle.read()
    encoded = b"".join(encode_record(pack_record(r)) for r in GOLDEN_RECORDS)
    assert encoded == golden
    scan = scan_records(golden)
    assert not scan.truncated
    assert [unpack_record(p) for p in scan.records] == GOLDEN_RECORDS


@pytest.mark.parametrize("record", [
    ("ack", -1, 0.0, "/x"),  # below u64
    ("ack", 2**64, 0.0, "/x"),  # above u64
    ("ack", 1.5, 0.0, "/x"),  # not an int
    ("ack", 1, "soon", "/x"),  # not a number
    ("ack", 1, 0.0, b"/x"),  # not text
    ("ack", 1, 0.0, "/\ud800"),  # not encodable
    ("ack", 1, 0.0),  # a field short
    ("fence", -3, 0.0),
    ("fence", 2**64, 0.0),
    ("grant", 0.0, None),
    ("rename", 0.0, "/x"),  # no such kind
    ("directive", {"when": object()}),  # not JSON
    (),
])
def test_misfit_record_is_a_value_error_and_writes_nothing(record, tmp_path):
    with pytest.raises(ValueError):
        pack_record(record)
    wal = WalFile(str(tmp_path / "a.log"))
    with pytest.raises(ValueError):
        wal.append(record, sync=True)
    assert wal.size == 0 and wal.appends == 0 and wal.durable_offset == 0
    assert os.path.getsize(wal.path) == 0
    wal.close()


@pytest.mark.parametrize("payload", [
    b"",  # no kind byte
    b"\x01short",  # ack body cut
    b"\x02" + bytes(15),  # fence body cut
    b"\x02" + bytes(17),  # fence body over-long
    b"\x03" + bytes(4),  # grant body cut
    b"\x01" + bytes(16) + b"\xff\xfe",  # path is not UTF-8
    b"\x04" + bytes(8) + b"\xc3",  # path ends mid-character
    b"\x05{",  # directive body is not JSON
    b"\x05[1,2]",  # ... or not an object
    b"\x05\xff",  # ... or not UTF-8
])
def test_checksummed_but_undecodable_record_is_corrupt(payload, tmp_path):
    with pytest.raises(ValueError):
        unpack_record(payload)
    # In a log it is damage like any other: the verdict is `corrupt`, the
    # records before it survive, it and everything behind it is truncated.
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append(("ack", 0, 0.0, "/f"), sync=True)
    clean = wal.size
    with open(wal.path, "ab") as raw:
        raw.write(encode_record(payload) + encode_record(pack_record(("fence", 9, 1.0))))
    damaged = os.path.getsize(wal.path)
    records, scan = wal.recover()
    assert records == [("ack", 0, 0.0, "/f")]
    assert scan.reason == CORRUPT and scan.clean_length == clean
    assert scan.dropped_bytes == damaged - clean
    assert os.path.getsize(wal.path) == clean == wal.size
    wal.append(("ack", 1, 1.0, "/g"), sync=True)
    records, scan = wal.recover()
    assert [r[1] for r in records] == [0, 1] and not scan.truncated
    wal.close()


def test_unknown_kind_byte_is_skipped(tmp_path):
    # A kind this reader does not know is not damage: a log written by a
    # later vocabulary still replays what this reader understands.
    assert unpack_record(b"\x63from-the-future") is None
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append(("ack", 0, 0.0, "/f"), sync=True)
    with open(wal.path, "ab") as raw:
        raw.write(encode_record(b"\x63from-the-future"))
    wal.append(("ack", 1, 1.0, "/g"), sync=True)
    records, scan = wal.recover()
    assert [r[1] for r in records] == [0, 1]
    assert not scan.truncated and len(scan.records) == 3
    assert wal.size == os.path.getsize(wal.path)  # recovery re-reads the disk
    wal.close()


def test_scan_clean_buffer():
    data = encode_record(b"one") + encode_record(b"two")
    scan = scan_records(data)
    assert scan.records == (b"one", b"two")
    assert scan.clean_length == len(data)
    assert not scan.truncated
    assert scan.reason is None and scan.dropped_bytes == 0


def test_scan_empty_buffer_is_clean():
    scan = scan_records(b"")
    assert scan.records == () and not scan.truncated


def test_scan_detects_torn_header():
    data = encode_record(b"ok") + b"\x03\x00"  # 2 bytes of a header
    scan = scan_records(data)
    assert scan.records == (b"ok",)
    assert scan.reason == TORN
    assert scan.dropped_bytes == 2


def test_scan_detects_torn_payload():
    good = encode_record(b"ok")
    torn = encode_record(b"damaged-record")[:-4]  # payload cut short
    scan = scan_records(good + torn)
    assert scan.records == (b"ok",)
    assert scan.reason == TORN
    assert scan.clean_length == len(good)


def test_scan_detects_corrupt_payload():
    good = encode_record(b"ok")
    bad = bytearray(encode_record(b"rotten"))
    bad[-1] ^= 0xFF
    scan = scan_records(good + bytes(bad))
    assert scan.records == (b"ok",)
    assert scan.reason == CORRUPT
    assert scan.dropped_bytes == len(bad)


def test_scan_damage_shadows_later_records():
    # A corrupt record in the middle drops everything after it too:
    # sequential framing means nothing past the damage can be trusted.
    bad = bytearray(encode_record(b"middle"))
    bad[HEADER_SIZE] ^= 0xFF
    data = encode_record(b"first") + bytes(bad) + encode_record(b"last")
    scan = scan_records(data)
    assert scan.records == (b"first",)
    assert scan.dropped_bytes == len(bad) + len(encode_record(b"last"))


# ----------------------------------------------------------------------
# WalFile: append / sync / recover / damage
# ----------------------------------------------------------------------
def test_walfile_round_trip(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append(("fence", 3, 0.5), sync=True)
    wal.append(("ack", 1, 0.75, "/a"), sync=True)
    wal.append(("directive", {"epoch": 4, "kind": "rejoin"}), sync=True)
    records, scan = wal.recover()
    assert records == [
        ("fence", 3, 0.5),
        ("ack", 1, 0.75, "/a"),
        ("directive", {"epoch": 4, "kind": "rejoin"}),
    ]
    assert not scan.truncated
    wal.close()


def test_walfile_tracks_its_own_size_and_sync_boundary(tmp_path):
    # An append is one unbuffered write: the bytes are in the file before
    # any sync, `size` is counted rather than asked of the handle, and only
    # a sync moves `durable_offset`.
    wal = WalFile(str(tmp_path / "a.log"))
    first = wal.append(("ack", 0, 0.0, "/f"), sync=True)
    assert wal.size == wal.durable_offset == first == os.path.getsize(wal.path)
    second = wal.append(("grant", 1.0, "/s"))
    assert wal.size == first + second == os.path.getsize(wal.path)
    assert wal.durable_offset == first
    wal.sync()
    assert wal.durable_offset == wal.size
    assert (wal.appends, wal.fsyncs) == (2, 2)
    wal.close()


def test_walfile_reopen_appends(tmp_path):
    path = str(tmp_path / "a.log")
    first = WalFile(path)
    first.append(("ack", 1, 0.0, "/a"), sync=True)
    first.close()
    second = WalFile(path)
    assert second.size == second.durable_offset == os.path.getsize(path)
    second.append(("ack", 2, 1.0, "/b"), sync=True)
    records, _ = second.recover()
    assert [r[1] for r in records] == [1, 2]
    second.close()


def test_walfile_tear_tail_spares_synced_records(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    for op in range(5):
        wal.append(("ack", op, 0.0, "/f"), sync=True)
    wal.append(("grant", 0.0, "/x"))  # unsynced
    assert wal.tear_tail()
    records, scan = wal.recover()
    assert scan.reason == TORN
    assert [r[1] for r in records] == [0, 1, 2, 3, 4]
    assert wal.size == wal.durable_offset == os.path.getsize(wal.path)
    wal.close()


def test_walfile_tear_tail_never_scans_clean(tmp_path):
    # The cut must land strictly inside a record: a boundary-aligned cut
    # would read back as a clean, shorter log and recovery would miss it.
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append(("ack", 0, 0.0, "/f"), sync=True)
    wal.append(("grant", 0.0, "/a"))
    wal.append(("grant", 0.0, "/b"))
    wal.tear_tail()
    _, scan = wal.recover(repair=False)
    assert scan.truncated
    wal.close()


def test_walfile_tear_tail_on_fully_synced_log(tmp_path):
    # No unsynced span: the fault models a crash mid-append of the *next*
    # record, so a partial junk frame lands past the synced prefix.
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append(("ack", 0, 0.0, "/f"), sync=True)
    wal.tear_tail()
    records, scan = wal.recover()
    assert scan.reason == TORN
    assert records == [("ack", 0, 0.0, "/f")]
    wal.close()


def test_walfile_corrupt_tail_detected_and_repaired(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append(("ack", 0, 0.0, "/f"), sync=True)
    wal.append(("grant", 0.0, "/x"))
    assert wal.corrupt_tail()
    records, scan = wal.recover()
    assert scan.reason == CORRUPT
    assert records == [("ack", 0, 0.0, "/f")]
    # Repair physically truncated the file: a fresh scan is clean and the
    # log accepts appends again.
    wal.append(("ack", 1, 1.0, "/g"), sync=True)
    records, scan = wal.recover()
    assert not scan.truncated
    assert [r[1] for r in records] == [0, 1]
    wal.close()


def test_walfile_corrupt_tail_on_fully_synced_log(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append(("ack", 0, 0.0, "/f"), sync=True)
    wal.corrupt_tail()
    records, scan = wal.recover()
    assert scan.reason == CORRUPT
    assert records == [("ack", 0, 0.0, "/f")]
    wal.close()


def test_walfile_reset_empties_log(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append(("ack", 1, 0.0, "/f"), sync=True)
    wal.reset()
    assert wal.size == 0 and wal.durable_offset == 0
    assert os.path.getsize(wal.path) == 0
    records, _ = wal.recover()
    assert records == []
    wal.close()


# ----------------------------------------------------------------------
# ServerLogState replay semantics
# ----------------------------------------------------------------------
def test_server_log_state_replay():
    state = ServerLogState()
    for record in [
        ("fence", 2, 0.0),
        ("ack", 7, 0.1, "/f"),
        ("grant", 0.2, "/a"),
        ("grant", 0.3, "/b"),
        ("revoke", 0.4, "/a"),
        ("fence", 1, 0.5),  # stale fence never regresses
        ("directive", {"epoch": 9}),  # other kinds ignored
    ]:
        state.apply(record)
    assert state.fence_epoch == 2
    assert state.acked_ops == [7]
    assert state.subtrees == {"/b"}


def test_server_log_state_snapshot_round_trip():
    state = ServerLogState()
    state.apply(("ack", 1, 0.0, "/f"))
    state.apply(("grant", 0.0, "/s"))
    rebuilt = ServerLogState.from_snapshot(state.to_snapshot())
    assert rebuilt.to_snapshot() == state.to_snapshot()
    assert ServerLogState.from_snapshot(None).to_snapshot() == {
        "fence_epoch": 0, "acked_ops": [], "subtrees": [],
    }


# ----------------------------------------------------------------------
# Backend contract (via make_store)
# ----------------------------------------------------------------------
def drive_store(store):
    """A tiny canonical history every backend must replay identically."""
    store.append_fence(0, 3, t=0.0)
    for op in range(10):
        store.append_ack(0, op, f"/f{op}", t=float(op))
    store.append_mutation(0, "grant", "/sub1", t=1.0)
    store.append_mutation(0, "grant", "/sub2", t=2.0)
    store.append_mutation(0, "revoke", "/sub1", t=3.0)
    store.append_directive({"epoch": 1, "kind": "rejoin", "server": 0, "t": 0.5})


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_backend_round_trip(backend, tmp_path):
    store = make_store(backend, directory=str(tmp_path / backend))
    try:
        drive_store(store)
        recovered = store.recover_server(0)
        assert recovered.fence_epoch == 3
        assert recovered.acked_ops == list(range(10))
        assert recovered.subtrees == ["/sub2"]
        assert not recovered.truncated
        assert store.recover_directives() == [
            {"epoch": 1, "kind": "rejoin", "server": 0, "t": 0.5}
        ]
    finally:
        store.close()


@pytest.mark.parametrize("backend", ["wal"])
def test_backend_snapshot_then_tail_replay(backend, tmp_path):
    store = make_store(backend, directory=str(tmp_path), snapshot_every=8)
    try:
        drive_store(store)  # 14 server records -> at least one snapshot
        assert store.snapshots >= 1
        recovered = store.recover_server(0)
        assert recovered.snapshot_loaded
        assert recovered.acked_ops == list(range(10))
        assert recovered.subtrees == ["/sub2"]
    finally:
        store.close()


@pytest.mark.parametrize("backend", ["wal"])
@pytest.mark.parametrize("damage", ["tear_tail", "corrupt_tail"])
def test_backend_damage_detected_and_acks_survive(backend, damage, tmp_path):
    store = make_store(backend, directory=str(tmp_path), snapshot_every=0)
    try:
        drive_store(store)
        assert getattr(store, damage)(0)
        recovered = store.recover_server(0)
        assert recovered.truncated
        assert recovered.truncate_reason in ("torn", "corrupt")
        # Damage only reaches the unsynced tail: every synced ack survives.
        assert recovered.acked_ops == list(range(10))
        assert recovered.fence_epoch == 3
        assert store.truncations == 1 and store.dropped > 0
    finally:
        store.close()


@pytest.mark.parametrize("backend", ["wal"])
def test_backend_damage_on_clean_log_injects_inflight_junk(backend, tmp_path):
    # Even with everything synced the fault applies (a crash mid-append of
    # the next record) and recovery still detects it.
    store = make_store(backend, directory=str(tmp_path), snapshot_every=0)
    try:
        store.append_ack(0, 0, "/f", t=0.0)
        assert store.tear_tail(0)
        recovered = store.recover_server(0)
        assert recovered.truncated and recovered.acked_ops == [0]
    finally:
        store.close()


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_store_events_are_built_only_for_enabled_telemetry(backend, tmp_path):
    class Off:
        enabled = False

        def event(self, *args, **fields):
            raise AssertionError("an event was built for disabled telemetry")

    store = make_store(backend, directory=str(tmp_path / "off"), snapshot_every=4)
    store.bind_telemetry(Off())
    drive_store(store)
    store.close()

    telemetry = Telemetry()
    store = make_store(backend, directory=str(tmp_path / "on"), snapshot_every=4)
    store.bind_telemetry(telemetry)
    drive_store(store)
    store.close()
    events = [(e.event, dict(e.fields)) for e in telemetry.events]
    assert events[0] == ("wal_fsync", {"server": 0, "record": "fence"})
    assert events[1] == ("wal_fsync", {"server": 0, "record": "ack"})
    assert [name for name, _ in events].count("wal_fsync") == store.fsyncs == 11
    assert [f for name, f in events if name == "snapshot"][0] == {
        "server": 0, "acked": 3, "subtrees": 0,
    }


def test_memory_store_is_not_durable_and_damage_is_noop():
    store = MemoryStore()
    assert store.durable is False
    drive_store(store)
    assert store.tear_tail(0) is False
    assert store.corrupt_tail(0) is False
    recovered = store.recover_server(0)
    assert recovered.acked_ops == list(range(10))
    store.wipe_server(0)
    assert store.recover_server(0).acked_ops == []


def test_make_store_rejects_unknown_backend():
    for gone in ("etcd", "sqlite"):
        with pytest.raises(ValueError, match="unknown store backend"):
            make_store(gone)


def test_wal_store_files_on_disk(tmp_path):
    store = make_store("wal", directory=str(tmp_path), snapshot_every=4)
    drive_store(store)
    store.close()
    names = sorted(os.listdir(tmp_path))
    assert "directives.log" in names
    assert any(n.startswith("wal-") for n in names)
    snapshot = next(n for n in names if n.startswith("snapshot-"))
    payload = json.loads((tmp_path / snapshot).read_text())
    assert set(payload) == {"fence_epoch", "acked_ops", "subtrees"}


def test_wal_store_cleanup_spares_foreign_files(tmp_path):
    foreign = ["keep.txt", "snapshot-0.json.bak", "notes.tmp", "wal-0.log.tmp"]
    for name in foreign:
        (tmp_path / name).write_text("mine")
    (tmp_path / "wal-0.log").write_bytes(b"stale")
    # What a run that died between a snapshot's write and its os.replace
    # leaves behind is the store's own file too.
    (tmp_path / "snapshot-3.json.tmp").write_text('{"acked_ops":[1')
    store = make_store("wal", directory=str(tmp_path))
    store.close()
    for name in foreign:
        assert (tmp_path / name).read_text() == "mine"
    assert not (tmp_path / "wal-0.log").exists()
    assert not (tmp_path / "snapshot-3.json.tmp").exists()


def test_store_init_owns_directory_for_one_run(tmp_path):
    # A store owns its directory for exactly one run: re-pointing a new
    # instance at it starts clean rather than replaying a stale run's
    # state (kill9 recovery happens *within* a run, via recover_server).
    first = make_store("wal", directory=str(tmp_path))
    drive_store(first)
    first.close()
    second = make_store("wal", directory=str(tmp_path))
    try:
        assert second.recover_server(0).acked_ops == []
        assert second.recover_directives() == []
    finally:
        second.close()
