"""Storage subsystem: WAL codec, damage injection, and the WAL store."""

import dataclasses
import hashlib
import json
import os
import struct

import pytest

from repro.chaos import (
    CHAOS_HEARTBEAT_INTERVAL,
    CHAOS_HEARTBEAT_TIMEOUT,
    CHAOS_LEASE_TIMEOUT,
)
from repro.core import D2TreeScheme
from repro.obs.telemetry import Telemetry
from repro.simulation import ClusterSimulator, FaultPlan, SimulationConfig
from repro.storage import (
    HEADER_SIZE,
    ServerLogState,
    WalFile,
    encode_record,
    make_store,
    pack_record,
    scan_records,
    unpack_record,
)
from repro.storage.wal import CORRUPT, TORN
from repro.traces import DatasetProfile, TraceGenerator

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
        wal.write_frame(pack_record(record), True)
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
    wal.write_frame(pack_record(("ack", 0, 0.0, "/f")), True)
    clean = wal.size
    with open(wal.path, "ab") as raw:
        raw.write(encode_record(payload) + encode_record(pack_record(("fence", 9, 1.0))))
    damaged = os.path.getsize(wal.path)
    records, scan = wal.recover()
    assert records == [("ack", 0, 0.0, "/f")]
    assert scan.reason == CORRUPT and scan.clean_length == clean
    assert scan.dropped_bytes == damaged - clean
    assert os.path.getsize(wal.path) == clean == wal.size
    wal.write_frame(pack_record(("ack", 1, 1.0, "/g")), True)
    records, scan = wal.recover()
    assert [r[1] for r in records] == [0, 1] and not scan.truncated
    wal.close()


def test_unknown_kind_byte_is_skipped(tmp_path):
    # A kind this reader does not know is not damage: a log written by a
    # later vocabulary still replays what this reader understands.
    assert unpack_record(b"\x63from-the-future") is None
    wal = WalFile(str(tmp_path / "a.log"))
    wal.write_frame(pack_record(("ack", 0, 0.0, "/f")), True)
    with open(wal.path, "ab") as raw:
        raw.write(encode_record(b"\x63from-the-future"))
    wal.write_frame(pack_record(("ack", 1, 1.0, "/g")), True)
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
    wal.write_frame(pack_record(("fence", 3, 0.5)), True)
    wal.write_frame(pack_record(("ack", 1, 0.75, "/a")), True)
    wal.write_frame(pack_record(("directive", {"epoch": 4, "kind": "rejoin"})), True)
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
    first = wal.write_frame(pack_record(("ack", 0, 0.0, "/f")), True)
    assert wal.size == wal.durable_offset == first == os.path.getsize(wal.path)
    second = wal.write_frame(pack_record(("grant", 1.0, "/s")), False)
    assert wal.size == first + second == os.path.getsize(wal.path)
    assert wal.durable_offset == first
    wal.write_frame(pack_record(("ack", 1, 1.0, "/g")), True)
    assert wal.durable_offset == wal.size
    assert (wal.appends, wal.fsyncs) == (3, 2)
    wal.close()


def test_walfile_reopen_appends(tmp_path):
    path = str(tmp_path / "a.log")
    first = WalFile(path)
    first.write_frame(pack_record(("ack", 1, 0.0, "/a")), True)
    first.close()
    second = WalFile(path)
    assert second.size == second.durable_offset == os.path.getsize(path)
    second.write_frame(pack_record(("ack", 2, 1.0, "/b")), True)
    records, _ = second.recover()
    assert [r[1] for r in records] == [1, 2]
    second.close()


def test_walfile_tear_tail_spares_synced_records(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    for op in range(5):
        wal.write_frame(pack_record(("ack", op, 0.0, "/f")), True)
    wal.write_frame(pack_record(("grant", 0.0, "/x")), False)  # unsynced
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
    wal.write_frame(pack_record(("ack", 0, 0.0, "/f")), True)
    wal.write_frame(pack_record(("grant", 0.0, "/a")), False)
    wal.write_frame(pack_record(("grant", 0.0, "/b")), False)
    wal.tear_tail()
    _, scan = wal.recover(repair=False)
    assert scan.truncated
    wal.close()


def test_walfile_tear_tail_on_fully_synced_log(tmp_path):
    # No unsynced span: the fault models a crash mid-append of the *next*
    # record, so a partial junk frame lands past the synced prefix.
    wal = WalFile(str(tmp_path / "a.log"))
    wal.write_frame(pack_record(("ack", 0, 0.0, "/f")), True)
    wal.tear_tail()
    records, scan = wal.recover()
    assert scan.reason == TORN
    assert records == [("ack", 0, 0.0, "/f")]
    wal.close()


def test_walfile_corrupt_tail_detected_and_repaired(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.write_frame(pack_record(("ack", 0, 0.0, "/f")), True)
    wal.write_frame(pack_record(("grant", 0.0, "/x")), False)
    assert wal.corrupt_tail()
    records, scan = wal.recover()
    assert scan.reason == CORRUPT
    assert records == [("ack", 0, 0.0, "/f")]
    # Repair physically truncated the file: a fresh scan is clean and the
    # log accepts appends again.
    wal.write_frame(pack_record(("ack", 1, 1.0, "/g")), True)
    records, scan = wal.recover()
    assert not scan.truncated
    assert [r[1] for r in records] == [0, 1]
    wal.close()


def test_walfile_corrupt_tail_on_fully_synced_log(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.write_frame(pack_record(("ack", 0, 0.0, "/f")), True)
    wal.corrupt_tail()
    records, scan = wal.recover()
    assert scan.reason == CORRUPT
    assert records == [("ack", 0, 0.0, "/f")]
    wal.close()


def test_walfile_reset_empties_log(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.write_frame(pack_record(("ack", 1, 0.0, "/f")), True)
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
# The WAL store (via make_store)
# ----------------------------------------------------------------------
def drive_store(store):
    """A tiny canonical history the store must replay exactly."""
    store.append_fence(0, 3, t=0.0)
    for op in range(10):
        store.append_ack(0, op, f"/f{op}", t=float(op))
    store.append_mutation(0, "grant", "/sub1", t=1.0)
    store.append_mutation(0, "grant", "/sub2", t=2.0)
    store.append_mutation(0, "revoke", "/sub1", t=3.0)
    store.append_directive({"epoch": 1, "kind": "rejoin", "server": 0, "t": 0.5})


@pytest.mark.parametrize("backend", ["wal"])
def test_backend_round_trip(backend, tmp_path):
    store = make_store(backend, directory=str(tmp_path / backend))
    try:
        drive_store(store)
        recovered = store.recover_server(0)
        assert recovered.state.fence_epoch == 3
        assert recovered.state.acked_ops == list(range(10))
        assert recovered.state.subtrees == {"/sub2"}
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
        assert recovered.state.acked_ops == list(range(10))
        assert recovered.state.subtrees == {"/sub2"}
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
        assert recovered.state.acked_ops == list(range(10))
        assert recovered.state.fence_epoch == 3
        assert store.truncations == 1 and store.dropped > 0
    finally:
        store.close()


def test_read_server_is_the_recovery_replay_without_its_effects(tmp_path):
    """``read_server`` returns what ``recover_server`` would replay, and
    changes nothing: the damaged tail stays on disk, the live view and the
    counters stay put, and a server that never logged gets no log file."""
    store = make_store("wal", directory=str(tmp_path), snapshot_every=8)
    try:
        drive_store(store)
        store.tear_tail(0)
        size, view, before = (
            os.path.getsize(tmp_path / "wal-0.log"), store._state[0], store.stats()
        )
        read = store.read_server(0)
        assert (read.truncated, read.truncate_reason) == (True, "torn")
        again = store.read_server(0)
        assert again.state.to_snapshot() == read.state.to_snapshot()
        assert again.dropped == read.dropped > 0
        assert os.path.getsize(tmp_path / "wal-0.log") == size
        assert store._state[0] is view and store.stats() == before
        never = store.read_server(5)
        assert never.state.acked_ops == [] and not never.truncated
        assert not (tmp_path / "wal-5.log").exists()

        recovered = store.recover_server(0)
        assert recovered.state.to_snapshot() == read.state.to_snapshot()
        assert recovered.replayed_records == read.replayed_records
        assert os.path.getsize(tmp_path / "wal-0.log") < size
        assert (store.recoveries, store.truncations) == (1, 1)
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
        assert recovered.truncated and recovered.state.acked_ops == [0]
    finally:
        store.close()


@pytest.mark.parametrize("backend", ["wal"])
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
    # ``--store memory`` is no store at all: nothing durable is kept, and
    # the WAL damage faults reduce to the kill9 they wrap.
    assert make_store("memory") is None
    workload = TraceGenerator(
        DatasetProfile.dtr(num_nodes=400, scale=3e-5), num_clients=10
    ).generate()
    plan = FaultPlan.parse([
        "torn_write:1@ops=100", "corrupt_record:2@ops=150",
        "recover:1@ops=300", "recover:2@ops=300",
    ])
    sim = ClusterSimulator(
        D2TreeScheme(), workload, 4, SimulationConfig(fault_plan=plan)
    )
    result = sim.run()
    sim.close()
    assert sim.store is None and sim.durability is None
    assert result.durability is None
    assert result.availability.crashes == 2
    assert not any(server.lost_volatile for server in sim.servers)


def test_make_store_rejects_unknown_backend():
    for gone in ("etcd", "sqlite"):
        with pytest.raises(ValueError, match="unknown store backend"):
            make_store(gone)


def snapshot_payload(data):
    """The JSON text a snapshot file frames."""
    scan = scan_records(data)
    assert not scan.truncated and len(scan.records) == 1
    return scan.records[0]


def test_wal_store_files_on_disk(tmp_path):
    store = make_store("wal", directory=str(tmp_path), snapshot_every=4)
    drive_store(store)
    store.close()
    names = sorted(os.listdir(tmp_path))
    assert "directives.log" in names
    assert any(n.startswith("wal-") for n in names)
    snapshot = next(n for n in names if n.startswith("snapshot-"))
    payload = json.loads(snapshot_payload((tmp_path / snapshot).read_bytes()))
    assert set(payload) == {"fence_epoch", "acked_ops", "subtrees"}


def snapshotted_store(directory):
    """A store whose server 0 holds a snapshot (acks 0-9) and a log tail."""
    store = make_store("wal", directory=directory, snapshot_every=4)
    drive_store(store)
    return store, os.path.join(directory, "snapshot-0.json")


def test_flipped_digit_in_a_snapshot_fails_its_crc(tmp_path):
    # Bare JSON parsed a flipped digit of an acked op id into another op
    # id, and recovery returned it; the frame's CRC now refuses it.
    store, path = snapshotted_store(str(tmp_path))
    try:
        assert store.read_server(0).state.acked_ops == list(range(10))
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        digit = data.index(b'"acked_ops":[') + len(b'"acked_ops":[') + 4
        assert data[digit:digit + 1] == b"2"
        data[digit] = ord("7")
        with open(path, "wb") as handle:
            handle.write(data)
        for replay in (store.read_server, store.recover_server):
            with pytest.raises(ValueError, match="snapshot-0.json is damaged"):
                replay(0)
    finally:
        store.close()


@pytest.mark.parametrize("damage, why", [
    (lambda data: data[:-1], "torn"),
    (lambda data: data[:3], "torn"),
    (lambda data: b"", "0 frames"),
    (lambda data: data + data, "2 frames"),
    (lambda data: encode_record(b"[1,2]"), "not a JSON object"),
    (lambda data: encode_record(b'{"acked_ops":'), "Expecting value"),
    (lambda data: encode_record(b"\xff"), "utf-8"),
    (lambda data: encode_record(b'{"acked_ops":[{}]}'), "int"),
])
def test_damaged_snapshot_is_a_value_error_naming_the_file(damage, why, tmp_path):
    store, path = snapshotted_store(str(tmp_path))
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(data))
        with pytest.raises(ValueError, match="snapshot-0.json is damaged") as raised:
            store.recover_server(0)
        assert why in str(raised.value)
    finally:
        store.close()


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
        assert second.recover_server(0).state.acked_ops == []
        assert second.recover_directives() == []
    finally:
        second.close()


# ----------------------------------------------------------------------
# What a seeded faulted durable run leaves on disk
# ----------------------------------------------------------------------
def sha(data):
    return hashlib.sha256(data).hexdigest()


def durable_run_digests(directory):
    """sha256 of every file a seeded faulted durable run leaves in
    ``directory`` (a snapshot by its JSON payload text), and of its
    ``result.durability``."""
    full = TraceGenerator(
        DatasetProfile.dtr(num_nodes=800, scale=5e-5), num_clients=20
    ).generate()
    workload = dataclasses.replace(full, trace=full.trace.slice(0, 500))
    plan = FaultPlan.parse([
        "kill9:1@ops=120", "torn_write:2@ops=200",
        "recover:1@ops=320", "recover:2@ops=420",
    ])
    config = SimulationConfig(
        seed=5, fault_plan=plan, num_monitors=3,
        heartbeat_interval=CHAOS_HEARTBEAT_INTERVAL,
        heartbeat_timeout=CHAOS_HEARTBEAT_TIMEOUT,
        monitor_lease_timeout=CHAOS_LEASE_TIMEOUT,
        store="wal", store_dir=directory, snapshot_every=64,
    )
    sim = ClusterSimulator(D2TreeScheme(), workload, 5, config)
    try:
        durability = sim.run().durability
    finally:
        sim.close()
    digests = {"durability": sha(json.dumps(durability, sort_keys=True).encode())}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            data = handle.read()
        if name.startswith("snapshot-"):
            data = snapshot_payload(data)
        digests[name] = sha(data)
    return digests


def test_durable_run_bytes_are_pinned(tmp_path):
    # kill9, a torn tail and two recoveries over five snapshotting logs:
    # a change to how records are packed, framed or written must leave
    # every byte of them, and the run's durability block, as they are.
    assert durable_run_digests(str(tmp_path)) == {
        "directives.log": "d731bc786fbcaa3e381057d4cf43c61c0c6e2c896e52b5150454d259b68439e8",
        "durability": "aa9d8a72679b1952a35e06d75df69ac726968ed076167f6f8c5af8d35f750411",
        "snapshot-3.json": "1bfe5ad6873b444758e0c1e340d4a68cc58f46b2459a617d5ba5f1b0ed9be10d",
        "snapshot-4.json": "ac34ed5deb1caca2c7b82ad25aa32e1c8a7aba9b5dfea0cbeb729f71767036d7",
        "wal-0.log": "fc543437f8e8c62ee902571c227f6befdde33adc0a38f689807e66f41e9b421f",
        "wal-1.log": "831f8a7316e44e178c4940c89da78ac5eb363dab1a0eeb5d777da39f7b9c494b",
        "wal-2.log": "3018f7cb632c13e7393602493173e3c90082567a02ac4ff006cc5d69a7922ec8",
        "wal-3.log": "91300e4b07dd4b0379de3860d042c18526bfb767c638ca34372659db588ce503",
        "wal-4.log": "4483df48c5c3d4aeb541d09cecbd2bfa841837399e23ca97c71b4618b57024bf",
    }
