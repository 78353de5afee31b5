"""Storage subsystem: WAL codec, damage injection, and the two backends."""

import json
import os
import struct

import pytest

from repro.storage import (
    HEADER_SIZE,
    MemoryStore,
    STORE_BACKENDS,
    ServerLogState,
    WalFile,
    encode_json_record,
    encode_record,
    make_store,
    scan_records,
)
from repro.storage.wal import CORRUPT, TORN


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
def test_encode_record_framing():
    frame = encode_record(b"hello")
    assert len(frame) == HEADER_SIZE + 5
    length, _crc = struct.unpack("<II", frame[:HEADER_SIZE])
    assert length == 5
    assert frame[HEADER_SIZE:] == b"hello"


def test_encode_json_record_is_compact_and_sorted():
    frame = encode_json_record({"b": 1, "a": 2})
    payload = frame[HEADER_SIZE:]
    assert payload == b'{"a":2,"b":1}'  # sorted keys, no whitespace


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
    wal.append({"k": "fence", "epoch": 3}, sync=True)
    wal.append({"k": "ack", "op": 1}, sync=True)
    records, scan = wal.recover()
    assert records == [{"epoch": 3, "k": "fence"}, {"k": "ack", "op": 1}]
    assert not scan.truncated
    wal.close()


def test_walfile_reopen_appends(tmp_path):
    path = str(tmp_path / "a.log")
    first = WalFile(path)
    first.append({"n": 1}, sync=True)
    first.close()
    second = WalFile(path)
    assert second.durable_offset == os.path.getsize(path)
    second.append({"n": 2}, sync=True)
    records, _ = second.recover()
    assert [r["n"] for r in records] == [1, 2]
    second.close()


def test_walfile_tear_tail_spares_synced_records(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    for op in range(5):
        wal.append({"k": "ack", "op": op}, sync=True)
    wal.append({"k": "grant", "path": "/x"})  # unsynced
    assert wal.tear_tail()
    records, scan = wal.recover()
    assert scan.reason == TORN
    assert [r["op"] for r in records] == [0, 1, 2, 3, 4]
    wal.close()


def test_walfile_tear_tail_never_scans_clean(tmp_path):
    # The cut must land strictly inside a record: a boundary-aligned cut
    # would read back as a clean, shorter log and recovery would miss it.
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append({"k": "ack", "op": 0}, sync=True)
    wal.append({"k": "grant", "path": "/a"})
    wal.append({"k": "grant", "path": "/b"})
    wal.tear_tail()
    _, scan = wal.recover(repair=False)
    assert scan.truncated
    wal.close()


def test_walfile_tear_tail_on_fully_synced_log(tmp_path):
    # No unsynced span: the fault models a crash mid-append of the *next*
    # record, so a partial junk frame lands past the synced prefix.
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append({"k": "ack", "op": 0}, sync=True)
    wal.tear_tail()
    records, scan = wal.recover()
    assert scan.reason == TORN
    assert records == [{"k": "ack", "op": 0}]
    wal.close()


def test_walfile_corrupt_tail_detected_and_repaired(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append({"k": "ack", "op": 0}, sync=True)
    wal.append({"k": "grant", "path": "/x"})
    assert wal.corrupt_tail()
    records, scan = wal.recover()
    assert scan.reason == CORRUPT
    assert records == [{"k": "ack", "op": 0}]
    # Repair physically truncated the file: a fresh scan is clean and the
    # log accepts appends again.
    wal.append({"k": "ack", "op": 1}, sync=True)
    records, scan = wal.recover()
    assert not scan.truncated
    assert [r.get("op") for r in records] == [0, 1]
    wal.close()


def test_walfile_corrupt_tail_on_fully_synced_log(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append({"k": "ack", "op": 0}, sync=True)
    wal.corrupt_tail()
    records, scan = wal.recover()
    assert scan.reason == CORRUPT
    assert records == [{"k": "ack", "op": 0}]
    wal.close()


def test_walfile_reset_empties_log(tmp_path):
    wal = WalFile(str(tmp_path / "a.log"))
    wal.append({"n": 1}, sync=True)
    wal.reset()
    assert wal.size == 0 and wal.durable_offset == 0
    records, _ = wal.recover()
    assert records == []
    wal.close()


# ----------------------------------------------------------------------
# ServerLogState replay semantics
# ----------------------------------------------------------------------
def test_server_log_state_replay():
    state = ServerLogState()
    for record in [
        {"k": "fence", "epoch": 2},
        {"k": "ack", "op": 7},
        {"k": "grant", "path": "/a"},
        {"k": "grant", "path": "/b"},
        {"k": "revoke", "path": "/a"},
        {"k": "fence", "epoch": 1},  # stale fence never regresses
        {"k": "mystery", "x": 1},  # unknown kinds ignored
    ]:
        state.apply(record)
    assert state.fence_epoch == 2
    assert state.acked_ops == [7]
    assert state.subtrees == {"/b"}


def test_server_log_state_snapshot_round_trip():
    state = ServerLogState()
    state.apply({"k": "ack", "op": 1})
    state.apply({"k": "grant", "path": "/s"})
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
    (tmp_path / "keep.txt").write_text("mine")
    (tmp_path / "wal-0.log").write_bytes(b"stale")
    store = make_store("wal", directory=str(tmp_path))
    store.close()
    assert (tmp_path / "keep.txt").read_text() == "mine"
    assert not (tmp_path / "wal-0.log").exists()


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
