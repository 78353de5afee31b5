"""Property tests: the WAL codec round-trips; damage recovers a state prefix."""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
payloads = st.binary(min_size=0, max_size=64)

U64_MAX = 2**64 - 1
u64 = st.integers(min_value=0, max_value=U64_MAX)
#: Any double at all: times are stored as their eight bytes, not as text.
times = st.floats(allow_nan=True, allow_infinity=True)
#: Any text UTF-8 can carry (non-ASCII included; lone surrogates cannot be).
paths = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)

acks = st.tuples(st.just("ack"), u64, times, paths)
fences = st.tuples(st.just("fence"), u64, times)
mutations = st.tuples(st.sampled_from(["grant", "revoke"]), times, paths)
directives = st.tuples(
    st.just("directive"),
    st.dictionaries(
        st.text(max_size=8),
        st.one_of(
            st.none(), st.booleans(), st.text(max_size=8),
            st.integers(min_value=-(2**53), max_value=2**53),
            st.lists(st.integers(min_value=0, max_value=9), max_size=3),
        ),
        max_size=4,
    ),
)
any_records = st.one_of(acks, fences, mutations, directives)

# A history as the simulator writes one: few distinct subtrees, so grants
# and revokes meet, and small epochs, so fences both advance and go stale.
log_records = st.one_of(
    st.tuples(st.just("ack"), st.integers(min_value=0, max_value=9999),
              st.floats(min_value=0, max_value=1e6), paths),
    st.tuples(st.just("fence"), st.integers(min_value=0, max_value=99),
              st.floats(min_value=0, max_value=1e6)),
    st.tuples(st.sampled_from(["grant", "revoke"]),
              st.floats(min_value=0, max_value=1e6),
              st.sampled_from(["/a", "/b", "/c", "/d/é"])),
)


def bits(record):
    """``record`` with every float replaced by its eight bytes: equality of
    two of these is bit-exact (-0.0 is not 0.0, a NaN equals itself)."""
    return tuple(
        struct.pack("<d", field) if isinstance(field, float) else field
        for field in record
    )


def frame(record):
    return encode_record(pack_record(record))


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    # One directory for every example: a WalStore deletes its own files at
    # init, so each example starts from an empty store.
    return str(tmp_path_factory.mktemp("wal"))


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------
@given(st.lists(payloads, max_size=30))
@settings(max_examples=200, deadline=None)
def test_encode_scan_round_trip(items):
    """Any concatenation of framed payloads scans back exactly."""
    data = b"".join(encode_record(p) for p in items)
    scan = scan_records(data)
    assert list(scan.records) == items
    assert scan.clean_length == len(data)
    assert not scan.truncated


@given(st.lists(any_records, min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_record_round_trip_through_walfile(store_dir, records):
    """Every kind survives ``WalFile.write_frame`` -> ``recover`` bit for bit:
    non-ASCII paths, ops and epochs over the whole u64 range, any double."""
    path = os.path.join(store_dir, "roundtrip.log")
    if os.path.exists(path):
        os.unlink(path)
    wal = WalFile(path)
    try:
        written = sum(wal.write_frame(pack_record(record), True) for record in records)
        assert written == wal.size == wal.durable_offset == os.path.getsize(path)
        recovered, scan = wal.recover(repair=False)
    finally:
        wal.close()
    assert not scan.truncated
    assert [bits(r) for r in recovered] == [bits(r) for r in records]


@given(
    st.sampled_from(["ack", "fence"]),
    st.one_of(st.integers(max_value=-1), st.integers(min_value=U64_MAX + 1)),
    times,
)
@settings(max_examples=100, deadline=None)
def test_int_outside_u64_is_a_value_error_at_encode(kind, number, t):
    record = (kind, number, t, "/p") if kind == "ack" else (kind, number, t)
    with pytest.raises(ValueError, match="does not fit the WAL layout"):
        pack_record(record)


@given(st.lists(payloads, min_size=1, max_size=20), st.data())
@settings(max_examples=200, deadline=None)
def test_any_truncation_recovers_a_record_prefix(items, data):
    """Cutting a valid log anywhere yields a prefix of its records.

    This is the crash-consistency theorem of the format: no matter where
    a torn write stops the file, the scan never invents, reorders, or
    mangles a record — it yields records[:i] for some i, plus a torn
    verdict whenever bytes were left over.
    """
    full = b"".join(encode_record(p) for p in items)
    cut = data.draw(st.integers(min_value=0, max_value=len(full)))
    scan = scan_records(full[:cut])
    n = len(scan.records)
    assert list(scan.records) == items[:n]
    leftover = cut - scan.clean_length
    assert scan.dropped_bytes == leftover
    if leftover:
        assert scan.reason == "torn"
    else:
        assert scan.reason is None


@given(st.lists(payloads, min_size=1, max_size=20), st.data())
@settings(max_examples=200, deadline=None)
def test_any_single_byte_flip_never_misdecodes_a_payload(items, data):
    """Flipping one payload byte is either caught or harmless.

    A flip inside a *payload* must be caught by that record's CRC (and
    stop the scan there); a flip inside a *header* may at worst truncate
    the log earlier — but a record the scan does accept is always byte-
    identical to a true prefix record.
    """
    full = bytearray(b"".join(encode_record(p) for p in items))
    pos = data.draw(st.integers(min_value=0, max_value=len(full) - 1))
    full[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    scan = scan_records(bytes(full))
    for got, want in zip(scan.records, items):
        assert got == want


# ----------------------------------------------------------------------
# Replay semantics
# ----------------------------------------------------------------------
def replay(records):
    state = ServerLogState()
    for record in records:
        state.apply(record)
    return state


def assert_state(state, expected):
    """A ``ServerLogState`` equals a replay."""
    assert state.acked_ops == expected.acked_ops
    assert state.fence_epoch == expected.fence_epoch
    assert state.subtrees == expected.subtrees


@given(st.lists(log_records, max_size=40), st.data())
@settings(max_examples=200, deadline=None)
def test_log_prefix_recovers_state_prefix(records, data):
    """Recovering from a truncated log yields the state of a log prefix.

    The end-to-end durability property: encode a history, cut the bytes
    anywhere (a torn write), scan, replay what survives — the result must
    equal replaying some *prefix* of the original history. Acked ops are
    append-ordered, so the recovered ack list is literally a list prefix;
    fences and subtree sets must match the same prefix's replay.
    """
    full = b"".join(frame(r) for r in records)
    cut = data.draw(st.integers(min_value=0, max_value=len(full)))
    scan = scan_records(full[:cut])
    recovered = replay(unpack_record(p) for p in scan.records)
    assert_state(recovered, replay(records[: len(scan.records)]))
    # And the recovered ack list is a prefix of the full history's.
    full_acks = replay(records).acked_ops
    assert recovered.acked_ops == full_acks[: len(recovered.acked_ops)]


@given(st.lists(log_records, max_size=40), st.data())
@settings(max_examples=100, deadline=None)
def test_snapshot_plus_tail_equals_full_replay(records, data):
    """Snapshotting at any point then replaying the tail loses nothing."""
    split = data.draw(st.integers(min_value=0, max_value=len(records)))
    state = ServerLogState.from_snapshot(replay(records[:split]).to_snapshot())
    for record in records[split:]:
        state.apply(record)
    assert_state(state, replay(records))


@given(st.lists(any_records, max_size=20))
@settings(max_examples=100, deadline=None)
def test_framing_overhead_is_exactly_header_size(records):
    data = b"".join(frame(r) for r in records)
    payload_bytes = sum(len(pack_record(r)) for r in records)
    assert len(data) == payload_bytes + HEADER_SIZE * len(records)


# ----------------------------------------------------------------------
# Damage, end to end through a WalStore's recover_server
# ----------------------------------------------------------------------
def logged_store(store_dir, records):
    """A WalStore whose server 0 logged ``records`` through the store's own
    append surface, plus each record's frame length on disk."""
    store = make_store("wal", directory=store_dir, snapshot_every=0)
    for record in records:
        if record[0] == "ack":
            store.append_ack(0, record[1], record[3], record[2])
        elif record[0] == "fence":
            store.append_fence(0, record[1], record[2])
        else:
            store.append_mutation(0, record[0], record[2], record[1])
    return store, [len(frame(r)) for r in records]


def whole_frames(sizes, length):
    """How many leading frames fit entirely inside ``length`` bytes."""
    count = end = 0
    for size in sizes:
        end += size
        if end > length:
            break
        count += 1
    return count


@given(st.lists(log_records, min_size=1, max_size=30), st.data())
@settings(max_examples=150, deadline=None)
def test_any_truncation_of_a_packed_log_recovers_a_state_prefix(
    store_dir, records, data
):
    """Cut a server's log at any byte: ``recover_server`` returns exactly
    the replay of the frames that survived whole, says so when bytes were
    left over, and leaves a clean file behind."""
    store, sizes = logged_store(store_dir, records)
    try:
        path = os.path.join(store_dir, "wal-0.log")
        assert os.path.getsize(path) == sum(sizes) == store.stats()["wal_bytes"]
        cut = data.draw(st.integers(min_value=0, max_value=sum(sizes)))
        os.truncate(path, cut)
        recovered = store.recover_server(0)
        n = whole_frames(sizes, cut)
        assert recovered.replayed_records == n
        assert_state(recovered.state, replay(records[:n]))
        leftover = cut - sum(sizes[:n])
        assert recovered.dropped == leftover
        assert recovered.truncate_reason == ("torn" if leftover else None)
        assert os.path.getsize(path) == cut - leftover
        assert not store.recover_server(0).truncated
    finally:
        store.close()


@given(st.lists(log_records, min_size=1, max_size=30), st.data())
@settings(max_examples=150, deadline=None)
def test_any_single_byte_flip_in_a_packed_log_recovers_a_state_prefix(
    store_dir, records, data
):
    """Flip any byte — header, kind, body or path: recovery stops at the
    frame that holds it, replays exactly the frames before, never raises."""
    store, sizes = logged_store(store_dir, records)
    try:
        path = os.path.join(store_dir, "wal-0.log")
        pos = data.draw(st.integers(min_value=0, max_value=sum(sizes) - 1))
        mask = data.draw(st.integers(min_value=1, max_value=255))
        with open(path, "r+b") as patcher:
            patcher.seek(pos)
            byte = patcher.read(1)[0]
            patcher.seek(pos)
            patcher.write(bytes([byte ^ mask]))
        recovered = store.recover_server(0)
        n = whole_frames(sizes, pos)  # the frames that end at or before pos
        assert recovered.truncated
        assert recovered.replayed_records == n
        assert_state(recovered.state, replay(records[:n]))
        assert os.path.getsize(path) == sum(sizes[:n])
    finally:
        store.close()


def decodable(junk):
    """The records ``junk`` itself validly holds, as recovery reads them:
    whole checksummed frames up to the first that does not decode."""
    records = []
    for payload in scan_records(junk).records:
        try:
            record = unpack_record(payload)
        except ValueError:
            break
        if record is not None:
            records.append(record)
    return records


@given(
    st.lists(log_records, max_size=20),
    st.one_of(
        st.binary(min_size=1, max_size=40),  # raw bytes
        payloads.map(encode_record),  # a well-framed, checksummed anything
        st.tuples(st.sampled_from([1, 2, 3, 4, 5]), payloads).map(
            lambda kb: encode_record(bytes([kb[0]]) + kb[1])
        ),  # ... that opens with a kind byte this reader knows
    ),
)
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_after_a_valid_log_never_raise(store_dir, records, junk):
    """Whatever follows a valid log, recovery returns and loses nothing that
    came before: the state is the full history's, plus at most what the
    trailing bytes themselves validly decode to (kind 2 and sixteen more
    bytes *is* a fence)."""
    store, sizes = logged_store(store_dir, records)
    try:
        path = os.path.join(store_dir, "wal-0.log")
        with open(path, "ab") as raw:
            raw.write(junk)
        recovered = store.recover_server(0)
        history = records + decodable(junk)
        assert recovered.replayed_records == len(history)
        assert_state(recovered.state, replay(history))
        # Damage is reported, repaired in place, and gone on the next look.
        assert recovered.truncated == (os.path.getsize(path) < sum(sizes) + len(junk))
        assert recovered.dropped == sum(sizes) + len(junk) - os.path.getsize(path)
        again = store.recover_server(0)
        assert not again.truncated
        assert_state(again.state, replay(history))
    finally:
        store.close()


# ----------------------------------------------------------------------
# The store's typed appends write what the generic codec would
# ----------------------------------------------------------------------
#: Any ``str`` at all: text UTF-8 carries, or text with lone surrogates.
any_paths = st.one_of(paths, st.text(
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, blacklist_categories=())
    | st.characters(blacklist_categories=()),
    min_size=1, max_size=20,
))


def store_state(store, server=0):
    """Everything an append may move: the file, the log's own counters, the
    store's counters and the live view."""
    log = store._logs[server]
    return (
        os.path.getsize(log.path), log.size, log.durable_offset,
        log.appends, log.fsyncs, store.stats(), store._state[server].to_snapshot(),
    )


@given(u64, times, any_paths)
@settings(max_examples=300, deadline=None)
def test_append_ack_writes_the_generic_frame(store_dir, op, t, path):
    """``append_ack`` writes exactly ``encode_record(pack_record(ack))``;
    where ``pack_record`` refuses the ack, it raises the same error and
    moves nothing."""
    store = make_store("wal", directory=store_dir, snapshot_every=0)
    try:
        store.append_ack(0, 0, "/first", 0.0)
        log_path, before = store._logs[0].path, store_state(store)
        record = ("ack", op, t, path)
        try:
            expected = frame(record)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                store.append_ack(0, op, path, t)
            assert str(raised.value) == str(exc)
            assert store_state(store) == before
            return
        store.append_ack(0, op, path, t)
        with open(log_path, "rb") as handle:
            assert handle.read()[before[0]:] == expected
    finally:
        store.close()


misfit_acks = st.one_of(
    st.tuples(st.integers(max_value=-1), times, paths),  # below u64
    st.tuples(st.integers(min_value=U64_MAX + 1), times, paths),  # above u64
    st.tuples(u64, st.one_of(st.none(), st.text(max_size=4), st.binary(max_size=4)),
              paths),  # a time that is not a number
    st.tuples(u64, times, st.text(max_size=4).map(lambda text: text + "\ud800")),
)


@given(misfit_acks)
@settings(max_examples=200, deadline=None)
def test_misfit_ack_raises_as_pack_record_and_moves_nothing(store_dir, fields):
    op, t, path = fields
    with pytest.raises(ValueError) as generic:
        pack_record(("ack", op, t, path))
    store = make_store("wal", directory=store_dir, snapshot_every=2)
    try:
        store.append_ack(0, 0, "/first", 0.0)
        before = store_state(store)
        with pytest.raises(ValueError) as typed:
            store.append_ack(0, op, path, t)
        assert str(typed.value) == str(generic.value)
        assert store_state(store) == before
    finally:
        store.close()


class ShortWrites:
    """A raw handle that takes at most ``limit`` bytes per ``write``."""

    def __init__(self, handle, limit):
        self.handle, self.limit = handle, limit

    def write(self, data):
        return self.handle.write(bytes(data[: self.limit]))


@given(st.lists(any_records, min_size=1, max_size=5), st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_short_writes_still_end_in_whole_frames(store_dir, records, limit):
    path = os.path.join(store_dir, "short.log")
    if os.path.exists(path):
        os.unlink(path)
    wal = WalFile(path)
    raw = wal._handle
    wal._handle = ShortWrites(raw, limit)
    try:
        for record in records:
            wal.write_frame(pack_record(record), True)
    finally:
        raw.close()
    with open(path, "rb") as handle:
        data = handle.read()
    assert data == b"".join(frame(r) for r in records)
    assert wal.size == wal.durable_offset == len(data)
    assert (wal.appends, wal.fsyncs) == (len(records), len(records))
