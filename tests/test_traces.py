"""Tests for the trace model and dataset profiles."""

import copy
import dataclasses
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NamespaceTree
from repro.simulation.runner import _round_counts
from repro.traces import (
    DEFAULT_SCALE,
    PAPER_RECORD_COUNTS,
    DatasetProfile,
    OpType,
    Trace,
    TraceRecord,
    dumps_trace,
    iter_op_batches,
    loads_trace,
)
from repro.traces.columns import OP_CODES, OpBatch
from repro.traces.stats import analyze_trace
from tests.conftest import build_sample_tree, trace_of


def make_trace(n=10):
    records = [
        TraceRecord(timestamp=float(i), op=list(OpType)[i % 3], path=f"/f{i % 4}", client_id=i % 2)
        for i in range(n)
    ]
    return trace_of("t", records)


# ----------------------------------------------------------------------
# OpType / TraceRecord / Trace
# ----------------------------------------------------------------------


def test_trace_record_keeps_its_dataclass_contract():
    record = TraceRecord(1.5, OpType.UPDATE, "/a/b", 3)
    twin = TraceRecord(timestamp=1.5, op=OpType.UPDATE, path="/a/b", client_id=3)
    assert record == twin and hash(record) == hash(twin) and len({record, twin}) == 1
    assert record != TraceRecord(1.5, OpType.READ, "/a/b", 3)
    assert TraceRecord(0.0, OpType.READ, "/a").client_id == 0
    assert dataclasses.replace(record, op=OpType.CREATE) == TraceRecord(1.5, OpType.CREATE, "/a/b", 3)
    assert [f.name for f in dataclasses.fields(record)] == ["timestamp", "op", "path", "client_id"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.path = "/c"
    # Slotted: no __dict__, so no attribute beyond the four fields. (CPython's
    # frozen-slots __setattr__ raises TypeError, not FrozenInstanceError,
    # for a name that is not a field.)
    assert not hasattr(record, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        record.note = "x"
    with pytest.raises(AttributeError):
        object.__setattr__(record, "note", "x")
    clones = [copy.copy(record), copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert type(clone) is TraceRecord and clone == record


def test_trace_len_and_iter():
    trace = make_trace(7)
    assert len(trace) == 7
    assert len(list(trace)) == 7


def test_operation_breakdown_sums_to_one():
    trace = make_trace(30)
    breakdown = trace.operation_breakdown()
    assert sum(breakdown.values()) == pytest.approx(1.0)


def test_operation_breakdown_empty_trace():
    breakdown = Trace(name="empty").operation_breakdown()
    assert all(v == 0.0 for v in breakdown.values())


def test_max_depth():
    records = [TraceRecord(0.0, OpType.READ, "/a/b/c.txt")]
    assert analyze_trace(trace_of("t", records)).max_depth == 3


def test_paths_first_appearance_order():
    trace = make_trace(8)
    assert trace.paths == ["/f0", "/f1", "/f2", "/f3"]


def test_slice():
    trace = make_trace(10)
    piece = trace.slice(2, 5)
    assert len(piece) == 3
    assert piece.records[0].timestamp == 2.0


def test_rounds_partition_all_records():
    trace = make_trace(10)
    rounds = trace.rounds(3)
    assert sum(len(r) for r in rounds) == 10
    assert len(rounds) == 3


def test_rounds_validation():
    with pytest.raises(ValueError):
        make_trace(5).rounds(0)


# ----------------------------------------------------------------------
# OpBatch windows (the form the replay loop consumes a trace in)
# ----------------------------------------------------------------------
def test_iter_op_batches_roundtrip(tiny_dtr_workload):
    """The three columns, window after window, concatenate back to the
    trace's (op, node, path) sequence; every window is index-parallel and
    bounded by batch_ops."""
    tree = tiny_dtr_workload.tree
    trace = tiny_dtr_workload.trace
    assert OpBatch.__slots__ == ("op_codes", "nodes", "path_ids")
    flat = []
    batches = list(iter_op_batches(trace, tree, batch_ops=64))
    assert len(batches) == -(-len(trace) // 64)  # order kept across windows
    for batch in batches:
        assert 0 < len(batch.op_codes) <= 64
        assert len(batch.op_codes) == len(batch.nodes) == len(batch.path_ids)
        assert [OP_CODES[op] for op in batch.ops()] == list(batch.op_codes)
        assert tree.paths(batch.nodes) == [trace.paths[pid] for pid in batch.path_ids]
        flat.extend(zip(batch.ops(), tree.paths(batch.nodes)))
    assert flat == [(r.op, r.path) for r in trace.records]


def test_iter_op_batches_skips_unresolved():
    tree = NamespaceTree()
    tree.add_path("/known")
    records = [
        TraceRecord(timestamp=0.0, op=OpType.READ, client_id=0, path="/known"),
        TraceRecord(timestamp=1.0, op=OpType.READ, client_id=1, path="/ghost"),
        TraceRecord(timestamp=2.0, op=OpType.UPDATE, client_id=2, path="/known"),
    ]
    batches = list(iter_op_batches(trace_of("t", records), tree, batch_ops=2))
    paths = [tree.path(n) for b in batches for n in b.nodes]
    assert paths == ["/known", "/known"]
    assert [pid for b in batches for pid in b.path_ids] == [0, 0]
    codes = [c for b in batches for c in b.op_codes]
    assert codes == [OP_CODES[OpType.READ], OP_CODES[OpType.UPDATE]]


def test_iter_op_batches_rejects_bad_window(tiny_dtr_workload):
    with pytest.raises(ValueError):
        next(iter_op_batches(
            tiny_dtr_workload.trace, tiny_dtr_workload.tree, 0
        ))


# ----------------------------------------------------------------------
# The columns against a per-record reference
# ----------------------------------------------------------------------
_SAMPLE_TREE = build_sample_tree()
#: Paths of the sample tree, and paths it lacks.
_KNOWN = ["/", "/home", "/home/a/c.txt", "/home/b/g.pdf", "/var/e/j.doc", "/usr/f"]
_GHOSTS = ["/ghost", "/home/a/ghost.txt"]
_rows = st.lists(
    st.builds(
        TraceRecord,
        # Microsecond grid: what a trace file keeps exactly.
        timestamp=st.integers(0, 10**11).map(lambda n: n / 1e6),
        op=st.sampled_from(list(OpType)),
        path=st.sampled_from(_KNOWN + _GHOSTS),
        client_id=st.integers(0, 2**31 - 1),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    records=_rows,
    start=st.integers(-45, 45),
    stop=st.none() | st.integers(-45, 45),
    count=st.integers(1, 6),
    batch_ops=st.integers(1, 9),
)
def test_columns_match_a_per_record_reference(records, start, stop, count, batch_ops):
    trace = trace_of("t", records, "d")
    assert trace.records == list(trace) == records
    assert trace.paths == list(dict.fromkeys(r.path for r in records))

    piece = trace.slice(start, stop)
    assert piece.records == records[start:stop]
    assert piece == trace_of(piece.name, records[start:stop], "d")
    bounds = [round(i * len(records) / count) for i in range(count + 1)]
    assert [r.records for r in trace.rounds(count)] == [
        records[bounds[i]:bounds[i + 1]] for i in range(count)
    ]
    assert loads_trace(dumps_trace(trace)) == trace

    lookup = _SAMPLE_TREE.lookup
    resolved = [(r.op, lookup(r.path)) for r in records if lookup(r.path) is not None]
    decoded = [
        pair
        for batch in iter_op_batches(trace, _SAMPLE_TREE, batch_ops)
        for pair in zip(batch.ops(), batch.nodes)
    ]
    assert decoded == resolved
    counts = _round_counts(trace, _SAMPLE_TREE)
    assert list(counts.items()) == list(Counter(node for _, node in resolved).items())


# ----------------------------------------------------------------------
# DatasetProfile
# ----------------------------------------------------------------------
def paper_profiles():
    """The three paper traces in Table I order."""
    makers = (DatasetProfile.dtr, DatasetProfile.lmbe, DatasetProfile.ra)
    return tuple(make(2000, 1e-5) for make in makers)


def test_three_paper_profiles():
    dtr, lmbe, ra = paper_profiles()
    assert (dtr.name, lmbe.name, ra.name) == ("DTR", "LMBE", "RA")
    assert (dtr.max_depth, lmbe.max_depth, ra.max_depth) == (49, 9, 13)


def test_profile_fractions_sum_to_one():
    for profile in paper_profiles():
        total = profile.read_fraction + profile.write_fraction + profile.update_fraction
        assert total == pytest.approx(1.0, abs=1e-6)


def test_profile_record_counts_scale():
    dtr = DatasetProfile.dtr(num_nodes=2000, scale=1e-4)
    assert dtr.num_operations == round(PAPER_RECORD_COUNTS["DTR"] * 1e-4)


def test_profile_min_operations_floor():
    dtr = DatasetProfile.dtr(num_nodes=2000, scale=1e-9)
    assert dtr.num_operations == 1000


def test_profile_validation_fraction_sum():
    with pytest.raises(ValueError):
        DatasetProfile(
            name="bad", description="", num_nodes=100, max_depth=5,
            mean_branching=2, num_operations=10, read_fraction=0.5,
            write_fraction=0.2, update_fraction=0.2, hot_fraction=0.01,
            hot_access_fraction=0.5, zipf_exponent=1.0, seed=1,
        )


def test_profile_validation_depth_room():
    with pytest.raises(ValueError):
        DatasetProfile(
            name="bad", description="", num_nodes=5, max_depth=10,
            mean_branching=2, num_operations=10, read_fraction=0.5,
            write_fraction=0.3, update_fraction=0.2, hot_fraction=0.01,
            hot_access_fraction=0.5, zipf_exponent=1.0, seed=1,
        )


def test_profile_scaled_copy():
    dtr = DatasetProfile.dtr(num_nodes=2000, scale=1e-5)
    small = dtr.scaled(num_nodes=500, num_operations=100)
    assert small.num_nodes == 500
    assert small.num_operations == 100
    assert small.name == dtr.name
    assert dtr.num_nodes == 2000  # original untouched (frozen)


def test_profiles_hashable_for_caching():
    a = DatasetProfile.dtr(2000, 1e-5)
    b = DatasetProfile.dtr(2000, 1e-5)
    assert a == b
    assert hash(a) == hash(b)


def test_default_scale_value():
    assert DEFAULT_SCALE == pytest.approx(1e-3)
