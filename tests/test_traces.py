"""Tests for the trace model and dataset profiles."""

import pytest

from repro.core import NamespaceTree
from repro.traces import (
    DEFAULT_SCALE,
    PAPER_RECORD_COUNTS,
    DatasetProfile,
    OpType,
    Trace,
    TraceRecord,
    all_profiles,
    iter_op_batches,
)
from repro.traces.columns import OP_CODES, OpBatch


def make_trace(n=10):
    records = [
        TraceRecord(timestamp=float(i), op=list(OpType)[i % 3], path=f"/f{i % 4}", client_id=i % 2)
        for i in range(n)
    ]
    return Trace(name="t", records=records)


# ----------------------------------------------------------------------
# OpType / TraceRecord / Trace
# ----------------------------------------------------------------------
def test_optype_query_classification():
    assert OpType.READ.is_query
    assert OpType.WRITE.is_query
    assert not OpType.UPDATE.is_query


def test_trace_len_and_iter():
    trace = make_trace(7)
    assert len(trace) == 7
    assert len(list(trace)) == 7


def test_trace_duration():
    trace = make_trace(5)
    assert trace.duration == pytest.approx(4.0)
    assert Trace(name="empty").duration == 0.0


def test_operation_breakdown_sums_to_one():
    trace = make_trace(30)
    breakdown = trace.operation_breakdown()
    assert sum(breakdown.values()) == pytest.approx(1.0)


def test_operation_breakdown_empty_trace():
    breakdown = Trace(name="empty").operation_breakdown()
    assert all(v == 0.0 for v in breakdown.values())


def test_max_depth():
    records = [TraceRecord(0.0, OpType.READ, "/a/b/c.txt")]
    assert Trace(name="t", records=records).max_depth() == 3


def test_paths_first_appearance_order():
    trace = make_trace(8)
    assert trace.paths() == ["/f0", "/f1", "/f2", "/f3"]


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
    """The two columns, window after window, concatenate back to the trace's
    (op, node) sequence; every window is index-parallel and bounded by
    batch_ops."""
    tree = tiny_dtr_workload.tree
    trace = tiny_dtr_workload.trace
    assert OpBatch.__slots__ == ("op_codes", "nodes")
    flat = []
    batches = list(iter_op_batches(trace, tree, batch_ops=64))
    assert len(batches) == -(-len(trace) // 64)  # order kept across windows
    for batch in batches:
        assert 0 < len(batch) <= 64
        assert len(batch.op_codes) == len(batch.nodes) == len(batch)
        assert [OP_CODES[op] for op in batch.ops()] == list(batch.op_codes)
        flat.extend(zip(batch.ops(), (node.path for node in batch.nodes)))
    assert flat == [(r.op, r.path) for r in trace.records]


def test_iter_op_batches_skips_unresolved():
    tree = NamespaceTree()
    tree.add_path("/known")
    records = [
        TraceRecord(timestamp=0.0, op=OpType.READ, client_id=0, path="/known"),
        TraceRecord(timestamp=1.0, op=OpType.READ, client_id=1, path="/ghost"),
        TraceRecord(timestamp=2.0, op=OpType.UPDATE, client_id=2, path="/known"),
    ]
    batches = list(iter_op_batches(records, tree, batch_ops=2))
    paths = [n.path for b in batches for n in b.nodes]
    assert paths == ["/known", "/known"]
    codes = [c for b in batches for c in b.op_codes]
    assert codes == [OP_CODES[OpType.READ], OP_CODES[OpType.UPDATE]]


def test_iter_op_batches_rejects_bad_window(tiny_dtr_workload):
    with pytest.raises(ValueError):
        next(iter_op_batches(
            tiny_dtr_workload.trace.records, tiny_dtr_workload.tree, 0
        ))


# ----------------------------------------------------------------------
# DatasetProfile
# ----------------------------------------------------------------------
def test_three_paper_profiles():
    dtr, lmbe, ra = all_profiles(num_nodes=2000, scale=1e-5)
    assert (dtr.name, lmbe.name, ra.name) == ("DTR", "LMBE", "RA")
    assert (dtr.max_depth, lmbe.max_depth, ra.max_depth) == (49, 9, 13)


def test_profile_fractions_sum_to_one():
    for profile in all_profiles(2000, 1e-5):
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
