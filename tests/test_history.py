"""History audit: synthetic violating histories + clean end-to-end runs.

Each check of :func:`repro.chaos.history.audit_history` gets a minimal
synthetic history that violates exactly it, plus clean counterparts that
must not trip neighbouring checks (the audit's value is zero false
positives under benign concurrency). The end-to-end tests then run real
fault schedules through the simulator with recording on and assert the
audit stays silent.
"""

import dataclasses
import gc
import hashlib
import io
import json
import tracemalloc

import pytest

from repro.chaos import CorpusCase, OpHistory, audit_history, run_case
from repro.simulation import FaultPlan
from repro.traces import DatasetProfile, TraceGenerator
from tests.history_sink import HistorySink


def _audit(history, **kwargs):
    return audit_history(history, **kwargs)


# ----------------------------------------------------------------------
# Recording surface
# ----------------------------------------------------------------------
def test_counts_rollup_is_stable_and_complete():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=2, epoch=1)
    h.invoke(1, 0, 2.0)
    h.fail(1, 0, 3.0, attempts=4)
    h.invoke(2, 1, 2.5)
    h.indeterminate(2, 1, 4.0, attempts=8)
    h.wipe(2, 5.0)
    assert h.counts() == {
        "events": 7, "invoked": 3, "ok": 1, "failed": 1,
        "indeterminate": 1, "wipes": 1,
    }


def test_empty_history_audits_clean():
    assert _audit(OpHistory(), final_epoch=1) == []


def test_clean_history_audits_clean():
    h = OpHistory()
    for op in range(5):
        h.invoke(op, op % 2, float(op))
        h.ok(op, op % 2, op + 0.5, server=op % 3, epoch=1)
    assert _audit(
        h, final_epoch=1,
        ledgers={0: {0, 3}, 1: {1, 4}, 2: {2}}, durable_ledgers=True,
    ) == []


# ----------------------------------------------------------------------
# 1. Structure
# ----------------------------------------------------------------------
def test_double_invoke_is_flagged():
    h = OpHistory()
    h.invoke(7, 0, 0.0)
    h.invoke(7, 0, 1.0)
    h.ok(7, 0, 2.0, server=0, epoch=1)
    assert any("invoked more than once" in v for v in _audit(h))


def test_terminal_without_invoke_is_flagged():
    h = OpHistory()
    h.ok(3, 0, 1.0, server=0, epoch=1)
    assert any("completed without an invoke" in v for v in _audit(h))


# ----------------------------------------------------------------------
# 2. Exactly-once acks
# ----------------------------------------------------------------------
def test_double_ack_is_flagged():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=0, epoch=1)
    h.ok(0, 0, 2.0, server=1, epoch=1)
    violations = _audit(h)
    assert any("exactly-once broken" in v for v in violations)


def test_ack_then_fail_is_flagged():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=0, epoch=1)
    h.fail(0, 0, 2.0, attempts=3)
    assert any("exactly-once broken" in v for v in _audit(h))


def test_ack_then_indeterminate_is_flagged():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.indeterminate(0, 0, 1.0, attempts=8)
    h.ok(0, 0, 2.0, server=0, epoch=1)
    assert any("exactly-once broken" in v for v in _audit(h))


# ----------------------------------------------------------------------
# 3. Completeness
# ----------------------------------------------------------------------
def test_hanging_invoke_is_flagged():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=0, epoch=1)
    h.invoke(1, 0, 2.0)
    assert any("never reached a terminal" in v for v in _audit(h))


def test_indeterminate_satisfies_completeness():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.indeterminate(0, 0, 1.0, attempts=8)
    assert _audit(h) == []


# ----------------------------------------------------------------------
# 4. Session alternation, per client id >= 0
# ----------------------------------------------------------------------
def _overlapping(client):
    h = OpHistory()
    h.invoke(0, client, 0.0)
    h.invoke(1, client, 0.5)     # second op while the first is open
    h.ok(0, client, 1.0, server=0, epoch=1)
    h.ok(1, client, 1.5, server=0, epoch=1)
    return h


def test_overlapping_ops_on_one_client_session_are_flagged():
    violations = _audit(_overlapping(0))
    assert violations == [
        "history: 1 client sessions broke invoke/complete alternation "
        "(clients [0]) — session order violated"
    ]


def test_client_minus_one_history_is_session_free():
    # A transport without client sessions records client -1; its ops may
    # legitimately overlap.
    assert _audit(_overlapping(-1)) == []


def test_interleaved_clients_are_fine_closed_loop():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.invoke(1, 1, 0.1)          # a different session: no overlap per client
    h.ok(1, 1, 0.2, server=0, epoch=1)
    h.ok(0, 0, 0.3, server=1, epoch=1)
    assert _audit(h) == []


# ----------------------------------------------------------------------
# 5. Epoch-fence safety
# ----------------------------------------------------------------------
def test_epoch_regression_on_one_server_is_flagged():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=2, epoch=3)
    h.invoke(1, 0, 2.0)
    h.ok(1, 0, 3.0, server=2, epoch=2)   # same server, fence went backwards
    assert any("fence epochs regressed" in v for v in _audit(h))


def test_epoch_differences_across_servers_are_benign():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=0, epoch=3)
    h.invoke(1, 0, 2.0)
    h.ok(1, 0, 3.0, server=1, epoch=1)   # other server still at an old fence
    assert _audit(h, final_epoch=3) == []


def test_wipe_resets_the_epoch_floor():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=0, epoch=3)
    h.wipe(0, 2.0)
    h.invoke(1, 0, 3.0)
    h.ok(1, 0, 4.0, server=0, epoch=1)   # fresh process, rebuilt fence: ok
    assert _audit(h) == []


def test_ack_ahead_of_final_epoch_is_flagged():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=0, epoch=9)
    assert any(
        "ahead of the final monitor epoch" in v
        for v in _audit(h, final_epoch=2)
    )


# ----------------------------------------------------------------------
# 6. No lost acked mutation
# ----------------------------------------------------------------------
def test_acked_op_missing_from_ledger_is_flagged():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=0, epoch=1)
    violations = _audit(h, ledgers={0: set()}, durable_ledgers=True)
    assert any("acked mutation lost" in v for v in violations)


def test_volatile_ledger_wiped_after_ack_is_excused():
    h = OpHistory()
    h.invoke(0, 0, 0.0)
    h.ok(0, 0, 1.0, server=0, epoch=1)
    h.wipe(0, 2.0)
    assert _audit(h, ledgers={0: set()}, durable_ledgers=False) == []
    # A durable store has no such excuse: recovery must replay the ack.
    assert any(
        "acked mutation lost" in v
        for v in _audit(h, ledgers={0: set()}, durable_ledgers=True)
    )


def test_wipe_before_ack_does_not_excuse_volatile_loss():
    h = OpHistory()
    h.wipe(0, 0.5)
    h.invoke(0, 0, 1.0)
    h.ok(0, 0, 2.0, server=0, epoch=1)   # acked after the wipe, then lost
    assert any(
        "acked mutation lost" in v
        for v in _audit(h, ledgers={0: set()}, durable_ledgers=False)
    )


# ----------------------------------------------------------------------
# End to end: real runs audit clean
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    return TraceGenerator(
        DatasetProfile.lmbe(num_nodes=900, scale=5e-5), num_clients=16
    ).generate()


def _slice(workload, ops):
    return dataclasses.replace(workload, trace=workload.trace.slice(0, ops))


def _recipe(seed, faults, store="memory"):
    return CorpusCase(
        scheme="d2-tree", trace="lmbe", nodes=900, scale=5e-5, seed=seed,
        num_servers=5, num_monitors=3, faults=faults, ops=400, store=store,
    )


def test_sim_history_audits_clean_under_faults():
    case = run_case(_recipe(11, [
        "crash:1@ops=60", "recover:1@ops=200",
        "loss:2@ops=80:p0.4", "recover:2@ops=300",
    ]))
    assert case.violations == []
    assert case.history["invoked"] == case.operations + case.failed_operations
    assert case.history["ok"] == case.operations


def test_sim_history_audits_clean_across_kill9(tmp_path):
    case = run_case(
        _recipe(12, ["kill9:2@ops=100", "torn_write:3@ops=220"], store="wal"),
        str(tmp_path),
    )
    assert case.violations == []
    assert case.history["wipes"] >= 1
    assert case.history["ok"] == case.operations


def test_history_and_telemetry_op_events_are_one_log(workload):
    """A chaos-clocked run with both a history and telemetry: telemetry
    listens to the history, so the invoke ids a keep-everything sink heard
    are the op-event ids, and retries appear once in each."""
    from repro import registry
    from repro.chaos import (
        CHAOS_HEARTBEAT_INTERVAL, CHAOS_HEARTBEAT_TIMEOUT, CHAOS_LEASE_TIMEOUT,
    )
    from repro.obs import Telemetry
    from repro.simulation import SimulationConfig
    from repro.simulation.runner import ClusterSimulator

    telemetry = Telemetry()
    sim = ClusterSimulator(
        registry.create("d2-tree"), _slice(workload, 400), 5,
        SimulationConfig(
            seed=11, num_monitors=3,
            fault_plan=FaultPlan.parse([
                "crash:1@ops=60", "recover:1@ops=200",
                "loss:2@ops=80:p0.4", "recover:2@ops=300",
            ]),
            heartbeat_interval=CHAOS_HEARTBEAT_INTERVAL,
            heartbeat_timeout=CHAOS_HEARTBEAT_TIMEOUT,
            monitor_lease_timeout=CHAOS_LEASE_TIMEOUT,
        ),
        telemetry=telemetry,
    )
    history = sim.control.history = OpHistory()
    sink = HistorySink()
    history.listen(sink)
    try:
        sim.run()
    finally:
        sim.close()
    assert telemetry.ops is history
    events = [r for r in telemetry.iter_records() if r["kind"] == "event"]

    def ids(records, kind):
        return sorted(r.op_id for r in records if r.kind == kind)

    def event_ids(name):
        return sorted(e["op"] for e in events if e["event"] == name)

    assert ids(sink.events, "invoke") == event_ids("op_start")
    assert ids(sink.events, "ok") == event_ids("op_complete")
    assert ids(sink.events, "retry") == event_ids("op_retry")
    assert event_ids("op_retry")
    assert _audit(history) == []


# ----------------------------------------------------------------------
# The verdict strings, pinned: one hand-built history per case
# ----------------------------------------------------------------------
def _build(steps):
    h = OpHistory()
    for name, *args in steps:
        kwargs = args.pop() if args and isinstance(args[-1], dict) else {}
        getattr(h, name)(*args, **kwargs)
    return h


_OK = {"server": 0, "epoch": 1}

VERDICTS = [
    ("double invoke, one session", [
        ("invoke", 7, 0, 0.0), ("invoke", 7, 0, 1.0), ("ok", 7, 0, 2.0, _OK),
    ], {}, [
        "history: 1 ops invoked more than once (e.g. ops [7])",
        "history: 1 client sessions broke invoke/complete alternation "
        "(clients [0]) — session order violated",
    ]),
    ("terminals without invokes", [
        ("ok", 3, -1, 1.0, _OK), ("fail", 9, -1, 1.5, {"attempts": 2}),
        ("indeterminate", 5, -1, 2.0, 4), ("ok", 1, -1, 2.5, _OK),
    ], {}, [
        "history: 4 ops completed without an invoke (e.g. ops [1, 3, 5])",
    ]),
    ("a terminal appended before its invoke, sessionless", [
        ("ok", 3, -1, 1.0, _OK), ("invoke", 3, -1, 0.5),
    ], {}, []),
    ("a terminal appended before its invoke, one session", [
        ("ok", 3, 2, 1.0, _OK), ("invoke", 3, 2, 0.5),
    ], {}, [
        "history: 1 client sessions broke invoke/complete alternation "
        "(clients [2]) — session order violated",
    ]),
    ("duplicate terminals of mixed kinds", [
        ("invoke", 4, -1, 0.0), ("ok", 4, -1, 1.0, _OK),
        ("fail", 4, -1, 2.0, {"attempts": 3}),
        ("invoke", 2, -1, 0.0), ("indeterminate", 2, -1, 1.0, 8),
        ("ok", 2, -1, 2.0, _OK), ("indeterminate", 4, -1, 3.0, 9),
        ("invoke", 6, -1, 0.0), ("fail", 6, -1, 1.0, {}),
        ("fail", 6, -1, 2.0, {}),
    ], {}, [
        "history: 3 ops with multiple terminal events "
        "(e.g. op 2: ['indeterminate', 'ok']) — exactly-once broken",
    ]),
    ("hanging invokes", [
        ("invoke", op, -1, float(op)) for op in (8, 1, 5, 3, 0)
    ] + [("ok", 1, -1, 9.0, _OK)], {}, [
        "history: 4 invoked ops never reached a terminal (e.g. ops [0, 3, 5])",
    ]),
    ("four sessions broken four ways", [
        ("invoke", 0, 5, 0.0), ("invoke", 1, 5, 0.1),
        ("invoke", 2, 1, 0.0), ("ok", 3, 1, 0.1, _OK),
        ("invoke", 4, 9, 0.0), ("fail", 4, 9, 0.1, {}), ("fail", 4, 9, 0.2, {}),
        ("invoke", 5, 3, 0.0), ("ok", 5, 3, 0.1, _OK), ("invoke", 6, 3, 0.2),
        ("ok", 6, 3, 0.3, _OK), ("invoke", 7, 3, 0.4), ("invoke", 8, 3, 0.5),
        ("ok", 0, 5, 1.0, _OK), ("ok", 1, 5, 1.0, _OK),
        ("ok", 2, 1, 1.0, _OK), ("ok", 7, 3, 1.0, _OK), ("ok", 8, 3, 1.0, _OK),
    ], {}, [
        "history: 1 ops completed without an invoke (e.g. ops [3])",
        "history: 1 ops with multiple terminal events "
        "(e.g. op 4: ['fail']) — exactly-once broken",
        "history: 4 client sessions broke invoke/complete alternation "
        "(clients [1, 3, 5]) — session order violated",
    ]),
    ("fence regressions, first three in append order, wipes reset", [
        ("invoke", op, -1, 0.0) for op in range(8)
    ] + [
        ("ok", 0, -1, 1.0, {"server": 2, "epoch": 5}),
        ("ok", 1, -1, 1.1, {"server": 2, "epoch": 4}),
        ("ok", 2, -1, 1.2, {"server": 1, "epoch": 3}),
        ("wipe", 1, 1.3),
        ("ok", 3, -1, 1.4, {"server": 1, "epoch": 1}),
        ("ok", 4, -1, 1.5, {"server": 2, "epoch": 2}),
        ("ok", 5, -1, 1.6, {"server": 1, "epoch": 0}),
        ("ok", 6, -1, 1.7, {"server": 2, "epoch": 1}),
        ("ok", 7, -1, 1.8, {"server": 0, "epoch": 1}),
    ], {"final_epoch": 5}, [
        "history: ack fence epochs regressed without a wipe (e.g. "
        "['op 1@server 2: 5->4', 'op 4@server 2: 5->2', "
        "'op 5@server 1: 1->0'])",
    ]),
    ("acks fenced ahead of final_epoch", [
        ("invoke", op, -1, 0.0) for op in range(9)
    ] + [
        ("ok", 0, -1, 1.0, {"server": 0, "epoch": 2}),
        ("ok", 1, -1, 1.0, {"server": 1, "epoch": 6}),
        ("ok", 2, -1, 1.0, {"server": 2, "epoch": 4}),
        ("ok", 3, -1, 1.0, {"server": 3, "epoch": 4}),
        ("ok", 4, -1, 1.0, {"server": 4, "epoch": 4}),
        ("ok", 5, -1, 1.0, {"server": 5, "epoch": 4}),
        ("ok", 6, -1, 1.0, {"server": 6, "epoch": 5}),
        ("ok", 7, -1, 1.0, {"server": 7, "epoch": 3}),
        ("ok", 8, -1, 1.0, {"server": 8, "epoch": 7}),
    ], {"final_epoch": 4}, [
        "history: acks fenced ahead of the final monitor epoch 4 (e.g. "
        "['op 1@server 1: epoch 6', 'op 6@server 6: epoch 5', "
        "'op 8@server 8: epoch 7'])",
    ]),
    ("acks fenced ahead of a lower final_epoch", [
        ("invoke", op, -1, 0.0) for op in range(5)
    ] + [
        ("ok", 0, -1, 1.0, {"server": 0, "epoch": 2}),
        ("ok", 1, -1, 1.0, {"server": 1, "epoch": 3}),
        ("ok", 2, -1, 1.0, {"server": 2, "epoch": 3}),
        ("ok", 3, -1, 1.0, {"server": 3, "epoch": 3}),
        ("ok", 4, -1, 1.0, {"server": 4, "epoch": 3}),
    ], {"final_epoch": 1}, [
        "history: acks fenced ahead of the final monitor epoch 1 (e.g. "
        "['op 0@server 0: epoch 2', 'op 1@server 1: epoch 3', "
        "'op 2@server 2: epoch 3'])",
    ]),
    ("lost acks against durable ledgers, a double ack counted twice", [
        ("invoke", op, -1, 0.0) for op in range(5)
    ] + [
        ("ok", 4, -1, 1.0, {"server": 0, "epoch": 1}),
        ("ok", 0, -1, 1.0, {"server": 0, "epoch": 1}),
        ("ok", 1, -1, 1.0, {"server": 1, "epoch": 1}),
        ("ok", 0, -1, 1.1, {"server": 1, "epoch": 1}),
        ("ok", 2, -1, 1.2, {"server": 2, "epoch": 1}),
        ("wipe", 2, 5.0),
        ("ok", 3, -1, 1.3, {"server": 3, "epoch": 1}),
    ], {"ledgers": {0: {4}, 1: set(), 2: set()}, "durable_ledgers": True}, [
        "history: 1 ops with multiple terminal events "
        "(e.g. op 0: ['ok']) — exactly-once broken",
        "history: 5 acked ops missing from the acking server's ledger "
        "(e.g. ops [0, 0, 1]) — acked mutation lost",
    ]),
    ("the volatile-ledger wipe excuse", [
        ("invoke", 0, -1, 1.0), ("invoke", 1, -1, 2.0), ("invoke", 2, -1, 3.0),
        ("ok", 0, -1, 4.0, _OK), ("ok", 1, -1, 4.0, _OK),
        ("ok", 2, -1, 4.0, _OK),
        ("wipe", 0, 2.0), ("wipe", 0, 0.5),
        ("invoke", 3, -1, 5.0), ("ok", 3, -1, 6.0, {"server": 1, "epoch": 1}),
        ("wipe", 1, 5.0),
        ("ok", 4, -1, 6.5, {"server": 1, "epoch": 1}), ("invoke", 4, -1, 5.5),
        ("ok", 5, -1, 4.5, {"server": 1, "epoch": 1}),
    ], {"ledgers": {0: set()}, "durable_ledgers": False}, [
        "history: 1 ops completed without an invoke (e.g. ops [5])",
        "history: 2 acked ops missing from the acking server's ledger "
        "(e.g. ops [2, 4]) — acked mutation lost",
    ]),
    ("all six checks at once, in order", [
        ("invoke", 0, 0, 0.0), ("invoke", 0, 0, 0.1),
        ("ok", 0, 0, 1.0, {"server": 0, "epoch": 3}),
        ("ok", 0, 0, 1.1, {"server": 0, "epoch": 2}),
        ("ok", 1, 1, 1.2, {"server": 1, "epoch": 1}),
        ("invoke", 2, 2, 1.3),
    ], {"final_epoch": 2, "ledgers": {0: {0}}, "durable_ledgers": True}, [
        "history: 1 ops invoked more than once (e.g. ops [0])",
        "history: 1 ops completed without an invoke (e.g. ops [1])",
        "history: 1 ops with multiple terminal events "
        "(e.g. op 0: ['ok']) — exactly-once broken",
        "history: 1 invoked ops never reached a terminal (e.g. ops [2])",
        "history: 2 client sessions broke invoke/complete alternation "
        "(clients [0, 1]) — session order violated",
        "history: ack fence epochs regressed without a wipe "
        "(e.g. ['op 0@server 0: 3->2'])",
        "history: acks fenced ahead of the final monitor epoch 2 "
        "(e.g. ['op 0@server 0: epoch 3'])",
        "history: 1 acked ops missing from the acking server's ledger "
        "(e.g. ops [1]) — acked mutation lost",
    ]),
]


@pytest.mark.parametrize(
    "steps, kwargs, expected",
    [case[1:] for case in VERDICTS],
    ids=[case[0] for case in VERDICTS],
)
def test_audit_verdict_strings_are_pinned(steps, kwargs, expected):
    assert _audit(_build(steps), **kwargs) == expected


# ----------------------------------------------------------------------
# One seeded faulted case, pinned by digest: the chaos report and the
# telemetry JSONL of the same run
# ----------------------------------------------------------------------
_PINNED_CASE = CorpusCase(
    scheme="d2-tree", trace="lmbe", nodes=900, scale=5e-5, seed=11,
    num_servers=5, num_monitors=3, ops=400, faults=[
        "crash:1@ops=60", "recover:1@ops=200",
        "loss:2@ops=80:p0.4", "recover:2@ops=300",
    ],
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_faulted_chaos_report_is_pinned():
    """The audited case's report: every key `hunt --json` prints for it
    before the hunt's own (`replay`, `shrink`, ...)."""
    report = run_case(_PINNED_CASE).to_dict()
    assert _sha(json.dumps(report, sort_keys=True)) == (
        "4969af54bfc39b8482ef117270011c88b990c523c9b36fbc7df89bfbecd1864a"
    )


def test_faulted_run_telemetry_is_pinned():
    from repro import registry
    from repro.obs import Telemetry, prometheus_text, write_jsonl
    from repro.simulation.runner import ClusterSimulator

    telemetry = Telemetry()
    case = _PINNED_CASE
    sim = ClusterSimulator(
        registry.create(case.scheme), case.workload(), case.num_servers,
        case.sim_config(trace_sample=5), telemetry=telemetry,
    )
    sim.control.history = OpHistory()
    try:
        result = sim.run()
    finally:
        sim.close()
    out = io.StringIO()
    write_jsonl(telemetry, out, summary=result.to_dict())
    assert _sha(out.getvalue()) == (
        "74b4bbefbd11407f35a611f8a65d37b461a244bb508a862839fd1cd723f3590a"
    )
    assert _sha(prometheus_text(telemetry.registry)) == (
        "ecaf037a68a40b88d740fddc4b6fadbbc9c8e4d1203a1d3a00369ae762ee8aba"
    )


# ----------------------------------------------------------------------
# The fold's bound: what a recorded run retains per op
# ----------------------------------------------------------------------
def _retained_by_the_log(ops):
    """Bytes the op log of a chaos-clocked, faulted ``run()`` of the first
    ``ops`` ops still holds afterwards: what was allocated under one of its
    calls and is still live."""
    from repro import registry
    from repro.chaos import history
    from repro.simulation.runner import ClusterSimulator

    case = CorpusCase(
        scheme="d2-tree", trace="dtr", nodes=2000, scale=3e-4, seed=7,
        num_servers=5, num_monitors=3, ops=ops,
        faults=["crash:1@ops=500", "recover:1@ops=1500"],
    )
    sim = ClusterSimulator(
        registry.create(case.scheme), case.workload(), case.num_servers,
        case.sim_config(),
    )
    sim.control.history = OpHistory()
    try:
        tracemalloc.start(2)
        try:
            sim.run()
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    finally:
        sim.close()
    mine = tracemalloc.Filter(True, history.__file__, all_frames=True)
    return sum(s.size for s in snapshot.filter_traces([mine]).statistics("filename"))


def op_log_bytes_per_op(short=2_000, long=8_000):
    """Bytes per op the op log retains, from the growth between a run of
    ``short`` and one of ``long`` ops (CI prints it beside the serve
    rows)."""
    grown = _retained_by_the_log(long) - _retained_by_the_log(short)
    return grown / (long - short)


def test_a_recorded_run_retains_at_most_15_bytes_per_op():
    """One state byte, the invoke time and the acking server's copy of the
    op id: ~13.6 B per op, where a record list held ~375."""
    assert op_log_bytes_per_op() <= 15
