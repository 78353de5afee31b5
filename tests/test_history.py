"""History audit: synthetic violating histories + clean end-to-end runs.

Each check of :func:`repro.chaos.history.audit_history` gets a minimal
synthetic history that violates exactly it, plus clean counterparts that
must not trip neighbouring checks (the audit's value is zero false
positives under benign concurrency). The end-to-end tests then run real
fault schedules through the simulator with recording on and assert the
audit stays silent.
"""

import dataclasses

import pytest

from repro.chaos import CorpusCase, OpHistory, audit_history, run_case
from repro.simulation import FaultPlan
from repro.traces import DatasetProfile, TraceGenerator


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
    assert len(h) == 7


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
    """A chaos-clocked run with both a history and telemetry: the op events
    are derived from the history itself, so invoke ids are the op-event
    ids, and retries appear once in each."""
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

    assert ids(history.events, "invoke") == event_ids("op_start")
    assert ids(history.events, "ok") == event_ids("op_complete")
    assert ids(history.events, "retry") == event_ids("op_retry")
    assert event_ids("op_retry")
    assert _audit(history) == []
