"""Fault-injection subsystem: plans, detection, retry accounting, recovery."""

import dataclasses

import pytest

from repro.baselines import (
    AngleCutScheme,
    DropScheme,
    DynamicSubtreeScheme,
    HashScheme,
    StaticSubtreeScheme,
)
from repro.cluster import MonitorGroup, fail_server, rejoin_server
from repro.cluster.messages import Heartbeat
from repro.core import D2TreeScheme
from repro.placement import DEAD_CAPACITY
from repro.simulation import (
    ClusterSimulator,
    FaultEvent,
    FaultKind,
    FaultPlan,
    SimulationConfig,
    simulate,
)
from repro.traces import DatasetProfile, TraceGenerator
from tests.conftest import build_random_tree


@pytest.fixture(scope="module")
def workload():
    return TraceGenerator(
        DatasetProfile.lmbe(num_nodes=1500, scale=6e-5), num_clients=20
    ).generate()


@pytest.fixture(scope="module")
def long_workload():
    # Enough operations after a mid-trace rejoin to amortise the outage.
    return TraceGenerator(
        DatasetProfile.lmbe(num_nodes=3000, scale=2e-4), num_clients=20
    ).generate()


def config(**kw):
    kw.setdefault("num_clients", 20)
    kw.setdefault("adjust_every_ops", 500)
    return SimulationConfig(**kw)


def plan(*specs):
    return FaultPlan.parse(list(specs))


# ----------------------------------------------------------------------
# FaultEvent / FaultPlan units
# ----------------------------------------------------------------------
def test_fault_event_parse_ops():
    event = FaultEvent.parse("crash:2@ops=1000")
    assert event.kind is FaultKind.CRASH
    assert event.server == 2
    assert event.at_ops == 1000 and event.at_time is None


def test_fault_event_parse_time_and_factor():
    event = FaultEvent.parse("fail_slow:1@t=4.5:x8")
    assert event.kind is FaultKind.FAIL_SLOW
    assert event.at_time == pytest.approx(4.5)
    assert event.factor == pytest.approx(8.0)


@pytest.mark.parametrize("spec", [
    "crash:2",                    # no trigger
    "crash@ops=5",                # no server
    "melt:1@ops=5",               # unknown kind
    "crash:1@soon=5",             # bad trigger key
    "fail_slow:1@ops=5:q4",       # malformed factor suffix
])
def test_fault_event_parse_rejects(spec):
    with pytest.raises(ValueError):
        FaultEvent.parse(spec)


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.CRASH, 1)  # no trigger at all
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.CRASH, 1, at_ops=5, at_time=1.0)  # both
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.CRASH, -1, at_ops=5)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.FAIL_SLOW, 1, at_ops=5, factor=0.5)


@pytest.mark.parametrize("spec", [
    "crash:2@ops=1000",
    "recover:2@t=4.5",
    "fail_slow:1@ops=500:x8",
    "drop_heartbeats:0@t=2",
    "partition:{0,1}|{2,3,m1}@t=2",
    "heal:{0,1}|{2,3,m1}@t=4",
    "heal:*@t=4",
    "monitor_crash:0@ops=800",
    "monitor_recover:0@ops=1500",
    "loss:1@ops=500:p0.3",
    "delay:2@t=1:d0.001",
])
def test_every_kind_round_trips_through_to_spec(spec):
    event = FaultEvent.parse(spec)
    assert event.to_spec() == spec
    assert FaultEvent.parse(event.to_spec()) == event


def test_partition_groups_are_canonicalised():
    event = FaultEvent.parse("partition:{m1, 3, 1}|{0,2,m0}@t=1.0")
    # Members sort MDS-first then monitors; the canonical name is what a
    # heal event must match.
    assert event.partition_name == "{1,3,m1}|{0,2,m0}"
    assert event.server == -1
    heal = FaultEvent.parse("heal:{1,3,m1}|{0,2,m0}@t=2.0")
    assert heal.partition_name == event.partition_name


@pytest.mark.parametrize("spec", [
    "partition:{0,1}@t=1",         # a single group is no partition
    "partition:{}|{1}@t=1",        # empty group
    "partition:{0,x}|{1}@t=1",     # bad member token
    "partition:0@t=1",             # not group syntax at all
    "loss:1@ops=5:p0",             # probability outside (0, 1]
    "loss:1@ops=5:p1.5",
    "delay:1@ops=5",               # delay needs a :dSECONDS suffix
])
def test_new_kind_parse_rejects(spec):
    with pytest.raises(ValueError):
        FaultEvent.parse(spec)


# ----------------------------------------------------------------------
# Plan validation at apply time
# ----------------------------------------------------------------------
def test_validate_rejects_out_of_range_targets():
    with pytest.raises(ValueError, match="crash:9@ops=5"):
        plan("crash:9@ops=5").validate(4)
    with pytest.raises(ValueError, match="replicas 0..2"):
        plan("monitor_crash:3@ops=5").validate(4, num_monitors=3)
    with pytest.raises(ValueError, match="partitions server 7"):
        plan("partition:{0,7}|{1}@t=1").validate(4)
    with pytest.raises(ValueError, match="Monitor replica 5"):
        plan("partition:{0,m5}|{1}@t=1").validate(4, num_monitors=3)


def test_validate_warns_on_orphan_recover():
    with pytest.warns(UserWarning, match="ever degrades it"):
        plan("recover:1@ops=500").validate(4)


def test_validate_passes_clean_plans_through():
    schedule = plan(
        "crash:1@ops=100", "recover:1@ops=500",
        "partition:{0,1}|{2,3,m0}@t=1", "heal:*@t=2",
        "loss:2@ops=50:p0.5", "recover:2@ops=400",
    )
    assert schedule.validate(4, num_monitors=2) is schedule


def test_fault_plan_ordering_and_servers():
    schedule = plan(
        "recover:2@ops=900", "crash:2@ops=100",
        "drop_heartbeats:0@t=2.0", "crash:1@t=0.5",
    )
    assert [e.at_ops for e in schedule.by_ops()] == [100, 900]
    assert [e.at_time for e in schedule.by_time()] == [0.5, 2.0]
    assert schedule.servers() == [0, 1, 2]
    assert len(schedule) == 4 and bool(schedule)
    assert not FaultPlan()


# ----------------------------------------------------------------------
# Monitor detection semantics
# ----------------------------------------------------------------------
def test_monitor_reports_each_failure_once():
    tree = build_random_tree(100, seed=5)
    scheme = D2TreeScheme()
    placement = scheme.partition(tree, 3)
    monitor = MonitorGroup(
        scheme, tree, placement, replicas=1, heartbeat_timeout=1.0
    )
    for sid in range(3):
        monitor.on_heartbeat(Heartbeat(sid, 0.0, 0.0, 0.0))
    monitor.on_heartbeat(Heartbeat(0, 5.0, 0.0, 0.0))
    assert monitor.detect_failures(5.0) == [1, 2]
    monitor.mark_dead(1)
    monitor.mark_dead(2)
    # Acknowledged failures are not re-reported on later sweeps.
    assert monitor.detect_failures(6.0) == []
    assert monitor.is_dead(1) and monitor.is_dead(2)
    # A heartbeat from a rejoined server clears the mark ...
    monitor.on_heartbeat(Heartbeat(1, 6.5, 0.0, 0.0))
    assert not monitor.is_dead(1)
    # ... making it detectable again if it goes silent once more.
    monitor.on_heartbeat(Heartbeat(0, 8.5, 0.0, 0.0))
    assert monitor.detect_failures(9.0) == [1]


def test_monitor_detects_never_heartbeated_member():
    tree = build_random_tree(100, seed=5)
    scheme = D2TreeScheme()
    placement = scheme.partition(tree, 3)
    monitor = MonitorGroup(
        scheme, tree, placement, replicas=1, heartbeat_timeout=1.0,
        expected_servers=range(3),
    )
    monitor.on_heartbeat(Heartbeat(0, 0.1, 0.0, 0.0))
    monitor.on_heartbeat(Heartbeat(1, 0.1, 0.0, 0.0))
    # Server 2 registered at t=0 but never spoke: silent within the grace
    # period, dead after it (0 and 1 heartbeated recently enough).
    assert monitor.detect_failures(0.5) == []
    assert monitor.detect_failures(1.05) == [2]


# ----------------------------------------------------------------------
# Sentinel unification
# ----------------------------------------------------------------------
def test_dead_capacity_sentinel_is_shared():
    from repro.cluster.failure import surviving_capacities

    tree = build_random_tree(300, seed=11)
    placement = D2TreeScheme().partition(tree, 4)
    assert surviving_capacities(placement, dead=1)[1] == DEAD_CAPACITY
    fail_server(placement, dead=1)
    assert placement.capacities[1] == DEAD_CAPACITY
    assert DEAD_CAPACITY > 0  # ratio math (L_k / C_k) must stay defined


# ----------------------------------------------------------------------
# rejoin_server
# ----------------------------------------------------------------------
def test_rejoin_restores_d2_server():
    tree = build_random_tree(400, seed=13)
    placement = D2TreeScheme(global_layer_fraction=0.05).partition(tree, 4)
    fail_server(placement, dead=2)
    assert placement.local_loads()[2] == 0.0
    moves = rejoin_server(placement, 2)
    assert placement.capacities[2] == 1.0
    # Global layer re-replicated onto the rejoined server.
    for node in placement.split.global_layer:
        assert 2 in placement.servers_of(node)
    # Local-layer subtrees pulled back mirror-division style.
    assert placement.local_loads()[2] > 0.0
    assert moves and all(m.target == 2 for m in moves)


def test_rejoin_rehashes_static_hash_placement():
    tree = build_random_tree(400, seed=13)
    placement = HashScheme().partition(tree, 4)
    fail_server(placement, dead=3)
    owned = [n for n in tree if placement.servers_of(n) == (3,)]
    assert not owned
    moves = rejoin_server(placement, 3)
    assert placement.capacities[3] == 1.0
    regained = [n for n in tree if placement.servers_of(n) == (3,)]
    assert regained and len(moves) == len(regained)


def test_rejoin_rejects_bad_args():
    tree = build_random_tree(100, seed=5)
    placement = HashScheme().partition(tree, 3)
    with pytest.raises(ValueError):
        rejoin_server(placement, 9)
    with pytest.raises(ValueError):
        rejoin_server(placement, 1, capacity=0.0)


# ----------------------------------------------------------------------
# End-to-end: detection window, retries, failed ops
# ----------------------------------------------------------------------
def test_crash_detection_metrics(workload):
    cfg = config(fault_plan=plan("crash:2@ops=1000"))
    result = simulate(D2TreeScheme(), workload, 4, cfg)
    av = result.availability
    assert av is not None and av.impacted
    assert av.crashes == 1
    # The Monitor takes a strictly positive time to notice the crash; in
    # that window clients time out against the dead server and retry.
    assert av.detection_latency[2] > 0.0
    assert av.unavailability > 0.0
    assert av.retries > 0
    # The default retry budget rides out the detection window: no op fails.
    assert av.failed_operations == 0
    assert result.operations == len(workload.trace)
    assert f"retries={av.retries}" in result.row()


def test_tight_retry_budget_fails_operations(workload):
    cfg = config(fault_plan=plan("crash:2@ops=1000"), max_retries=2)
    result = simulate(D2TreeScheme(), workload, 4, cfg)
    assert result.failed_operations > 0
    # Every trace record is accounted for: completed or failed, never lost.
    assert result.operations + result.failed_operations == len(workload.trace)


def test_detection_disabled_counts_unavailability(workload):
    cfg = config(
        fault_plan=plan("crash:2@ops=1000"),
        heartbeat_interval=0.0,   # Monitor never sweeps
        max_retries=3,
    )
    result = simulate(D2TreeScheme(), workload, 4, cfg)
    av = result.availability
    # Never detected: no re-home, so the outage runs to the end of the
    # replay and ops keep failing against the dead server.
    assert av.detection_latency == {}
    assert av.unavailability > 0.0
    assert av.failed_operations > 0


def test_crash_and_rejoin_recovers_throughput(long_workload):
    baseline = simulate(D2TreeScheme(), long_workload, 4, config())
    cfg = config(fault_plan=plan("crash:2@ops=1000", "recover:2@ops=2000"))
    sim = ClusterSimulator(D2TreeScheme(), long_workload, 4, cfg)
    result = sim.run()
    av = result.availability
    assert av.crashes == 1 and av.rejoins == 1
    assert av.time_to_recover[2] > 0.0
    assert sim.servers[2].alive
    assert sim.placement.capacities[2] == 1.0
    # The rejoined server is pulled back into service ...
    assert sim.placement.local_loads()[2] > 0.0
    # ... and the replay ends within 15% of fault-free throughput.
    assert result.throughput >= 0.85 * baseline.throughput


def test_double_failure_through_plan(workload):
    cfg = config(fault_plan=plan("crash:0@ops=600", "crash:3@ops=1600"))
    sim = ClusterSimulator(D2TreeScheme(), workload, 5, cfg)
    result = sim.run()
    assert result.availability.crashes == 2
    assert result.operations + result.failed_operations == len(workload.trace)
    live = {s.server_id for s in sim.servers if s.alive}
    assert live == {1, 2, 4}
    for node in workload.tree:
        assert set(sim.placement.servers_of(node)) <= live


def test_crash_rejoin_recrash(workload):
    cfg = config(fault_plan=plan(
        "crash:1@ops=500", "recover:1@ops=1200", "crash:1@ops=1900",
    ))
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, cfg)
    result = sim.run()
    av = result.availability
    assert av.crashes == 2 and av.rejoins == 1
    assert not sim.servers[1].alive
    # Both outages were detected (the dict keeps the latest one).
    assert av.detection_latency[1] > 0.0
    assert result.operations + result.failed_operations == len(workload.trace)
    for node in workload.tree:
        assert 1 not in sim.placement.servers_of(node)


def test_crash_during_adjustment_round(workload):
    # The crash fires on the exact completion that also triggers the
    # adjustment heartbeats: the round must run against the dead server
    # without reviving it or crashing the replay.
    cfg = config(adjust_every_ops=500, fault_plan=plan("crash:2@ops=500"))
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, cfg)
    result = sim.run()
    assert result.operations + result.failed_operations == len(workload.trace)
    assert not sim.servers[2].alive
    for node in workload.tree:
        assert 2 not in sim.placement.servers_of(node)


@pytest.mark.parametrize("scheme_cls", [
    D2TreeScheme, StaticSubtreeScheme, DynamicSubtreeScheme,
    HashScheme, DropScheme, AngleCutScheme,
])
def test_all_schemes_survive_injected_crash(workload, scheme_cls):
    cfg = config(fault_plan=plan("crash:1@ops=800"))
    sim = ClusterSimulator(scheme_cls(), workload, 4, cfg)
    result = sim.run()
    assert result.operations + result.failed_operations == len(workload.trace)
    assert result.availability.crashes == 1
    for node in workload.tree:
        if sim.placement.is_placed(node):
            assert 1 not in sim.placement.servers_of(node)


# ----------------------------------------------------------------------
# Gray failures and false positives
# ----------------------------------------------------------------------
def test_fail_slow_degrades_throughput(workload):
    healthy = simulate(D2TreeScheme(), workload, 4, config())
    slowed = simulate(
        D2TreeScheme(), workload, 4,
        config(fault_plan=plan("fail_slow:0@ops=200:x20")),
    )
    assert slowed.throughput < healthy.throughput
    # A gray failure is not a crash: nothing fails, nothing retries.
    assert slowed.availability.crashes == 0
    assert slowed.failed_operations == 0


def test_drop_heartbeats_is_false_positive_eviction(workload):
    cfg = config(fault_plan=plan("drop_heartbeats:1@ops=500"))
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, cfg)
    result = sim.run()
    av = result.availability
    # The server never died, but the Monitor evicted it anyway.
    assert sim.servers[1].alive
    assert av.false_detections == 1
    assert av.crashes == 0 and av.unavailability == 0.0
    for node in workload.tree:
        assert 1 not in sim.placement.servers_of(node)
    assert result.operations == len(workload.trace)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_identical_seed_and_plan_is_bit_identical(workload):
    cfg = config(fault_plan=plan("crash:2@ops=800", "recover:2@ops=1600"))
    first = simulate(D2TreeScheme(), workload, 4, cfg)
    second = simulate(D2TreeScheme(), workload, 4, cfg)
    assert first.makespan == second.makespan
    assert first.throughput == second.throughput
    assert first.latency == second.latency
    assert first.server_visits == second.server_visits
    assert dataclasses.asdict(first.availability) == dataclasses.asdict(
        second.availability
    )


def test_crash_without_recover_stays_down(workload):
    cfg = config(fault_plan=plan("crash:2@ops=1000"))
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, cfg)
    result = sim.run()
    assert result.availability.crashes == 1
    assert not sim.servers[2].alive
    assert result.operations == len(workload.trace)


# ----------------------------------------------------------------------
# kill9 family: grammar + validation rejection paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", [
    "kill9:1@ops=700",
    "torn_write:2@ops=900",
    "corrupt_record:0@t=3",
])
def test_kill9_family_round_trips(spec):
    event = FaultEvent.parse(spec)
    assert event.to_spec() == spec
    assert FaultEvent.parse(event.to_spec()) == event


@pytest.mark.parametrize("spec", [
    "kill9:1",                     # no trigger
    "kill9@ops=5",                 # no server
    "torn_write:-1@ops=5",         # negative target
    "corrupt_record:1@soon=5",     # bad trigger key
])
def test_kill9_family_parse_rejects(spec):
    with pytest.raises(ValueError):
        FaultEvent.parse(spec)


@pytest.mark.parametrize("spec", [
    "kill9:4@ops=10",
    "torn_write:9@ops=10",
    "corrupt_record:4@t=1",
])
def test_validate_rejects_kill9_family_out_of_range(spec):
    with pytest.raises(ValueError, match="server"):
        plan(spec).validate(4)


def test_validate_warns_on_recover_after_kill9_only_plans():
    # kill9 counts as a down event, so a recover after it is not an
    # orphan — no warning expected.
    import warnings as _warnings

    schedule = plan("kill9:1@ops=100", "recover:1@ops=500")
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        assert schedule.validate(4) is schedule
