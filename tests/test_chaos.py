"""Chaos harness: schedule generation, invariants, end-to-end fencing."""

import dataclasses

import pytest

from repro.chaos import (
    CHAOS_HEARTBEAT_INTERVAL,
    CHAOS_HEARTBEAT_TIMEOUT,
    CHAOS_LEASE_TIMEOUT,
    ChaosReport,
    CorpusCase,
    _check_invariants,
    _quiesce,
    generate_plan,
    run_case,
)
from repro.core import D2TreeScheme
from repro.placement import DEAD_CAPACITY
from repro.simulation import ClusterSimulator, FaultKind, FaultPlan, SimulationConfig
from repro.simulation.faults import _DEGRADING_KINDS
from repro.traces import DatasetProfile, TraceGenerator


@pytest.fixture(scope="module")
def workload():
    full = TraceGenerator(
        DatasetProfile.lmbe(num_nodes=900, scale=5e-5), num_clients=20
    ).generate()
    return dataclasses.replace(full, trace=full.trace.slice(0, 400))


def chaos_config(seed, plan, monitors=3):
    return SimulationConfig(
        seed=seed,
        fault_plan=plan,
        num_monitors=monitors,
        heartbeat_interval=CHAOS_HEARTBEAT_INTERVAL,
        heartbeat_timeout=CHAOS_HEARTBEAT_TIMEOUT,
        monitor_lease_timeout=CHAOS_LEASE_TIMEOUT,
    )


# ----------------------------------------------------------------------
# Schedule generation
# ----------------------------------------------------------------------
def test_generate_plan_is_deterministic_and_round_trips():
    a = generate_plan(7, 2000, 6, 3)
    b = generate_plan(7, 2000, 6, 3)
    assert a.to_specs() == b.to_specs()
    assert a.to_specs() != generate_plan(8, 2000, 6, 3).to_specs()
    # Every event survives a parse/to_spec round trip (the replay contract).
    assert FaultPlan.parse(a.to_specs()).to_specs() == a.to_specs()


@pytest.mark.parametrize("seed", range(12))
def test_generate_plan_schedules_are_closed(seed):
    # The generator appends events in (degradation, recovery) pairs.
    plan = generate_plan(seed, 2000, 6, 3)
    events = list(plan)
    assert 6 <= len(events) <= 12 and len(events) % 2 == 0  # 3-6 pairs
    for opener, closer in zip(events[::2], events[1::2]):
        assert opener.at_ops < closer.at_ops
        if opener.kind is FaultKind.PARTITION:
            assert closer.kind is FaultKind.HEAL
            assert closer.partition_name == opener.partition_name
        elif opener.kind is FaultKind.MONITOR_CRASH:
            assert closer.kind is FaultKind.MONITOR_RECOVER
            assert closer.server == opener.server
        else:
            assert opener.kind in _DEGRADING_KINDS
            assert closer.kind is FaultKind.RECOVER
            assert closer.server == opener.server
    plan.validate(6, num_monitors=3)


@pytest.mark.parametrize("seed", range(20))
def test_generate_plan_caps_concurrent_crashes(seed):
    num_servers = 5
    plan = generate_plan(seed, 2000, num_servers, 3)
    events = list(plan)
    windows = [
        (opener.at_ops, closer.at_ops)
        for opener, closer in zip(events[::2], events[1::2])
        if opener.kind is FaultKind.CRASH
    ]
    # At every window start, the concurrently-down count stays below a
    # majority, so re-homing always has somewhere to go.
    for lo, _hi in windows:
        concurrent = sum(1 for l, h in windows if l <= lo < h)
        assert concurrent <= (num_servers - 1) // 2


def test_generate_plan_rejects_degenerate_clusters():
    with pytest.raises(ValueError):
        generate_plan(0, 2000, 2, 3)
    with pytest.raises(ValueError):
        generate_plan(0, 10, 6, 3)


# ----------------------------------------------------------------------
# Invariant checker
# ----------------------------------------------------------------------
def test_invariants_clean_on_fault_free_run(workload):
    sim = ClusterSimulator(
        D2TreeScheme(), workload, 4, chaos_config(3, FaultPlan())
    )
    result = sim.run()
    _quiesce(sim, result.makespan)
    assert _check_invariants(sim, result) == []


def test_invariants_flag_injected_corruption(workload):
    sim = ClusterSimulator(
        D2TreeScheme(), workload, 4, chaos_config(3, FaultPlan())
    )
    result = sim.run()
    _quiesce(sim, result.makespan)
    # Dead owner: sentinel a server that still owns metadata.
    sim.placement.capacities[0] = DEAD_CAPACITY
    # Fence ahead of the group epoch (the split-brain smell).
    sim.servers[1].fence_epoch = sim.monitor.epoch + 5
    # Accounting hole: an issued op that neither completed nor failed.
    sim.ops_issued += 1
    violations = _check_invariants(sim, result)
    assert any(v.startswith("ownership:") for v in violations)
    assert any(v.startswith("epochs:") for v in violations)
    assert any(v.startswith("accounting:") for v in violations)


# ----------------------------------------------------------------------
# End-to-end cases
# ----------------------------------------------------------------------
def test_run_case_clean_and_reproducible(workload):
    plan = generate_plan(5, len(workload.trace), 4, 3)
    case = run_case("d2-tree", workload, 4, 5, plan, num_monitors=3)
    assert case.ok and case.violations == []
    assert case.operations + case.failed_operations == len(workload.trace)
    assert case.specs == plan.to_specs()
    again = run_case("d2-tree", workload, 4, 5, plan, num_monitors=3)
    assert case.to_dict() == again.to_dict()


def test_run_chaos_aggregates_cases():
    """What `repro chaos` does: one recipe, one case per seed; a case with
    no explicit faults draws workload and schedule from its own seed."""
    recipe = CorpusCase(
        scheme="d2-tree", trace="lmbe", nodes=900, scale=5e-5, seed=0,
        num_servers=4, num_monitors=3, faults=[], ops=400,
    )
    report = ChaosReport(recipe)
    for seed in range(2):
        case = dataclasses.replace(recipe, seed=seed)
        assert case.workload().profile.seed == seed
        assert len(case.workload().trace) == 400
        assert case.plan().to_specs() == generate_plan(seed, 400, 4, 3).to_specs()
        report.cases.append(case.run_sim(history=False))
        assert report.cases[-1].specs == case.plan().to_specs()
        assert report.cases[-1].history is None
    assert [c.seed for c in report.cases] == [0, 1]
    assert report.cases[0].specs != report.cases[1].specs
    assert report.ok == all(c.ok for c in report.cases)
    payload = report.to_dict()
    assert payload["seeds"] == 2 and len(payload["cases"]) == 2
    assert (payload["scheme"], payload["trace"]) == ("d2-tree", "lmbe")
    assert (payload["num_servers"], payload["num_monitors"]) == (4, 3)


def test_explicit_plan_overrides_generation(workload):
    plan = FaultPlan.parse(["crash:1@ops=50", "recover:1@ops=200"])
    case = run_case("d2-tree", workload, 4, seed=1, plan=plan)
    assert case.specs == plan.to_specs()
    assert case.ok


# ----------------------------------------------------------------------
# Epoch fencing end to end: a crash-era assignment must not be
# resurrected when the server rejoins under a newer leadership epoch.
# ----------------------------------------------------------------------
def test_rejoin_after_failover_does_not_resurrect_pre_crash_ownership(workload):
    plan = FaultPlan.parse([
        "crash:1@ops=60",          # server 1 dies mid-run; epoch-1 re-home
        "monitor_crash:0@ops=80",  # leader dies too -> lease failover
        "recover:1@ops=250",       # server rejoins under the new epoch
        "monitor_recover:0@ops=300",
    ])
    sim = ClusterSimulator(
        D2TreeScheme(), workload, 4, chaos_config(2, plan, monitors=3)
    )
    result = sim.run()
    _quiesce(sim, result.makespan)
    assert sim.monitor.epoch >= 2 and sim.monitor.failovers >= 1
    # The rejoin was committed at the post-failover epoch and the journal
    # never went backwards.
    epochs = sim.monitor.journal.server_epochs(1)
    assert epochs and epochs == sorted(epochs)
    assert epochs[-1] == sim.monitor.epoch
    # The rejoined server applied the new-epoch directive: its fence caught
    # up and nothing it owns predates the failover.
    assert sim.servers[1].fence_epoch == sim.monitor.epoch
    assert _check_invariants(sim, result) == []
