"""Chaos harness: schedule generation, invariants, end-to-end fencing."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import (
    OpHistory,
    CHAOS_HEARTBEAT_INTERVAL,
    CHAOS_HEARTBEAT_TIMEOUT,
    CHAOS_LEASE_TIMEOUT,
    CorpusCase,
    _quiesce,
    check_run,
    generate_plan,
    run_case,
    run_hunt,
)
from repro.chaos.harness import check_state_invariants
from repro.core import D2TreeScheme
from repro.placement import DEAD_CAPACITY, Placement
from repro.simulation import ClusterSimulator, FaultKind, FaultPlan, SimulationConfig
from repro.simulation.faults import _DEGRADING_KINDS
from repro.traces import DatasetProfile, TraceGenerator


@pytest.fixture(scope="module")
def workload():
    full = TraceGenerator(
        DatasetProfile.lmbe(num_nodes=900, scale=5e-5), num_clients=20
    ).generate()
    return dataclasses.replace(full, trace=full.trace.slice(0, 400))


def recipe(seed, faults=None):
    """The chaos run the module's workload shape describes."""
    return CorpusCase(
        scheme="d2-tree", trace="lmbe", nodes=900, scale=5e-5, seed=seed,
        num_servers=4, num_monitors=3, faults=faults, ops=400,
    )


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
    events = list(plan.events)
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
    events = list(plan.events)
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
    sim.control.history = OpHistory()
    result = sim.run()
    _quiesce(sim, result.makespan)
    assert check_run(sim.control, len(workload.trace)) == []


def test_invariants_flag_injected_corruption(workload):
    sim = ClusterSimulator(
        D2TreeScheme(), workload, 4, chaos_config(3, FaultPlan())
    )
    sim.control.history = OpHistory()
    result = sim.run()
    _quiesce(sim, result.makespan)
    # Dead owner: sentinel a server that still owns metadata.
    sim.placement.capacities[0] = DEAD_CAPACITY
    # Fence ahead of the group epoch (the split-brain smell).
    sim.servers[1].fence_epoch = sim.monitor.epoch + 5
    # Accounting hole: a trace op the op log never saw.
    violations = check_run(sim.control, len(workload.trace) + 1)
    assert any(v.startswith("ownership:") for v in violations)
    assert any(v.startswith("epochs:") for v in violations)
    assert any(v.startswith("accounting:") for v in violations)


def _reference_state_invariants(placement, tree, servers, group):
    """The state invariants node by node: ``check_state_invariants`` as it
    read before its column scan, kept as the reference it must equal."""
    violations = []
    dead = {s for s, cap in enumerate(placement.capacities) if cap <= DEAD_CAPACITY}
    dead.update(s.server_id for s in servers if not s.alive)
    bad_owner = []
    empty = []
    for node in placement.placed_nodes():
        owners = placement.servers_of(node)
        if not owners:
            empty.append(node)
        elif dead.intersection(owners):
            bad_owner.append(node)
    empty, bad_owner = tree.paths(empty), tree.paths(bad_owner)
    if empty:
        violations.append(
            f"ownership: {len(empty)} nodes with an empty replica set "
            f"(e.g. {empty[:3]})"
        )
    if bad_owner:
        violations.append(
            f"ownership: {len(bad_owner)} nodes owned by a dead server "
            f"{sorted(dead)} (e.g. {bad_owner[:3]})"
        )
    missing = tree.paths(n for n in tree if not placement.is_placed(n))
    if missing:
        violations.append(
            f"completeness: {len(missing)} namespace nodes unplaced "
            f"(e.g. {missing[:3]})"
        )
    if not group.journal.epochs_monotone():
        violations.append("epochs: committed directive epochs regressed")
    for server in servers:
        if server.fence_epoch > group.epoch:
            violations.append(
                f"epochs: server {server.server_id} fence "
                f"{server.fence_epoch} ahead of monitor epoch "
                f"{group.epoch}"
            )
    return violations


def _quiesced_sim(workload):
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, chaos_config(3, FaultPlan()))
    sim.control.history = OpHistory()
    _quiesce(sim, sim.run().makespan)
    return sim


@pytest.fixture(scope="module")
def quiesced(workload):
    return _quiesced_sim(workload)


#: Defects planted in a healthy quiesced cluster, in the order they are
#: planted (the short column last, so a slot planted before it may be cut).
_DEFECTS = (
    "empty tuple", "empty list", "dead by capacity", "dead by alive",
    "unplaced", "fence ahead", "short column",
)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_state_invariants_equal_the_node_by_node_reference(quiesced, data):
    """Whatever is planted — an empty replica set as ``()`` or ``[]``, a
    dead owner by capacity or by liveness, an unplaced node, a column
    shorter than the tree, a fence ahead, several at once or none — the
    audit's violation strings are the node-by-node reference's, verbatim."""
    sim = quiesced
    placement, tree, servers, group = sim.placement, sim.monitor.tree, sim.servers, sim.monitor
    column, capacities = placement._servers_of, placement.capacities
    saved = list(column), list(capacities), [(s.alive, s.fence_epoch) for s in servers]
    chosen = data.draw(st.sets(st.sampled_from(_DEFECTS)))
    node, server = st.integers(0, len(tree) - 1), st.integers(0, len(servers) - 1)
    try:
        for defect in (d for d in _DEFECTS if d in chosen):
            if defect == "empty tuple":
                column[data.draw(node)] = ()
            elif defect == "empty list":
                column[data.draw(node)] = []
            elif defect == "dead by capacity":
                capacities[data.draw(server)] = DEAD_CAPACITY
            elif defect == "dead by alive":
                servers[data.draw(server)].alive = False
            elif defect == "unplaced":
                column[data.draw(node)] = None
            elif defect == "fence ahead":
                servers[data.draw(server)].fence_epoch = group.epoch + 1
            else:
                del column[data.draw(node):]
        violations = check_state_invariants(placement, tree, servers, group)
        assert violations == _reference_state_invariants(placement, tree, servers, group)
        assert bool(violations) == bool(chosen)
    finally:
        column[:], capacities[:] = saved[0], saved[1]
        for mds, (alive, fence) in zip(servers, saved[2]):
            mds.alive, mds.fence_epoch = alive, fence


def test_a_healthy_audit_asks_the_placement_about_no_node(monkeypatch):
    """A healthy, quiesced 8 000-node cluster is cleared by the column
    scan: the run audit calls neither ``servers_of`` nor ``is_placed``."""
    full = TraceGenerator(DatasetProfile.dtr(num_nodes=8000, scale=2e-5)).generate()
    sim = _quiesced_sim(dataclasses.replace(full, trace=full.trace.slice(0, 300)))
    calls = []
    for name in ("servers_of", "is_placed"):
        method = getattr(Placement, name)
        monkeypatch.setattr(
            Placement, name, lambda self, node, m=method: calls.append(node) or m(self, node)
        )
    assert len(sim.monitor.tree) == 8000
    assert check_run(sim.control, 300) == []
    assert calls == []


def test_the_run_audit_is_one_function():
    """`chaos`, `hunt`, the corpus and `serve` all judge a run through
    `check_run`: nothing else states the invariants or audits the op log."""
    import pathlib
    import re

    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

    def callers(name):
        found = []
        for path in src.rglob("*.py"):
            text = path.read_text()
            if len(re.findall(rf"\b{name}\(", text)) > text.count(f"def {name}("):
                found.append(str(path.relative_to(src)))
        return sorted(found)

    assert callers("check_state_invariants") == ["chaos/harness.py"]
    assert callers("audit_history") == ["chaos/harness.py"]
    assert callers("check_run") == ["chaos/harness.py", "transport/serve.py"]


# ----------------------------------------------------------------------
# End-to-end cases
# ----------------------------------------------------------------------
def test_run_case_clean_and_reproducible():
    case = run_case(recipe(5))
    assert case.ok and case.violations == []
    assert case.operations + case.failed_operations == 400
    assert case.specs == generate_plan(5, 400, 4, 3).to_specs()
    again = run_case(recipe(5))
    assert case.to_dict() == again.to_dict()


def test_run_chaos_aggregates_cases():
    """What `repro hunt --no-shrink` does: one recipe, one case per seed; a
    case with no explicit faults draws workload and schedule from its own
    seed, and reports its audited run whole."""
    report = run_hunt(recipe(0), range(2), shrink=False)
    for seed, hunted in zip(range(2), report.cases):
        case = dataclasses.replace(report.recipe, seed=seed)
        assert case.workload().profile.seed == seed
        assert len(case.workload().trace) == 400
        assert case.plan().to_specs() == generate_plan(seed, 400, 4, 3).to_specs()
        assert hunted.outcome.specs == case.plan().to_specs()
        assert hunted.outcome.history["invoked"] == 400
        assert hunted.shrink is None and hunted.minimized is None
        outcome = run_case(dataclasses.replace(case, faults=case.plan().to_specs()))
        assert hunted.to_dict() == {**outcome.to_dict(), "replay": hunted.replay}
    assert [c.outcome.seed for c in report.cases] == [0, 1]
    assert report.cases[0].outcome.specs != report.cases[1].outcome.specs
    assert report.ok == all(c.ok for c in report.cases)
    payload = report.to_dict()
    assert payload["seeds"] == [0, 1] and len(payload["cases"]) == 2
    assert (payload["scheme"], payload["trace"]) == ("d2-tree", "lmbe")
    assert (payload["num_servers"], payload["num_monitors"]) == (4, 3)


def test_explicit_plan_overrides_generation():
    plan = FaultPlan.parse(["crash:1@ops=50", "recover:1@ops=200"])
    case = run_case(recipe(1, plan.to_specs()))
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
    sim.control.history = OpHistory()
    result = sim.run()
    _quiesce(sim, result.makespan)
    assert sim.monitor.epoch >= 2 and sim.monitor.failovers >= 1
    # The rejoin was committed at the post-failover epoch and the journal
    # never went backwards.
    epochs = [d.epoch for d in sim.monitor.journal if d.server == 1]
    assert epochs and epochs == sorted(epochs)
    assert epochs[-1] == sim.monitor.epoch
    # The rejoined server applied the new-epoch directive: its fence caught
    # up and nothing it owns predates the failover.
    assert sim.servers[1].fence_epoch == sim.monitor.epoch
    assert check_run(sim.control, len(workload.trace)) == []
