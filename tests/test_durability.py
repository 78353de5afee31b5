"""Durability integration: kill9 faults, recovery replay, chaos invariant 5."""

import dataclasses
import json

import pytest

from repro.chaos import (
    CHAOS_HEARTBEAT_INTERVAL,
    CHAOS_HEARTBEAT_TIMEOUT,
    CHAOS_LEASE_TIMEOUT,
    generate_plan,
    run_case,
)
from repro.cli import main
from repro.core import D2TreeScheme
from repro.obs.telemetry import Telemetry
from repro.simulation import ClusterSimulator, FaultPlan, SimulationConfig
from repro.simulation.faults import FaultKind
from repro.traces import DatasetProfile, TraceGenerator


@pytest.fixture(scope="module")
def workload():
    full = TraceGenerator(
        DatasetProfile.dtr(num_nodes=800, scale=5e-5), num_clients=20
    ).generate()
    return dataclasses.replace(full, trace=full.trace.slice(0, 500))


def durable_config(seed, plan, store, store_dir=None):
    return SimulationConfig(
        seed=seed,
        fault_plan=plan,
        num_monitors=3,
        heartbeat_interval=CHAOS_HEARTBEAT_INTERVAL,
        heartbeat_timeout=CHAOS_HEARTBEAT_TIMEOUT,
        monitor_lease_timeout=CHAOS_LEASE_TIMEOUT,
        store=store,
        store_dir=store_dir,
    )


def run_sim(workload, plan, store, seed=5, store_dir=None):
    sim = ClusterSimulator(
        D2TreeScheme(), workload, 5, durable_config(seed, plan, store, store_dir)
    )
    try:
        result = sim.run()
        return sim, result
    finally:
        sim.close()


# ----------------------------------------------------------------------
# Fault plumbing
# ----------------------------------------------------------------------
def test_new_fault_kinds_parse_and_round_trip():
    specs = ["kill9:1@ops=100", "torn_write:2@ops=150", "corrupt_record:0@t=3"]
    plan = FaultPlan.parse(specs)
    kinds = [event.kind for event in plan]
    assert kinds == [
        FaultKind.KILL9, FaultKind.TORN_WRITE, FaultKind.CORRUPT_RECORD,
    ]
    assert plan.to_specs() == specs


def test_generated_plans_gate_durability_kinds():
    kill_kinds = {"kill9", "torn_write", "corrupt_record"}
    plain = {
        event.kind.value
        for seed in range(20)
        for event in generate_plan(seed, 2000, 6, 3)
    }
    assert not plain & kill_kinds  # existing seeds are byte-stable
    durable = {
        event.kind.value
        for seed in range(20)
        for event in generate_plan(seed, 2000, 6, 3, durability=True)
    }
    assert durable & kill_kinds


# ----------------------------------------------------------------------
# kill9 end to end: volatile state wiped, durable state replayed
# ----------------------------------------------------------------------
def test_kill9_recovery_replays_acks_and_fence(workload):
    plan = FaultPlan.parse(["kill9:1@ops=200", "recover:1@ops=400"])
    sim, result = run_sim(workload, plan, store="wal")
    assert result.availability.crashes == 1
    assert result.availability.rejoins == 1
    d = result.durability
    assert d["store"] == "wal"
    assert d["kill9_crashes"] == 1
    assert d["recoveries"] >= 1
    assert d["replayed_records"] > 0
    assert d["violations"] == []
    # The rejoined server carries a fence again (recovery restored it and
    # the rejoin directive ratcheted it forward, never backward).
    assert sim.servers[1].fence_epoch >= 1
    assert sim.servers[1].lost_volatile is False


def test_kill9_without_durable_store_still_degrades(workload):
    # The memory store can't replay anything; the cluster must still
    # rehome the dead server's subtrees and finish the trace.
    plan = FaultPlan.parse(["kill9:1@ops=200", "recover:1@ops=400"])
    sim, result = run_sim(workload, plan, store="memory")
    assert result.durability is None
    assert result.availability.crashes == 1
    assert result.failed_operations == 0


@pytest.mark.parametrize("store", ["wal"])
@pytest.mark.parametrize("fault", ["torn_write", "corrupt_record"])
def test_tail_damage_detected_and_truncated(workload, store, fault, tmp_path):
    plan = FaultPlan.parse([f"{fault}:1@ops=250", "recover:1@ops=450"])
    sim, result = run_sim(
        workload, plan, store=store, store_dir=str(tmp_path)
    )
    d = result.durability
    key = "torn_writes" if fault == "torn_write" else "corrupt_records"
    assert d[key] == 1
    assert d["truncations"] >= 1
    assert d["dropped"] > 0
    # The acceptance bar: damage detected + truncated, zero acked ops lost.
    assert d["violations"] == []


def test_damage_on_already_dead_server_is_repaired_on_rejoin(workload):
    # crash (volatile state intact) then torn_write on the same server:
    # the rejoin must notice the log damage even though kill9 never fired.
    plan = FaultPlan.parse(
        ["crash:1@ops=150", "torn_write:1@ops=250", "recover:1@ops=450"]
    )
    sim, result = run_sim(workload, plan, store="wal")
    d = result.durability
    assert d["torn_writes"] == 1
    assert d["truncations"] >= 1
    assert d["violations"] == []


def test_one_sync_per_ack_fence_and_directive(workload):
    # The durable path's counters on one seeded faulted run, equal to what
    # the JSON-payload log reported for it: packing the records changed
    # their bytes, not how many were appended, synced, snapshotted or
    # replayed. `stats()["fsyncs"]` counts the per-MDS logs (it never
    # counted the directive log, which syncs each append in its own file).
    # `appends` and `snapshots` were re-recorded (588 -> 534, 6 -> 5) when
    # the adjuster stopped migrating cold subtrees: fewer moves, fewer
    # grant/revoke records, one snapshot threshold not reached.
    plan = FaultPlan.parse([
        "kill9:1@ops=120", "torn_write:2@ops=200",
        "recover:1@ops=320", "recover:2@ops=420",
    ])
    config = dataclasses.replace(durable_config(5, plan, "wal"), snapshot_every=64)
    telemetry = Telemetry()
    sim = ClusterSimulator(D2TreeScheme(), workload, 5, config, telemetry=telemetry)
    try:
        d = sim.run().durability
    finally:
        sim.close()
    synced = [
        dict(event.fields)["record"]
        for event in telemetry.events if event.event == "wal_fsync"
    ]
    acks, fences = synced.count("ack"), synced.count("fence")
    directives = len(sim.monitor.journal)
    assert (acks, fences, directives) == (500, 4, 8)
    assert d["acked_ops"] == acks
    assert d["fsyncs"] == acks + fences == 504
    logs = [sim.store._directives, *sim.store._logs.values()]
    assert sim.store._directives.fsyncs == directives
    assert sum(log.fsyncs for log in logs) == acks + fences + directives
    assert sum(log.appends for log in logs) == d["appends"] == 534
    assert d["snapshots"] == 5
    assert d["recoveries"] == 2
    assert d["replayed_records"] == 65
    assert d["truncations"] == 1
    assert d["violations"] == []


# ----------------------------------------------------------------------
# Chaos invariant 5
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", ["wal"])
def test_chaos_case_with_durable_store_is_clean(workload, store, tmp_path):
    plan = generate_plan(11, len(workload.trace), 5, 3, durability=True)
    case = run_case(
        "d2-tree", workload, 5, 11, plan, store=store,
        store_dir=str(tmp_path / store),
    )
    assert case.violations == []
    assert case.store == store
    assert case.durability is not None
    assert case.durability["violations"] == []
    payload = case.to_dict()
    assert payload["store"] == store
    assert payload["durability"]["store"] == store


def test_chaos_case_memory_store_omits_durability(workload):
    plan = generate_plan(3, len(workload.trace), 5, 3)
    case = run_case("d2-tree", workload, 5, 3, plan)
    assert case.violations == []
    assert case.durability is None
    payload = case.to_dict()
    assert "durability" not in payload
    assert "store" not in payload


def test_explicit_kill9_plan_passes_all_invariants(workload):
    # The acceptance scenario: kill9 + torn_write against a file-backed
    # WAL, every server recovered, all five invariants clean.
    plan = FaultPlan.parse([
        "kill9:1@ops=120",
        "torn_write:2@ops=200",
        "recover:1@ops=320",
        "recover:2@ops=420",
    ])
    case = run_case("d2-tree", workload, 5, seed=11, plan=plan, store="wal")
    assert case.violations == []
    assert case.durability["kill9_crashes"] >= 1
    assert case.durability["torn_writes"] == 1


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_simulate_cli_store_flag_emits_durability(tmp_path, capsys):
    code, out = run_cli(
        capsys, "simulate", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--servers", "4", "--scheme", "d2-tree",
        "--store", "wal", "--store-dir", str(tmp_path / "wal"),
        "--fault", "kill9:1@ops=100", "--fault", "recover:1@ops=250",
        "--heartbeat-interval", "0.01", "--heartbeat-timeout", "0.03",
        "--monitors", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    durability = payload[0]["durability"]
    assert durability["store"] == "wal"
    assert durability["kill9_crashes"] == 1
    assert durability["violations"] == []


def test_simulate_cli_default_store_omits_durability(capsys):
    code, out = run_cli(
        capsys, "simulate", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--servers", "4", "--scheme", "d2-tree",
        "--json",
    )
    assert code == 0
    assert "durability" not in json.loads(out)[0]


def test_chaos_cli_durable_smoke(tmp_path, capsys):
    code, out = run_cli(
        capsys, "chaos", "--seeds", "1", "--ops", "400", "--nodes", "800",
        "--scale", "5e-5", "--servers", "5", "--store", "wal",
        "--store-dir", str(tmp_path),
    )
    assert code == 0
    assert "1/1 seeds clean" in out
