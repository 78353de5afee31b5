"""Tests for the discrete-event replay harness."""

import pytest

from repro.baselines import HashScheme, StaticSubtreeScheme
from repro.core import D2TreeScheme
from repro.simulation import (
    ClusterSimulator,
    ResourceTimeline,
    SimNetwork,
    SimulationConfig,
    replay_rounds,
    simulate,
    summarize_latencies,
)


# ----------------------------------------------------------------------
# Engine primitives
# ----------------------------------------------------------------------
def test_timeline_fifo():
    timeline = ResourceTimeline()
    assert timeline.serve(0.0, 1.0) == 1.0
    assert timeline.serve(0.5, 1.0) == 2.0
    assert timeline.serve(10.0, 1.0) == 11.0
    assert timeline.served == 3
    assert timeline.busy_time == pytest.approx(3.0)


def test_timeline_background_appends_without_gap():
    timeline = ResourceTimeline()
    timeline.serve(0.0, 1.0)
    timeline.serve_background(0.5)
    assert timeline.busy_until == pytest.approx(1.5)
    # Idle server: background work lands in the past (absorbed for free).
    idle = ResourceTimeline()
    idle.serve_background(0.25)
    assert idle.busy_until == pytest.approx(0.25)


def test_timeline_utilization():
    timeline = ResourceTimeline()
    timeline.serve(0.0, 2.0)
    assert timeline.utilization(4.0) == pytest.approx(0.5)
    assert timeline.utilization(0.0) == 0.0


def test_network_model():
    net = SimNetwork(hop_latency=0.01)
    assert net.hop() == 0.01
    jittery = SimNetwork(hop_latency=0.01, jitter=0.005)
    values = {jittery.hop() for _ in range(32)}
    assert len(values) > 1
    assert all(0.01 <= v <= 0.015 for v in values)


def test_network_validation():
    with pytest.raises(ValueError):
        SimNetwork(hop_latency=-1)


def test_latency_summary():
    summary = summarize_latencies([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.maximum == 4.0
    assert summarize_latencies([]).count == 0


# ----------------------------------------------------------------------
# Full replay
# ----------------------------------------------------------------------
FAST = SimulationConfig(num_clients=20, adjust_every_ops=400)


def test_simulate_d2(tiny_dtr_workload):
    result = simulate(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    assert result.operations == len(tiny_dtr_workload.trace)
    assert result.throughput > 0
    assert result.makespan > 0
    assert len(result.server_visits) == 4
    assert result.latency.count == result.operations


def test_simulate_generic_scheme(tiny_dtr_workload):
    result = simulate(StaticSubtreeScheme(), tiny_dtr_workload, 4, FAST)
    assert result.throughput > 0
    assert result.mean_jumps >= 0


def test_simulate_row_format(tiny_dtr_workload):
    result = simulate(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    row = result.row()
    assert "d2-tree" in row and "ops/s" in row


def test_hash_scheme_slower_than_d2(tiny_dtr_workload):
    # Under load (many clients per server) hashing's extra traversal visits
    # saturate the cluster first; at idle the difference is noise.
    loaded = SimulationConfig(num_clients=100, adjust_every_ops=400)
    d2 = simulate(D2TreeScheme(), tiny_dtr_workload, 4, loaded)
    hashed = simulate(HashScheme(), tiny_dtr_workload, 4, loaded)
    assert d2.throughput > hashed.throughput
    assert d2.mean_jumps < hashed.mean_jumps


def test_more_servers_more_throughput(tiny_dtr_workload):
    small = simulate(D2TreeScheme(), tiny_dtr_workload, 2, FAST)
    large = simulate(D2TreeScheme(), tiny_dtr_workload, 8, FAST)
    assert large.throughput > small.throughput


def test_utilizations_bounded(tiny_dtr_workload):
    result = simulate(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    assert all(0.0 <= u <= 1.0 for u in result.server_utilization)


def test_simulator_plan_routes_cover_target(tiny_dtr_workload):
    sim = ClusterSimulator(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    client = sim.clients[0]
    for record in tiny_dtr_workload.trace.records[:100]:
        node = sim.tree.lookup(record.path)
        plan = sim.plan_route(client, node, record.op)
        assert plan.visits
        final = plan.visits[-1].server
        assert final in sim.placement.servers_of(node)


def test_d2_update_plans_lock_and_fanout(tiny_dtr_workload):
    from repro.traces import OpType

    sim = ClusterSimulator(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    client = sim.clients[0]
    gl_node = next(iter(sim.placement.split.global_layer))
    plan = sim.plan_route(client, gl_node, OpType.UPDATE)
    assert plan.lock_key == gl_node.path
    assert len(plan.fanout) == 3


def test_deterministic_simulation(tiny_dtr_workload):
    a = simulate(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    b = simulate(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    assert a.throughput == pytest.approx(b.throughput)


# ----------------------------------------------------------------------
# Round replay (Fig. 7 methodology)
# ----------------------------------------------------------------------
def test_replay_rounds_produces_trajectory(tiny_dtr_workload):
    trajectory = replay_rounds(D2TreeScheme(), tiny_dtr_workload, 4, rounds=5)
    assert len(trajectory.per_round) == 4
    assert trajectory.final_balance > 0


def test_replay_rounds_validation(tiny_dtr_workload):
    with pytest.raises(ValueError):
        replay_rounds(D2TreeScheme(), tiny_dtr_workload, 4, rounds=1)


def test_replay_rounds_adaptive_beats_static(tiny_lmbe_workload):
    adaptive = replay_rounds(D2TreeScheme(), tiny_lmbe_workload, 4, rounds=8)
    static = replay_rounds(StaticSubtreeScheme(), tiny_lmbe_workload, 4, rounds=8)
    assert adaptive.final_balance > static.final_balance


def test_replay_rounds_migrations_counted(tiny_lmbe_workload):
    trajectory = replay_rounds(D2TreeScheme(), tiny_lmbe_workload, 4, rounds=8)
    assert trajectory.migrations >= 0
