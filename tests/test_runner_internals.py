"""White-box tests for the cluster simulator's routing and adjustment."""

import pytest

from repro.baselines import DropScheme, StaticSubtreeScheme
from repro.cluster.messages import VisitKind
from repro.core import D2TreeScheme
from repro.simulation import FaultPlan, SimulationConfig
from repro.simulation.runner import ClusterSimulator
from repro.traces import DatasetProfile, OpType, TraceGenerator

FAST = SimulationConfig(num_clients=10, adjust_every_ops=0)


@pytest.fixture(scope="module")
def workload():
    return TraceGenerator(
        DatasetProfile.dtr(num_nodes=1000, scale=4e-5), num_clients=10
    ).generate()


# ----------------------------------------------------------------------
# D2 routing
# ----------------------------------------------------------------------
def test_d2_gl_read_single_visit(workload):
    sim = ClusterSimulator(D2TreeScheme(global_layer_fraction=0.05), workload, 4, FAST)
    client = sim.clients[0]
    gl_node = next(iter(sim.placement.split.global_layer))
    plan = sim.engine.plan(client, gl_node, OpType.READ)
    assert len(plan.visits) == 1
    assert plan.visits[0].kind is VisitKind.SERVE
    assert not plan.fanout and plan.lock_key is None


def test_d2_ll_first_touch_then_cached(workload):
    sim = ClusterSimulator(D2TreeScheme(global_layer_fraction=0.05), workload, 4, FAST)
    client = sim.clients[0]
    root = next(iter(sim.placement.subtree_owner))
    first = sim.engine.plan(client, root, OpType.READ)
    assert first.visits[-1].kind is VisitKind.SERVE
    # After learning the owner, the query goes straight there.
    second = sim.engine.plan(client, root, OpType.READ)
    assert len(second.visits) == 1
    assert second.visits[0].server == sim.placement.subtree_owner[root]


def test_d2_stale_index_costs_redirect(workload):
    sim = ClusterSimulator(D2TreeScheme(global_layer_fraction=0.05), workload, 4, FAST)
    client = sim.clients[0]
    root = next(iter(sim.placement.subtree_owner))
    sim.engine.plan(client, root, OpType.READ)  # warm the cache
    old = sim.placement.subtree_owner[root]
    new = (old + 1) % 4
    sim.placement.move_subtree(root, new)
    plan = sim.engine.plan(client, root, OpType.READ)
    kinds = [v.kind for v in plan.visits]
    assert VisitKind.REDIRECT in kinds
    assert plan.visits[-1].server == new


def test_d2_gl_update_locks_and_fans_out(workload):
    sim = ClusterSimulator(D2TreeScheme(global_layer_fraction=0.05), workload, 4, FAST)
    client = sim.clients[0]
    gl_node = next(iter(sim.placement.split.global_layer))
    plan = sim.engine.plan(client, gl_node, OpType.UPDATE)
    assert plan.lock_key == gl_node
    assert len(plan.fanout) == 3
    assert plan.visits[0].server not in plan.fanout


def test_d2_ll_update_no_fanout(workload):
    sim = ClusterSimulator(D2TreeScheme(global_layer_fraction=0.05), workload, 4, FAST)
    client = sim.clients[0]
    root = next(iter(sim.placement.subtree_owner))
    plan = sim.engine.plan(client, root, OpType.UPDATE)
    assert not plan.fanout and plan.lock_key is None


# ----------------------------------------------------------------------
# Generic routing
# ----------------------------------------------------------------------
def test_generic_traversal_walks_uncached_prefix(workload):
    sim = ClusterSimulator(StaticSubtreeScheme(), workload, 4, FAST)
    client = sim.clients[0]
    depths = workload.tree.arena().depths()
    deep = max(workload.tree, key=lambda n: depths[n])
    plan = sim.engine.plan(client, deep, OpType.READ)
    assert plan.visits[-1].server == sim.placement.primary_of(deep)
    # Second traversal of the same path is fully cached: one visit.
    plan2 = sim.engine.plan(client, deep, OpType.READ)
    assert len(plan2.visits) == 1


def test_generic_stale_prefix_single_redirect(workload):
    sim = ClusterSimulator(DropScheme(), workload, 4, FAST)
    client = sim.clients[0]
    depths = workload.tree.arena().depths()
    deep = max(workload.tree, key=lambda n: depths[n])
    sim.engine.plan(client, deep, OpType.READ)
    # Invalidate by moving every ancestor's assignment by one server.
    for ancestor in workload.tree.ancestors(deep, include_self=True):
        current = sim.placement.primary_of(ancestor)
        sim.placement.assign(ancestor, (current + 1) % 4)
    plan = sim.engine.plan(client, deep, OpType.READ)
    redirects = sum(1 for v in plan.visits if v.kind is VisitKind.REDIRECT)
    assert redirects <= 1  # one redirect per request, never a ping-pong


# ----------------------------------------------------------------------
# Adjustment wiring
# ----------------------------------------------------------------------
def test_adjust_sends_heartbeats(workload):
    cfg = SimulationConfig(num_clients=10, adjust_every_ops=200)
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, cfg)
    sim.run()
    assert sim.monitor.rebalances >= 1
    for server in range(4):
        assert sim.monitor._last_seen[server] > 0.0
    # With the liveness grid off, the adjustment rounds' beats are the only
    # ones, and they cross the fault fabric: a muted server's never land.
    cfg = SimulationConfig(
        num_clients=10, adjust_every_ops=200, heartbeat_interval=0,
        fault_plan=FaultPlan.parse(["drop_heartbeats:1@ops=1"]),
    )
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, cfg)
    sim.run()
    assert sim.monitor.rebalances >= 1
    clocks = sim.monitor._last_seen
    assert clocks[1] == 0.0  # still its registration time
    assert all(clocks[server] > 0.0 for server in (0, 2, 3))


def test_adjust_interval_zero_disables(workload):
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, FAST)
    sim.run()
    assert sim.monitor.rebalances == 0


def test_popularity_restored_after_run(workload):
    tree = workload.tree
    before = [tree.individual_popularity[n] for n in workload.tree]
    cfg = SimulationConfig(num_clients=10, adjust_every_ops=100)
    ClusterSimulator(D2TreeScheme(), workload, 4, cfg).run()
    after = [tree.individual_popularity[n] for n in workload.tree]
    assert after == before
