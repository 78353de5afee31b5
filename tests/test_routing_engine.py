"""Routing-engine contracts: owner-index invalidation, batching.

Locks down the properties ``repro.simulation.routing`` documents:

* the owner index survives migration, promotion, crash and rejoin without
  serving stale owners (the D2 routing decisions themselves are frozen by
  ``tests/golden/perfect_network_d2.json``);
* ``plan_batch`` is exactly a sequential sequence of ``plan`` calls.
"""

import pytest

from repro import registry
from repro.cluster import SimClient
from repro.cluster.messages import VisitKind
from repro.core import NamespaceTree
from repro.simulation import FaultPlan, SimulationConfig
from repro.simulation.routing import FastRoutingEngine, make_engine
from repro.simulation.runner import ClusterSimulator
from repro.traces import DatasetProfile, OpType, TraceGenerator


@pytest.fixture(scope="module")
def workload():
    return TraceGenerator(
        DatasetProfile.dtr(num_nodes=1200, scale=5e-5), num_clients=10
    ).generate()


# ----------------------------------------------------------------------
# Owner-index invalidation
# ----------------------------------------------------------------------
def _d2_sim(workload):
    return ClusterSimulator(
        registry.create("d2-tree"), workload, 6,
        SimulationConfig(num_clients=10, adjust_every_ops=0),
    )


def test_owner_index_follows_migration(workload):
    sim = _d2_sim(workload)
    assert isinstance(sim.engine, FastRoutingEngine)
    client = sim.clients[0]
    root = next(iter(sim.placement.subtree_owner))
    old_owner = sim.placement.subtree_owner[root]
    sim.plan_route(client, root, OpType.READ)  # warm the client cache
    new_owner = (old_owner + 1) % sim.placement.num_servers
    sim.placement.move_subtree(root, new_owner)
    plan = sim.plan_route(client, root, OpType.READ)
    # The stale client entry costs a redirect, but the index itself must
    # already point at the new owner.
    assert plan.visits[0].kind is VisitKind.REDIRECT
    assert plan.visits[0].server == old_owner
    assert plan.visits[-1].server == new_owner
    follow_up = sim.plan_route(client, root, OpType.READ)
    assert [v.server for v in follow_up.visits] == [new_owner]


def test_owner_index_follows_promotion(workload):
    sim = _d2_sim(workload)
    client = sim.clients[0]
    root = max(
        sim.placement.subtree_owner,
        key=lambda node: len(node.children),
    )
    sim.plan_route(client, root, OpType.READ)
    sim.placement.promote_subtree(root)
    plan = sim.plan_route(client, root, OpType.READ)
    # Now global: any replica serves it in one hop, no redirect.
    assert len(plan.visits) == 1
    assert plan.visits[0].kind is VisitKind.SERVE
    assert plan.visits[0].server in sim.placement.servers_of(root)


def test_invalidate_flushes_to_correct_state(workload):
    sim = _d2_sim(workload)
    client = sim.clients[0]
    root = next(iter(sim.placement.subtree_owner))
    sim.plan_route(client, root, OpType.READ)
    new_owner = (sim.placement.subtree_owner[root] + 2) % 6
    sim.placement.move_subtree(root, new_owner)
    sim.engine.invalidate()
    plan = sim.plan_route(client, root, OpType.READ)
    assert plan.visits[-1].server == new_owner


def test_index_survives_structure_mutation(workload):
    """A tree mutation re-issues the engine's arena transparently."""
    sim = _d2_sim(workload)
    client = sim.clients[0]
    node = sim.tree.add_path("/fresh/subdir/file.txt")
    sim.scheme.place_created(sim.tree, sim.placement, node)
    plan = sim.plan_route(client, node, OpType.READ)
    assert plan.visits[-1].kind is VisitKind.SERVE
    assert plan.visits[-1].server == sim.placement.primary_of(node)


@pytest.mark.parametrize("scheme", ["d2-tree", "static-hash"])
def test_memo_columns_cover_the_id_space_after_a_remove(scheme):
    """Node ids index the whole id space, retired slots included, so the
    planner's columns are sized from it: with the live-path count (one
    short per removed node) the highest ids ran off the end of both
    planners' columns. A removed node's own slot is never asked for."""
    tree = NamespaceTree()
    for d in range(4):
        tree.add_path(f"/d{d}", is_directory=True)
        for f in range(5):
            tree.record_access(tree.add_path(f"/d{d}/f{f}"), 1.0 + d + f)
    tree.aggregate_popularity()
    gone = tree.lookup("/d0/f0")
    tree.remove(gone)
    assert len(tree) == 24 and tree.nodes[-1].node_id == 24
    placement = registry.create(scheme).partition(tree, 3)
    engine = FastRoutingEngine(tree, placement)
    assert engine.arena.size == 25
    client = SimClient(0, 3)
    for node in tree:  # live nodes only: the walk skips the retired slot
        plan = engine.plan(client, node, OpType.READ)
        assert plan.visits[-1].server in placement.servers_of(node)
    for column in (engine._root_id, engine._primary_stamp, engine._replica_stamp):
        assert len(column) == 25 and column[gone.node_id] == -1
    assert not engine._global_bits[gone.node_id]


def test_owner_index_is_current_after_crash_and_rejoin(workload):
    """Crash re-homing and rejoin flush the owner index correctly."""
    ops = len(workload.trace)
    plan = FaultPlan.parse(
        [f"crash:1@ops={ops // 4}", f"recover:1@ops={ops // 2}"]
    )
    sim = ClusterSimulator(
        registry.create("d2-tree"), workload, 6,
        SimulationConfig(num_clients=20, adjust_every_ops=400, fault_plan=plan),
    )
    result = sim.run()
    assert result.availability.crashes == 1
    assert result.availability.rejoins == 1
    client = sim.clients[0]
    for node in sim.tree:
        # Straight from the index the faulted replay left behind: every
        # plan must end at a server the authoritative placement names.
        route = sim.plan_route(client, node, OpType.READ)
        assert route.visits[-1].kind is VisitKind.SERVE
        assert route.visits[-1].server in sim.placement.servers_of(node)


# ----------------------------------------------------------------------
# plan_batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name", ["d2-tree", "drop"])
def test_plan_batch_equals_sequential_plans(workload, scheme_name):
    tree = workload.tree
    tree.ensure_popularity()

    def build():
        placement = registry.create(scheme_name).partition(tree, 6)
        engine = make_engine("fast", tree, placement)
        sim_clients = ClusterSimulator(
            registry.create(scheme_name), workload, 6,
            SimulationConfig(num_clients=5, adjust_every_ops=0),
        ).clients
        ops = [
            (sim_clients[i % 5], node, record.op)
            for i, record in enumerate(workload.trace.records[:500])
            if (node := tree.lookup(record.path)) is not None
        ]
        return engine, ops

    engine_a, ops_a = build()
    engine_b, ops_b = build()
    sequential = [engine_a.plan(c, n, o) for c, n, o in ops_a]
    batched = []
    for base in range(0, len(ops_b), 64):
        batched.extend(engine_b.plan_batch(ops_b[base : base + 64]))
    assert [p.visits for p in sequential] == [p.visits for p in batched]
    assert [p.fanout for p in sequential] == [p.fanout for p in batched]
    assert engine_a.hits == engine_b.hits
    assert engine_a.misses == engine_b.misses


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_make_engine_rejects_unknown_name(workload):
    tree = workload.tree
    tree.ensure_popularity()
    placement = registry.create("drop").partition(tree, 4)
    assert isinstance(make_engine("fast", tree, placement), FastRoutingEngine)
    for gone in ("legacy", "warp"):
        with pytest.raises(ValueError):
            make_engine(gone, tree, placement)


def test_hit_rate_counts_owner_index_lookups(workload):
    sim = _d2_sim(workload)
    client = sim.clients[0]
    root = next(iter(sim.placement.subtree_owner))
    assert sim.engine.hit_rate == 0.0
    sim.plan_route(client, root, OpType.READ)
    assert sim.engine.misses == 1
    sim.plan_route(client, root, OpType.READ)
    assert sim.engine.hits == 1
    assert sim.engine.hit_rate == 0.5
