"""Transport parity: SimNetwork and AsyncioTransport agree on outcomes.

The unified Transport API's core promise: the same seeded workload driven
through the discrete-event simulator and through a real asyncio cluster
reaches the same logical end state — every op acked exactly once, the
same final namespace ownership, and the same safety-invariant verdicts
when faults are injected. Wall-clock numbers differ (that is what
``repro validate`` measures); *correctness* must not.
"""

import asyncio
import dataclasses

import pytest

from repro import registry
from repro.chaos import run_case
from repro.cluster.index import RoutingIndex
from repro.simulation import FaultPlan, SimulationConfig, simulate
from repro.traces import DatasetProfile, load_workload
from repro.transport.live import (
    LiveCluster,
    LiveConfig,
    check_invariants,
)
from repro.transport.loadgen import LoadConfig, LoadGenerator, trace_ops

NUM_SERVERS = 3
NUM_MONITORS = 3
SEED = 7


@pytest.fixture(scope="module")
def workload():
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=300, scale=1e-4), seed=SEED
    )
    bundle = load_workload(profile)
    return dataclasses.replace(bundle, trace=bundle.trace.slice(0, 500))


def _ownership(placement):
    """The authoritative two-layer index of a placement, as plain dicts."""
    index = RoutingIndex.of(placement)
    return index.global_layer, index.roots


def _assert_every_mds_resolves_authoritatively(cluster, tree):
    """Every node of the tree, asked of every MDS, lands on servers the
    authoritative placement stores it on."""
    placement = cluster.placement
    for mds in cluster.servers:
        for node in tree:
            entry = mds.index.resolve(node.path)
            assert entry is not None, (mds.server_id, node.path)
            assert set(entry[1]) <= set(placement.servers_of(node)), (
                mds.server_id, node.path, entry,
            )


def _live_run(workload, plan=None):
    """Boot a live cluster, drive the trace, quiesce, snapshot state."""

    async def go():
        cluster = LiveCluster(
            registry.create("d2-tree"),
            workload,
            LiveConfig(
                num_servers=NUM_SERVERS,
                num_monitors=NUM_MONITORS,
                seed=SEED,
            ),
        )
        await cluster.start()
        try:
            generator = LoadGenerator(
                cluster.transport,
                NUM_SERVERS,
                trace_ops(workload.trace),
                LoadConfig(rate=4000.0, seed=SEED),
            )
            fault_task = None
            if plan:
                fault_task = asyncio.create_task(
                    cluster.run_fault_plan(plan, lambda: generator.completed)
                )
            load = await generator.run()
            if fault_task is not None:
                fault_task.cancel()
                await cluster.quiesce()
            return {
                "load": load,
                "violations": check_invariants(cluster, load),
                "ownership": _ownership(cluster.placement),
                "epoch": cluster.group.epoch,
            }
        finally:
            await cluster.stop()

    return asyncio.run(go())


def test_fault_free_parity(workload):
    live = _live_run(workload)
    sim = simulate(
        registry.create("d2-tree"),
        workload,
        NUM_SERVERS,
        SimulationConfig(
            adjust_every_ops=0,
            num_monitors=NUM_MONITORS,
            seed=SEED,
        ),
    )

    # Same acked-op set: both transports acknowledge every op exactly once.
    total = len(workload.trace)
    assert live["load"].acked_ids == set(range(total))
    assert live["load"].failed == 0
    assert sim.operations == total
    assert sim.failed_operations == 0

    # Same final namespace ownership: without faults or dynamic
    # adjustment, neither transport moves anything — both end exactly at
    # the scheme's deterministic initial partition.
    expected = _ownership(
        registry.create("d2-tree").partition(workload.tree, NUM_SERVERS)
    )
    assert live["ownership"] == expected
    assert live["violations"] == []


def test_every_live_mds_converges_to_the_authoritative_map(workload):
    """The index broadcast must leave every MDS resolving every path onto
    the servers that really store it — after boot, and again after a
    crash -> evict -> recover -> rejoin cycle moved subtrees twice. A stale
    index would strand redirects."""

    async def wait_for(condition, timeout=5.0):
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not condition():
            assert loop.time() < deadline, "cluster did not converge in time"
            await asyncio.sleep(0.01)

    async def go():
        cluster = LiveCluster(
            registry.create("d2-tree"),
            workload,
            LiveConfig(
                num_servers=NUM_SERVERS,
                num_monitors=NUM_MONITORS,
                heartbeat_interval=0.01,
                heartbeat_timeout=0.08,
                seed=SEED,
            ),
        )
        await cluster.start()
        try:
            await wait_for(lambda: all(len(s.index) for s in cluster.servers))
            _assert_every_mds_resolves_authoritatively(cluster, workload.tree)
            boot_global_layer = _ownership(cluster.placement)[0]

            await cluster.servers[1].crash()
            await wait_for(lambda: 1 in cluster._evicted)
            assert 1 not in cluster.placement.subtree_owner.values()
            await cluster.servers[1].recover()
            await wait_for(
                lambda: not cluster._evicted and not cluster.group.is_dead(1)
            )
            await cluster.quiesce()
            assert 1 in cluster.placement.subtree_owner.values()
            _assert_every_mds_resolves_authoritatively(cluster, workload.tree)
            # Every MDS holds exactly the current index, and the global
            # layer is back on every server it booted on.
            current = _ownership(cluster.placement)
            for mds in cluster.servers:
                assert (mds.index.global_layer, mds.index.roots) == current
            assert current[0] == boot_global_layer
        finally:
            await cluster.stop()

    asyncio.run(go())


def test_partition_fault_produces_same_invariant_verdicts(workload):
    plan = FaultPlan.parse([
        "partition:{0}|{1,2,m0,m1,m2}@ops=100",
        "heal:*@ops=300",
    ])

    live = _live_run(workload, plan=plan)
    assert live["violations"] == []
    # Post-heal the cluster must re-converge on one authoritative map.
    assert live["load"].acked == len(workload.trace)

    case = run_case(
        "d2-tree",
        workload,
        NUM_SERVERS,
        SEED,
        num_monitors=NUM_MONITORS,
        plan=plan,
    )
    # Same verdict from the simulated transport under the same plan.
    assert case.violations == []
    assert case.ok
