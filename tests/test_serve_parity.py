"""Transport parity: the simulator and AsyncioTransport agree on outcomes.

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
from repro.chaos import (
    CHAOS_HEARTBEAT_INTERVAL,
    CHAOS_HEARTBEAT_TIMEOUT,
    CorpusCase,
    run_case,
)
from repro.chaos.history import OpHistory
from repro.cluster.index import RoutingIndex
from repro.simulation import (
    ClusterSimulator,
    FaultEvent,
    FaultPlan,
    SimulationConfig,
    simulate,
)
from repro.traces import DatasetProfile, load_workload
from repro.storage import WalStore
from repro.transport.live import LiveCluster, LiveConfig, LiveMDS
from repro.transport.loadgen import LoadConfig, LoadGenerator
from repro.transport.serve import serve_workload
from tests.conftest import live_audit

NUM_SERVERS = 3
NUM_MONITORS = 3
SEED = 7


def recipe(faults, store="memory"):
    """The module's workload and cluster as one chaos recipe."""
    return CorpusCase(
        scheme="d2-tree", trace="dtr", nodes=300, scale=1e-4, seed=SEED,
        num_servers=NUM_SERVERS, num_monitors=NUM_MONITORS, faults=faults,
        ops=500, store=store,
    )


@pytest.fixture(scope="module")
def workload():
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=300, scale=1e-4), seed=SEED
    )
    bundle = load_workload(profile)
    workload = dataclasses.replace(bundle, trace=bundle.trace.slice(0, 500))
    assert workload.trace == recipe([]).workload().trace
    return workload


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
                workload.trace,
                LoadConfig(rate=4000.0, seed=SEED),
            )
            cluster.control.history = generator.history
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
                "violations": live_audit(cluster, generator),
                "ownership": _ownership(cluster.placement),
                "epoch": cluster.group.epoch,
                "control": cluster.control,
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

            await cluster.apply_fault(FaultEvent.parse("crash:1@ops=0"))
            await wait_for(lambda: cluster.group.is_dead(1))
            assert 1 not in cluster.placement.subtree_owner.values()
            await cluster.apply_fault(FaultEvent.parse("recover:1@ops=0"))
            assert not cluster.group.is_dead(1)
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

    case = run_case(recipe(plan.to_specs()))
    # Same verdict from the simulated transport under the same plan.
    assert case.violations == []
    assert case.ok


def test_live_recover_clears_degradation_and_readmits_before_quiesce(workload):
    """`recover:S` on a server that is up but degraded clears fail_slow,
    the drop_heartbeats mute and loss/delay on its links, and re-admits a
    mute-evicted server on the spot — as the fault grammar promises and the
    simulator always did. (Live used to ignore it: only quiesce repaired.)"""

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
            for spec in (
                "fail_slow:1@ops=0:x8", "loss:1@ops=0:p0.1",
                "delay:1@ops=0:d0.001", "drop_heartbeats:2@ops=0",
            ):
                await cluster.apply_fault(FaultEvent.parse(spec))
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while not cluster.group.is_dead(2):
                assert loop.time() < deadline, "mute never led to eviction"
                await asyncio.sleep(0.01)
            assert 2 not in cluster.placement.subtree_owner.values()

            await cluster.apply_fault(FaultEvent.parse("recover:1@ops=0"))
            await cluster.apply_fault(FaultEvent.parse("recover:2@ops=0"))
            states = [mds.state for mds in cluster.servers]
            assert [s.slow_factor for s in states] == [1.0] * NUM_SERVERS
            assert not any(s.muted for s in states)
            assert not cluster.transport.faulty      # loss, delay, mute gone
            assert not cluster.group.is_dead(2)
            assert 2 in cluster.placement.subtree_owner.values()
            assert cluster.control.availability.false_detections == 1
            assert cluster.control.availability.rejoins == 2
        finally:
            await cluster.stop()

    asyncio.run(go())


def test_kill9_on_a_down_server_means_the_same_thing_in_both_transports(workload):
    """One FaultPlan, both transports: the process `crash:1` took down has
    no volatile state left for `kill9:1` to wipe, so the crash counts once,
    no history `wipe` is recorded, and after `recover:1` the server's flags
    agree."""
    plan = FaultPlan.parse(
        ["crash:1@ops=100", "kill9:1@ops=200", "recover:1@ops=350"]
    )

    def flags(control):
        server = control.servers[1]
        return (
            server.alive, server.lost_volatile, server.muted,
            server.slow_factor, control.availability.crashes,
            control.history.wipes,
        )

    live = _live_run(workload, plan=plan)
    assert live["violations"] == []   # no wipe, so no ack may be excused

    sim = ClusterSimulator(
        registry.create("d2-tree"),
        workload,
        NUM_SERVERS,
        SimulationConfig(
            fault_plan=plan,
            num_monitors=NUM_MONITORS,
            heartbeat_interval=CHAOS_HEARTBEAT_INTERVAL,
            heartbeat_timeout=CHAOS_HEARTBEAT_TIMEOUT,
            seed=SEED,
        ),
    )
    sim.control.history = OpHistory()
    sim.run()

    assert flags(live["control"]) == flags(sim.control) == (
        True, False, False, 1.0, 1, 0,
    )


def test_leader_back_inside_the_lease_evicts_nobody_in_either_transport(
    workload,
):
    """`monitor_crash:0` then `monitor_recover:0` more than a heartbeat
    timeout later but inside the lease: no takeover, and no server is
    evicted for the beats the downed leader could not hear. The simulator
    delivers a grid tick's beats before its round; live, the first round
    after the recover can run before any MDS has redialled and beaten, so
    the test runs the two back to back under the driver's lock."""
    crash, recover = "monitor_crash:0@t=0.02", "monitor_recover:0@t=0.22"
    case = dataclasses.replace(
        recipe([crash, recover]), heartbeat_timeout=0.08, lease_timeout=5.0,
    )

    sim = ClusterSimulator(
        registry.create("d2-tree"), workload, NUM_SERVERS, case.sim_config(),
    )
    sim.run()
    assert sim.monitor.replica_alive == [True] * NUM_MONITORS

    async def go():
        cluster = LiveCluster(
            registry.create("d2-tree"), workload, case.live_configs()[0],
        )
        await cluster.start()
        try:
            loop = asyncio.get_running_loop()
            await cluster.apply_fault(FaultEvent.parse(crash))
            await asyncio.sleep(0.2)
            async with cluster._deciding:
                cluster.control.apply_fault(
                    FaultEvent.parse(recover), loop.time()
                )
                cluster.control.round(loop.time())
                await cluster._reconcile()
            await asyncio.sleep(0.2)   # rounds and beats run as normal
            return cluster.control
        finally:
            await cluster.stop()

    live = asyncio.run(go())
    for control in (sim.control, live):
        assert control.monitor.failovers == 0
        assert control.availability.false_detections == 0
        assert len(control.monitor.journal) == 0


# ----------------------------------------------------------------------
# One checker, one verdict: a planted defect reads the same in both modes
# ----------------------------------------------------------------------
PLANTED_OP = 5


def _plant_never_invoked(monkeypatch):
    """The op log loses every record of one op: only accounting sees it."""
    for name in ("invoke", "retry", "ok", "fail", "indeterminate"):
        record = getattr(OpHistory, name)

        def skipping(history, op_id, *args, _record=record, **kwargs):
            if op_id != PLANTED_OP:
                return _record(history, op_id, *args, **kwargs)

        monkeypatch.setattr(OpHistory, name, skipping)


def _plant_double_terminal(monkeypatch):
    """One ack is recorded twice (the copy outside any client session)."""
    ok = OpHistory.ok

    def doubled(history, op_id, client, *args, **kwargs):
        ok(history, op_id, client, *args, **kwargs)
        if op_id == PLANTED_OP:
            ok(history, op_id, -1, *args, **kwargs)

    monkeypatch.setattr(OpHistory, "ok", doubled)


def _plant_lost_ledger_entry(monkeypatch):
    """The acking server keeps no record of one ack: the simulator's WAL
    skips its record (durable op ids are 1-based), a live MDS forgets it."""
    append_ack = WalStore.append_ack
    answer = LiveMDS._answer

    def skipping_append(store, server, op, *args):
        if op != PLANTED_OP + 1:
            append_ack(store, server, op, *args)

    def forgetful_answer(mds, link, request):
        answer(mds, link, request)
        mds.acked.discard(PLANTED_OP)

    monkeypatch.setattr(WalStore, "append_ack", skipping_append)
    monkeypatch.setattr(LiveMDS, "_answer", forgetful_answer)


@pytest.mark.parametrize("plant,store,violation", [
    (_plant_never_invoked, "memory",
     f"accounting: 1 of 500 trace ops never invoked (e.g. ops [{PLANTED_OP}])"),
    (_plant_double_terminal, "memory",
     f"history: 1 ops with multiple terminal events (e.g. op {PLANTED_OP}: "
     "['ok']) — exactly-once broken"),
    (_plant_lost_ledger_entry, "wal",
     "history: 1 acked ops missing from the acking server's ledger "
     f"(e.g. ops [{PLANTED_OP}]) — acked mutation lost"),
], ids=["never_invoked", "double_terminal", "lost_ledger_entry"])
def test_a_planted_defect_gets_one_verdict_through_both_transports(
    workload, monkeypatch, plant, store, violation
):
    plant(monkeypatch)
    case = run_case(recipe([], store))
    live = serve_workload(
        registry.create("d2-tree"), workload,
        LiveConfig(num_servers=NUM_SERVERS, num_monitors=NUM_MONITORS, seed=SEED),
        LoadConfig(rate=4000.0, seed=SEED),
    )
    assert case.violations == live.violations == [violation]
