"""Tests for the discrete-event replay harness."""

import dataclasses
import pathlib
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HashScheme, StaticSubtreeScheme
from repro.chaos.history import OpHistory
from repro.core import D2TreeScheme
from repro.core.namespace import PopularityEstimate
from repro.placement import Migration, Placement
from repro.simulation import (
    ClusterSimulator,
    FaultPlan,
    SimNetwork,
    SimulationConfig,
    replay_rounds,
    simulate,
    summarize_latencies,
)
from repro.traces import DatasetProfile, TraceGenerator
from tests.test_mutation_properties import (
    apply_mutations,
    build_tree,
    mutation_scripts,
)


# ----------------------------------------------------------------------
# Network and latency primitives
# ----------------------------------------------------------------------
def test_network_model():
    net = SimNetwork(hop_latency=0.01)
    assert net.hop() == 0.01


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
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


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


# ----------------------------------------------------------------------
# Server CPU state: the simulator's busy_until / busy_time / served lists
# ----------------------------------------------------------------------
#: Whole-second costs and no lock service: every time below is exact.
UNIT = dict(
    service_time=1.0, lock_acquire_latency=0.0, lock_hold_time=0.0,
    adjust_every_ops=0,
)


def test_timeline_fifo(tiny_dtr_workload):
    """One server, five clients, no network: the busy-until clock is a FIFO
    queue that never idles (``test_cluster.py::test_server_fifo_queueing``
    has the per-op view of the same queue)."""
    ops = len(tiny_dtr_workload.trace)
    config = SimulationConfig(num_clients=5, hop_latency=0.0, **UNIT)
    sim = ClusterSimulator(D2TreeScheme(), tiny_dtr_workload, 1, config)
    result = sim.run()
    assert result.makespan == float(ops)
    assert sim.served == result.server_visits == [ops]
    assert sim.busy_time == sim.busy_until == [float(ops)]


def test_timeline_utilization(tiny_dtr_workload):
    """One client half a second away: the server idles while request and
    reply travel (an idle gap, then serve), so it is busy half the run."""
    ops = len(tiny_dtr_workload.trace)
    config = SimulationConfig(num_clients=1, hop_latency=0.5, **UNIT)
    sim = ClusterSimulator(D2TreeScheme(), tiny_dtr_workload, 1, config)
    result = sim.run()
    assert result.makespan == 2.0 * ops
    assert sim.busy_time == [float(ops)]
    assert sim.busy_until == [2.0 * ops - 0.5]  # the last reply's hop
    assert result.latency.maximum == 2.0  # nothing ever queued
    assert result.server_utilization == [0.5]
    # A run that served nothing has no horizon to be busy over.
    idle = simulate(D2TreeScheme(), tiny_dtr_workload.truncated(0), 2, config)
    assert idle.makespan == 0.0 and idle.server_utilization == [0.0, 0.0]


def test_timeline_background_appends_without_gap(tiny_dtr_workload):
    """Migration CPU joins each live endpoint's queue tail: on an idle
    server it lands in the past (absorbed for free) instead of
    fast-forwarding the clock to the round's time; a dead endpoint does no
    work."""
    sim = ClusterSimulator(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    node = sim.tree.root.children[0]
    cost = FAST.migration_work * node.subtree_size() * FAST.service_time
    sim.busy_until[0] = 1.0  # server 0 has a backlog, server 1 is idle
    sim._charge_migrations([Migration(node, 0, 1)])
    assert sim.busy_until == [1.0 + cost, cost, 0.0, 0.0]
    assert sim.busy_time == [cost, cost, 0.0, 0.0]
    assert sim.served == [1, 1, 0, 0]
    sim.servers[0].fail()
    sim._charge_migrations([Migration(node, 0, 1)])
    assert sim.served == [1, 2, 0, 0] and sim.busy_time[0] == cost


def _record_charges(sim):
    """Wrap ``sim._charge_migrations``: for every call that moved something,
    the moves and the three CPU lists before and after it."""
    calls = []
    charge = sim._charge_migrations

    def recording(moves):
        before = (list(sim.busy_until), list(sim.busy_time), list(sim.served))
        charge(moves)
        if moves:
            after = (list(sim.busy_until), list(sim.busy_time), list(sim.served))
            calls.append((list(moves), before, after))

    sim._charge_migrations = recording
    return calls


def _check_charge(result, moves, before, after, paying):
    """One recorded ``_charge_migrations`` call: each server in ``paying``
    booked gap-free background work, nobody else booked anything, and the
    loop's next visits queued behind it."""
    for sid in range(result.num_servers):
        d_until, d_time, d_served = (
            after[col][sid] - before[col][sid] for col in range(3)
        )
        if sid in paying:
            # A moved node costs 10 s of CPU here; the fault-free run takes
            # under one second.
            assert d_served >= 1 and d_time >= 10.0
            assert d_until == pytest.approx(d_time)  # appended, never fast-forwarded
        else:
            assert (d_until, d_time, d_served) == (0.0, 0.0, 0)
    # Nothing to copy in: the charged clocks are the ones the next visits
    # were served on, so the run lasts past the largest of them.
    assert result.makespan > max(after[0]) > 10.0


def test_adjust_round_charges_are_on_the_loops_lists(tiny_dtr_workload):
    config = dataclasses.replace(FAST, migration_work=1e4)
    sim = ClusterSimulator(D2TreeScheme(), tiny_dtr_workload, 4, config)
    calls = _record_charges(sim)
    result = sim.run()
    moves, before, after = calls[0]
    # Nothing to copy out: the visits of the 400 ops completed before the
    # first round were already on the simulator's lists when it ran.
    assert sum(before[2]) >= 400 and min(before[0]) > 0.0
    paying = {m.source for m in moves} | {m.target for m in moves}
    _check_charge(result, moves, before, after, paying)
    assert result.server_visits == sim.served


def test_evict_charges_the_receiving_servers_before_the_next_visit(
    tiny_dtr_workload,
):
    config = dataclasses.replace(
        FAST, adjust_every_ops=0, migration_work=1e4,
        fault_plan=FaultPlan.parse(["crash:1@ops=300"]),
    )
    sim = ClusterSimulator(D2TreeScheme(), tiny_dtr_workload, 4, config)
    calls = _record_charges(sim)
    result = sim.run()
    assert result.availability.detection_latency[1] > 0.0
    (moves, before, after), = calls  # the re-home that followed detection
    assert {m.source for m in moves} == {1}
    # The dead source does no work: only the receiving side pays.
    _check_charge(result, moves, before, after, {m.target for m in moves})


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
# The replay loop and the columns it stands on. The model the loop
# implements is pinned by tests/test_golden.py (fault-free and faulted), the
# chaos seeds and the corpus; these test its building blocks.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def create_workload():
    """Small workload with CREATE conversions (exercises place_created)."""
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=900, scale=3e-4),
        seed=21,
        create_fraction=0.08,
    )
    return TraceGenerator(profile, num_clients=16).generate()


def test_replay_with_every_hook_on_is_deterministic(create_workload, tmp_path):
    """The same CREATE-converting workload replayed twice with every hook on
    — a fault plan, a WAL store, a recorded history — gives the same result
    and the same history: nothing in the loop depends on a previous run, the
    store directory or iteration order."""
    faults = [
        "kill9:1@ops=300", "recover:1@ops=1500", "loss:3@ops=900:p0.3",
        "recover:3@ops=2200", "crash:4@t=0.4", "recover:4@t=0.9",
    ]

    def replay(store_dir):
        sim = ClusterSimulator(
            D2TreeScheme(), create_workload, 6,
            SimulationConfig(
                fault_plan=FaultPlan.parse(faults), num_monitors=3,
                store="wal", store_dir=str(store_dir),
            ),
        )
        history = sim.control.history = OpHistory()
        try:
            return sim.run().to_dict(), history.events
        finally:
            sim.close()

    first = replay(tmp_path / "first")
    assert replay(tmp_path / "second") == first
    assert first[0]["availability"]["retries"] > 0 and first[0]["durability"]
    assert create_workload.late_created_paths


def test_arena_matches_object_aggregation(random_tree):
    """NodeArena replays Def. 2 aggregation in the object walk's exact
    addition order: popularity totals are bit-equal, including after a
    structural mutation invalidates and rebuilds the arena."""
    arena = random_tree.arena()
    assert arena is random_tree.arena()  # cached while structure unchanged
    for node in random_tree:
        node.individual_popularity *= 1.7
    arena.write_popularity(arena.individual_popularity())
    got = {n.path: n.popularity for n in random_tree}
    random_tree.aggregate_popularity()
    assert {n.path: n.popularity for n in random_tree} == got

    # Structural change: the arena must be rebuilt and stay exact.
    target = random_tree.add_path("/arena-dst", is_directory=True)
    victim = next(
        n for n in random_tree
        if n.is_directory and n.depth >= 2 and n.children
    )
    random_tree.move_node(victim, target)
    rebuilt = random_tree.arena()
    assert rebuilt is not arena
    rebuilt.write_popularity(rebuilt.individual_popularity())
    got = {n.path: n.popularity for n in random_tree}
    random_tree.aggregate_popularity()
    assert {n.path: n.popularity for n in random_tree} == got


def _object_round(tree, window, blend):
    """One round's popularity update the way the object walk does it: the
    reference the column round must equal bit for bit."""
    for node in tree:
        node.individual_popularity = (
            (1 - blend) * node.individual_popularity
            + blend * float(window[node])
        )
    tree.aggregate_popularity()


@given(
    st.integers(min_value=0, max_value=500),
    mutation_scripts,
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_column_round_matches_object_round(seed, script, blend):
    """Fold + materialise over the estimate's columns leaves every node —
    moved, removed or untouched — with exactly (``==``) the
    ``individual_popularity`` / ``popularity`` the object loop and
    ``NamespaceTree.aggregate_popularity`` give it, round after round; one
    materialise after all the rounds (the lazy decay) agrees to rounding;
    and the size column is ``subtree_size()`` for every live node."""
    tree = build_tree(seed, 40)
    everyone = list(tree)  # id order; removed nodes stay in the comparison
    apply_mutations(tree, script, seed)
    arena = tree.arena()
    rng = random.Random(seed)
    windows = [Counter(rng.choices(tree.nodes, k=12)) for _ in range(3)]

    def snapshot():
        return [(n.individual_popularity, n.popularity) for n in everyone]

    start = [n.individual_popularity for n in everyone]
    expected = []
    for window in windows:
        _object_round(tree, window, blend)
        expected.append(snapshot())

    def restart():
        for node, popularity in zip(everyone, start):
            node.individual_popularity = popularity
        assert arena.individual_popularity() == start
        return PopularityEstimate(arena, blend)

    estimate = restart()
    for window, want in zip(windows, expected):
        estimate.fold(window)
        estimate.materialise()
        assert snapshot() == want

    estimate = restart()
    for window in windows:
        estimate.fold(window)
    estimate.materialise()
    for got, want in zip(snapshot(), expected[-1]):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    sizes = arena.subtree_sizes()
    assert all(sizes[node.node_id] == node.subtree_size() for node in tree)


def test_server_loads_summed_only_when_a_round_is_recorded(
    create_workload, monkeypatch
):
    """Eq. 2 loads (a whole-tree pass) feed only the round's span and
    telemetry event: an untraced run never sums them, a traced one sums
    them once per round, and the model output is the same either way."""
    calls = []
    real_loads = Placement.loads

    def counting_loads(self, tree=None):
        calls.append(self)
        return real_loads(self, tree)

    monkeypatch.setattr(Placement, "loads", counting_loads)

    def run(**overrides):
        config = SimulationConfig(adjust_every_ops=700, **overrides)
        return simulate(D2TreeScheme(), create_workload, 6, config)

    plain = run()
    assert calls == []
    traced = run(trace_sample=100)
    rounds = traced.operations // 700
    assert rounds >= 2 and len(calls) == rounds
    assert plain.to_dict() == traced.to_dict()


def test_one_replay_loop_one_adjustment_round():
    """Structural pin, in the style of
    ``test_fault_kinds_are_dispatched_in_exactly_one_place``: the runner has
    one event loop and one ``_adjust``, and reads neither of the two inert
    config fields perfbench still names. No second engine, columnar twin,
    path-keyed window or per-round whole-tree window column comes back."""
    source = (SRC / "simulation" / "runner.py").read_text()
    assert len(re.findall(r"^ *while events\b", source, re.M)) == 1
    assert len(re.findall(r"^ *def _run\w*\(", source, re.M)) == 1
    assert len(re.findall(r"^ *def _adjust\b", source, re.M)) == 1
    mentions = [
        line.strip() for line in source.splitlines()
        if re.search(r"simulate_engine|batch_size", line)
    ]
    assert [line.split(":")[0] for line in mentions] == [
        "batch_size", "simulate_engine",
    ]  # the two dataclass field declarations, and no read of either
    for gone in (
        "_columnar_eligible", "_adjust_columnar", "_window_counts",
        "zero_loads", "blend_popularity",
        "_sync_out", "_sync_in", "visit_cost", "path_table",
    ):
        assert gone not in source
    # The cluster model does not reach back into the simulator for a queue.
    for module in ("mds.py", "locks.py"):
        text = (SRC / "cluster" / module).read_text()
        assert not re.search(r"^\s*(from|import) repro\.simulation", text, re.M)


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
