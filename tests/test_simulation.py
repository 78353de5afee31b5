"""Tests for the discrete-event replay harness."""

import dataclasses
import gc
import hashlib
import pathlib
import random
import re
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.baselines import HashScheme, StaticSubtreeScheme
from repro.chaos.history import OpHistory
from repro.core import D2TreeScheme, NamespaceTree
from repro.core.namespace import PopularityEstimate
from repro.placement import Migration, Placement
from repro.simulation import (
    ClusterSimulator,
    FaultPlan,
    SimulationConfig,
    replay_rounds,
    simulate,
    summarize_latencies,
)
from repro.simulation import runner
from repro.traces import (
    DatasetProfile,
    OpType,
    TraceGenerator,
    TraceRecord,
    dumps_trace,
    loads_trace,
)
from repro.transport import FaultFabric
from tests.conftest import build_random_tree, post_order_totals, subtree_size, trace_of
from tests.history_sink import HistorySink


# ----------------------------------------------------------------------
# Network and latency primitives
# ----------------------------------------------------------------------
def test_network_model(tiny_dtr_workload):
    # The simulator replays against the shared fault fabric itself, seeded
    # from the run seed and fault-free until a fault installs something.
    sim = ClusterSimulator(
        D2TreeScheme(), tiny_dtr_workload, 4, SimulationConfig(hop_latency=0.01)
    )
    assert type(sim.network) is FaultFabric and not sim.network.faulty
    assert sim.network._rng.getstate() == FaultFabric(seed=7)._rng.getstate()


def test_network_validation(tiny_dtr_workload):
    for bad in (dict(hop_latency=-1), dict(service_time=0.0)):
        with pytest.raises(ValueError):
            ClusterSimulator(D2TreeScheme(), tiny_dtr_workload, 4, SimulationConfig(**bad))


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
    node = sim.tree.children(sim.tree.root)[0]
    cost = FAST.migration_work * subtree_size(sim.tree, node) * FAST.service_time
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
        plan = sim.engine.plan(client, node, record.op)
        assert plan.visits
        final = plan.visits[-1].server
        assert final in sim.placement.servers_of(node)


def test_d2_update_plans_lock_and_fanout(tiny_dtr_workload):
    from repro.traces import OpType

    sim = ClusterSimulator(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    client = sim.clients[0]
    gl_node = next(iter(sim.placement.split.global_layer))
    plan = sim.engine.plan(client, gl_node, OpType.UPDATE)
    assert plan.lock_key == gl_node
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


def test_a_generated_workload_is_replayed_without_resolving_a_path(monkeypatch):
    """The generator hands its workload the node id of every traced path,
    so a replay resolves none; a workload with another trace, or over a
    grown tree, resolves its trace afresh on first use."""
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=900, scale=3e-4), seed=21, create_fraction=0.08
    )
    workload = TraceGenerator(profile, num_clients=16).generate()
    tree = workload.tree
    resolve = NamespaceTree.resolve
    calls = []

    def counted(self, paths):
        calls.append(self)
        return resolve(self, paths)

    sim = ClusterSimulator(D2TreeScheme(), workload, 4, FAST)
    monkeypatch.setattr(NamespaceTree, "resolve", counted)
    result = sim.run()
    assert calls == [] and result.operations == len(workload.trace)

    def column(trace):
        return array("i", [-1 if n is None else n for n in resolve(tree, trace.paths)])

    assert workload.node_ids() == column(workload.trace)
    sliced = dataclasses.replace(workload, trace=workload.trace.slice(300, 1200))
    assert sliced.node_ids() == column(sliced.trace) and len(calls) == 1
    assert sliced.node_ids() is sliced.node_ids() and len(calls) == 1
    ghost = dataclasses.replace(
        workload, trace=trace_of("t", [TraceRecord(0.0, OpType.READ, "/ghost/a")])
    )
    assert ghost.node_ids() == array("i", [-1])
    tree.add_path("/ghost/a")
    assert ghost.node_ids() == column(ghost.trace) != array("i", [-1])


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
        sink = HistorySink()
        history.listen(sink)
        try:
            return sim.run().to_dict(), sink.events
        finally:
            sim.close()

    first = replay(tmp_path / "first")
    assert replay(tmp_path / "second") == first
    assert first[0]["availability"]["retries"] > 0 and first[0]["durability"]
    assert create_workload.late_created_paths


def test_arena_matches_object_aggregation(random_tree):
    """NodeArena's reverse-id pass makes the object walk's additions in its
    order: popularity totals are bit-equal, and the depth and size columns
    equal every node's depth and subtree size, also once the tree has grown
    and the arena is re-issued."""

    def assert_columns(arena):
        depths, sizes = arena.depths(), arena.subtree_sizes()
        assert len(depths) == len(sizes) == arena.size == len(random_tree)
        assert all(depths[n] == len(random_tree.ancestors(n)) for n in random_tree)
        assert all(sizes[n] == subtree_size(random_tree, n) for n in random_tree)

    def assert_write_back(arena):
        for node in random_tree:
            random_tree.individual_popularity[node] *= 1.7
        individual = arena.individual_popularity()
        arena.write_popularity(individual)
        want = post_order_totals(random_tree, individual)
        assert [random_tree.popularity[n] for n in random_tree] == want

    arena = random_tree.arena()
    assert arena is random_tree.arena()  # cached while the tree keeps its size
    assert_columns(arena)
    assert_write_back(arena)

    # Growth, early directories included: the arena is re-issued and exact.
    early = next(
        n for n in random_tree
        if random_tree.is_directory(n) and len(random_tree.ancestors(n)) >= 2
    )
    random_tree.add_child(early, "late.txt", individual_popularity=0.3)
    random_tree.add_path("/arena-dst/inner/x.txt", individual_popularity=0.1)
    grown = random_tree.arena()
    assert grown is not arena and grown.size == arena.size + 4
    assert_columns(grown)
    assert_write_back(grown)


def _object_round(tree, window, blend):
    """One round's popularity update the way the object walk does it: the
    reference the column round must equal bit for bit."""
    for node in tree:
        tree.individual_popularity[node] = (
            (1 - blend) * tree.individual_popularity[node]
            + blend * float(window[node])
        )
    totals = post_order_totals(tree, [tree.individual_popularity[n] for n in tree])
    for node, total in zip(tree, totals):
        tree.popularity[node] = total


@given(st.integers(min_value=0, max_value=500), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_column_round_matches_object_round(seed, blend):
    """Fold + materialise over the estimate's columns leaves every node
    with exactly (``==``) the ``individual_popularity`` / ``popularity``
    the object loop and the object post-order walk give it, round after
    round; one materialise after all the rounds (the lazy decay) agrees to
    rounding; and the size column is each node's subtree walk."""
    tree = build_random_tree(40, seed)
    everyone = list(tree)
    arena = tree.arena()
    rng = random.Random(seed)
    windows = [Counter(rng.choices(list(tree), k=12)) for _ in range(3)]

    def snapshot():
        return [(tree.individual_popularity[n], tree.popularity[n]) for n in everyone]

    start = [tree.individual_popularity[n] for n in everyone]
    expected = []
    for window in windows:
        _object_round(tree, window, blend)
        expected.append(snapshot())

    def restart():
        for node, popularity in zip(everyone, start):
            tree.individual_popularity[node] = popularity
        assert arena.individual_popularity() == array("d", start)
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
    assert all(sizes[node] == subtree_size(tree, node) for node in tree)


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


def _replay_peak(workload, ops):
    """tracemalloc's peak over one ``run()`` of the first ``ops`` ops of
    ``workload``, above what set-up (the simulator's construction) left."""
    sim = ClusterSimulator(
        registry.create("d2-tree"), workload.truncated(ops), 8, SimulationConfig(seed=7)
    )
    try:
        gc.collect()
        tracemalloc.start()
        try:
            sim.run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        sim.close()


def replay_peak_bytes_per_op(short=3_000, long=15_000):
    """Bytes per op ``run()`` peaks at, from the growth of its peak between
    a replay of the first ``short`` and of the first ``long`` ops of one
    DTR trace."""
    profile = DatasetProfile.dtr(num_nodes=1000).scaled(num_operations=long)
    workload = TraceGenerator(profile).generate()
    grown = _replay_peak(workload, long) - _replay_peak(workload, short)
    return grown / (long - short)


def test_a_replay_peaks_at_most_35_bytes_per_op():
    """The latency column (8 B/op; the summary sorts its runs in place)
    and, at this length, the clients' index caches still filling: 23.6 B/op
    on CPython 3.11. The gate stays where it was set when the summary
    sorted the runs into a copy of its own (8 B/op more: 29.0 on CPython
    3.11-3.13 and 32.0 on 3.10, gated at the larger +10 %). A list of
    float objects and a whole-sample ``sorted()`` peaked at 54.9 (58.0 on
    3.10)."""
    assert replay_peak_bytes_per_op() <= 35


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


@pytest.mark.parametrize("name", registry.available())
def test_replay_rounds_resolves_no_path(name, monkeypatch):
    """A generated workload holds every trace path's node id, so the
    rounds are counted from the path-id column: no path is resolved."""
    workload = TraceGenerator(DatasetProfile.lmbe(num_nodes=1500, scale=2e-5)).generate()
    calls = []
    resolve = NamespaceTree.resolve

    def counted(tree, paths):
        calls.append(1)
        return resolve(tree, paths)

    monkeypatch.setattr(NamespaceTree, "resolve", counted)
    replay_rounds(registry.create(name), workload, 4, rounds=6)
    assert calls == []


def ghosted_dtr_workload():
    """A small DTR workload whose trace holds one path the tree lacks,
    spliced in through the trace file so the test reads the same either
    side of a change to how a trace is held in memory."""
    workload = TraceGenerator(DatasetProfile.dtr(num_nodes=1500, scale=6e-5)).generate()
    lines = dumps_trace(workload.trace).split("\n")
    lines.insert(len(lines) // 3, "1.0\tupdate\t3\t/ghost/never-created")
    return dataclasses.replace(workload, trace=loads_trace("\n".join(lines)))


#: Per scheme, sha256 (16 hex digits) of every round's served loads and
#: balance degree under ``replay_rounds`` on :func:`ghosted_dtr_workload`.
PINNED_ROUNDS = {
    "d2-tree": "dffeeaa31869b9ba",
    "drop": "efb1dbca8402c460",
}


@pytest.mark.parametrize("name", sorted(PINNED_ROUNDS))
def test_replay_rounds_are_pinned(name, monkeypatch):
    workload = ghosted_dtr_workload()
    assert workload.tree.lookup("/ghost/never-created") is None
    served = []
    served_loads = runner._served_loads

    def record(placement, counts):
        loads = served_loads(placement, counts)
        served.append(loads)
        return loads

    monkeypatch.setattr(runner, "_served_loads", record)
    trajectory = replay_rounds(registry.create(name), workload, 4, rounds=6)
    assert len(served) == len(trajectory.per_round) == 5
    text = "\n".join(
        f"{loads!r} {balance!r}" for loads, balance in zip(served, trajectory.per_round)
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_ROUNDS[name]


def test_global_layer_update_lock_waits_are_pinned():
    """An update-heavy RA replay under D2-Tree: every global-layer UPDATE
    takes the node's lock, so the summed wait pins which ops contend."""
    profile = dataclasses.replace(
        DatasetProfile.ra(num_nodes=1500, scale=2e-5),
        read_fraction=0.4, write_fraction=0.1, update_fraction=0.5,
    )
    workload = TraceGenerator(profile, num_clients=40).generate()
    result = simulate(
        registry.create("d2-tree"), workload, 4, SimulationConfig(num_clients=40, seed=5)
    )
    assert result.operations == 5198
    assert result.lock_waits.hex() == "0x1.acd013a92a10cp+1"
