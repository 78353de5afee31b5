"""Columnar simulate engine: bit-parity with the per-op engine.

The columnar engine is a faster evaluation order of the same model — not a
different model — so its entire contract is equality: for every scheme
and eligible configuration, ``simulate_engine="columnar"``
must return a :class:`SimulationResult` equal field-for-field to
``simulate_engine="perop"`` on the same seed. Ineligible runs (faults,
telemetry, durable stores, lossy networks) must fall back (``auto``) or
refuse loudly (``columnar``).
"""

import dataclasses
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.core.namespace import NamespaceTree
from repro.placement import Placement
from repro.simulation import FaultPlan, SimulationConfig
from repro.simulation.runner import simulate
from repro.traces import DatasetProfile, TraceGenerator, iter_op_batches
from repro.traces.columns import OP_CODES
from tests.test_mutation_properties import (
    apply_mutations,
    build_tree,
    mutation_scripts,
)


@pytest.fixture(scope="module")
def workload():
    """Small workload with CREATE conversions (exercises place_created)."""
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=900, scale=3e-4),
        seed=21,
        create_fraction=0.08,
    )
    return TraceGenerator(profile, num_clients=16).generate()


def _run(workload, scheme_name, **overrides):
    config = SimulationConfig(**overrides)
    return simulate(registry.create(scheme_name), workload, 6, config)


# (ids keep the "-fast" suffix they carried while a second route planner
# was parametrized here, so per-test history lines up across that removal)
@pytest.mark.parametrize(
    "scheme_name", registry.available(),
    ids=[f"{name}-fast" for name in registry.available()],
)
def test_columnar_matches_perop(workload, scheme_name):
    columnar = _run(workload, scheme_name, simulate_engine="columnar")
    perop = _run(workload, scheme_name, simulate_engine="perop")
    assert columnar == perop


def test_auto_uses_columnar_when_eligible(workload):
    """Default config is fault-free, so auto == columnar == perop."""
    auto = _run(workload, "d2-tree")
    assert auto == _run(workload, "d2-tree", simulate_engine="columnar")
    assert auto == _run(workload, "d2-tree", simulate_engine="perop")


def test_parity_under_odd_config(workload):
    """Non-default client fleet and adjustment cadence stay bit-equal."""
    kwargs = dict(num_clients=37, adjust_every_ops=700)
    assert _run(
        workload, "d2-tree", simulate_engine="columnar", **kwargs
    ) == _run(workload, "d2-tree", simulate_engine="perop", **kwargs)


def test_streaming_trace_parity(workload):
    """A streamed (never materialized) trace replays bit-identically."""
    streamed = TraceGenerator(workload.profile, num_clients=16).stream()
    columnar = _run(streamed, "d2-tree", simulate_engine="columnar")
    assert columnar == _run(workload, "d2-tree", simulate_engine="perop")


def test_auto_falls_back_on_faults(workload):
    """Faulted runs are ineligible: auto uses per-op, columnar refuses."""
    plan = FaultPlan.parse(["crash:1@ops=500"])
    auto = _run(workload, "d2-tree", fault_plan=plan)
    perop = _run(
        workload, "d2-tree", fault_plan=FaultPlan.parse(["crash:1@ops=500"]),
        simulate_engine="perop",
    )
    assert auto == perop
    with pytest.raises(ValueError):
        _run(
            workload, "d2-tree",
            fault_plan=FaultPlan.parse(["crash:1@ops=500"]),
            simulate_engine="columnar",
        )


def test_unknown_engine_rejected(workload):
    with pytest.raises(ValueError):
        _run(workload, "d2-tree", simulate_engine="simd")


def test_arena_matches_object_aggregation(random_tree):
    """NodeArena replays Def. 2 aggregation in the object walk's exact
    addition order: popularity totals are bit-equal, including after a
    structural mutation invalidates and rebuilds the arena."""
    arena = random_tree.arena()
    assert arena is random_tree.arena()  # cached while structure unchanged
    for node in random_tree:
        node.individual_popularity *= 1.7
    arena.aggregate_popularity()
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
    rebuilt.aggregate_popularity()
    got = {n.path: n.popularity for n in random_tree}
    random_tree.aggregate_popularity()
    assert {n.path: n.popularity for n in random_tree} == got


def _object_round(tree, window, blend):
    """One round's popularity update the way the object walk does it: the
    reference the column round must equal bit for bit."""
    for node in tree:
        node.individual_popularity = (
            (1 - blend) * node.individual_popularity
            + blend * window[node.node_id]
        )
    tree.aggregate_popularity()


@given(
    st.integers(min_value=0, max_value=500),
    mutation_scripts,
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_column_round_matches_object_round(seed, script, blend):
    """Blend + aggregate + write-back over the arena's columns leaves every
    node — moved, removed or untouched — with exactly (``==``) the
    ``individual_popularity`` / ``popularity`` the object loop and
    ``NamespaceTree.aggregate_popularity`` give it, round after round, and
    the size column is ``subtree_size()`` for every live node."""
    tree = build_tree(seed, 40)
    everyone = list(tree)  # id order; removed nodes stay in the comparison
    apply_mutations(tree, script, seed)
    arena = tree.arena()
    rng = random.Random(seed)
    windows = []
    for _ in range(3):
        window = arena.zero_loads()
        for node in rng.choices(tree.nodes, k=12):
            window[node.node_id] += 1.0
        windows.append(window)

    def snapshot():
        return [(n.individual_popularity, n.popularity) for n in everyone]

    start = [n.individual_popularity for n in everyone]
    expected = []
    for window in windows:
        _object_round(tree, window, blend)
        expected.append(snapshot())

    for node, popularity in zip(everyone, start):
        node.individual_popularity = popularity
    column = arena.individual_popularity()
    assert column == start
    for window, want in zip(windows, expected):
        column = arena.blend_popularity(column, window, blend)
        assert snapshot() == want
        assert column == [p for p, _ in want]

    sizes = arena.subtree_sizes()
    assert all(sizes[node.node_id] == node.subtree_size() for node in tree)


def test_server_loads_summed_only_when_a_round_is_recorded(workload, monkeypatch):
    """Eq. 2 loads (a whole-tree pass) feed only the round's span and
    telemetry event: an untraced run never sums them, a traced one sums
    them once per round, and the model output is the same either way."""
    calls = []
    real_loads = Placement.loads

    def counting_loads(self, tree=None):
        calls.append(self)
        return real_loads(self, tree)

    monkeypatch.setattr(Placement, "loads", counting_loads)
    plain = _run(workload, "d2-tree", adjust_every_ops=700)
    assert calls == []
    traced = _run(workload, "d2-tree", adjust_every_ops=700, trace_sample=100)
    rounds = traced.operations // 700
    assert rounds >= 2 and len(calls) == rounds
    assert plain.to_dict() == traced.to_dict()


def test_one_adjustment_round_for_both_engines():
    """Structural pin: the two replay loops share one ``_adjust``; neither
    the columnar twin nor the per-op loop's path-keyed window comes back."""
    source = (
        pathlib.Path(__file__).resolve().parent.parent
        / "src" / "repro" / "simulation" / "runner.py"
    ).read_text()
    assert len(re.findall(r"^ *def _adjust\b", source, re.M)) == 1
    assert "_adjust_columnar" not in source
    assert "_window_counts" not in source


def test_iter_op_batches_roundtrip(workload):
    """Batches concatenate back to the per-record sequence, windows are
    bounded by batch_ops, and unresolvable paths are skipped."""
    tree = workload.tree
    records = workload.trace.records
    flat = []
    for batch in iter_op_batches(records, tree, batch_ops=64):
        assert len(batch) <= 64
        assert (
            len(batch.op_codes) == len(batch.node_ids)
            == len(batch.client_ids) == len(batch.timestamps)
            == len(batch.nodes)
        )
        ops = batch.ops()
        for i in range(len(batch)):
            flat.append(
                (
                    ops[i],
                    batch.nodes[i].path,
                    batch.client_ids[i],
                    batch.timestamps[i],
                )
            )
    expected = [
        (r.op, r.path, r.client_id, r.timestamp)
        for r in records
        if tree.lookup(r.path) is not None
    ]
    assert flat == expected


def test_iter_op_batches_skips_unresolved():
    tree = NamespaceTree()
    tree.add_path("/known")
    from repro.traces import OpType, TraceRecord

    records = [
        TraceRecord(timestamp=0.0, op=OpType.READ, client_id=0, path="/known"),
        TraceRecord(timestamp=1.0, op=OpType.READ, client_id=1, path="/ghost"),
        TraceRecord(timestamp=2.0, op=OpType.UPDATE, client_id=2, path="/known"),
    ]
    batches = list(iter_op_batches(records, tree, batch_ops=2))
    paths = [n.path for b in batches for n in b.nodes]
    assert paths == ["/known", "/known"]
    codes = [c for b in batches for c in b.op_codes]
    assert codes == [OP_CODES[OpType.READ], OP_CODES[OpType.UPDATE]]


def test_iter_op_batches_rejects_bad_window(workload):
    with pytest.raises(ValueError):
        next(iter_op_batches(workload.trace.records, workload.tree, 0))
