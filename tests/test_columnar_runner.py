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

import pytest

from repro import registry
from repro.core.namespace import NamespaceTree
from repro.simulation import FaultPlan, SimulationConfig
from repro.simulation.runner import simulate
from repro.traces import DatasetProfile, TraceGenerator, iter_op_batches
from repro.traces.columns import OP_CODES


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
