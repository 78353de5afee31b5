"""Cross-module integration tests: full paper pipeline at miniature scale."""

import pytest

from repro import (
    AngleCutScheme,
    D2TreeScheme,
    DatasetProfile,
    DropScheme,
    DynamicSubtreeScheme,
    SimulationConfig,
    StaticSubtreeScheme,
    TraceGenerator,
    evaluate_scheme,
    replay_rounds,
    simulate,
    system_locality,
)

ALL_SCHEMES = [
    D2TreeScheme,
    StaticSubtreeScheme,
    DynamicSubtreeScheme,
    DropScheme,
    AngleCutScheme,
]

FAST = SimulationConfig(num_clients=20, adjust_every_ops=500)


@pytest.mark.parametrize("scheme_cls", ALL_SCHEMES)
def test_full_pipeline_per_scheme(tiny_dtr_workload, scheme_cls):
    """Generate → partition → metrics → simulate, for every scheme."""
    scheme = scheme_cls()
    report = evaluate_scheme(scheme, tiny_dtr_workload.tree, 4, rebalance_rounds=3)
    assert report.balance > 0
    assert report.locality > 0
    result = simulate(scheme_cls(), tiny_dtr_workload, 4, FAST)
    assert result.operations == len(tiny_dtr_workload.trace)


def test_d2_best_locality_on_dtr(tiny_dtr_workload):
    """Fig. 6(a) headline: D2-Tree's locality beats every comparator on DTR."""
    tree = tiny_dtr_workload.tree
    d2 = system_locality(tree, D2TreeScheme().partition(tree, 8))
    for scheme_cls in ALL_SCHEMES[1:]:
        other = system_locality(tree, scheme_cls().partition(tree, 8))
        assert d2 > other


def test_hash_like_schemes_worst_locality(tiny_dtr_workload):
    """Fig. 6: 'locality performance is a main drawback of AngleCut and DROP'."""
    tree = tiny_dtr_workload.tree
    drop = system_locality(tree, DropScheme().partition(tree, 8))
    anglecut = system_locality(tree, AngleCutScheme().partition(tree, 8))
    static = system_locality(tree, StaticSubtreeScheme().partition(tree, 8))
    assert static > drop
    assert static > anglecut


def test_static_subtree_worst_balance(tiny_lmbe_workload):
    """Fig. 7: static subtree partitioning cannot adapt to drift."""
    static = replay_rounds(StaticSubtreeScheme(), tiny_lmbe_workload, 4, rounds=6)
    d2 = replay_rounds(D2TreeScheme(), tiny_lmbe_workload, 4, rounds=6)
    drop = replay_rounds(DropScheme(), tiny_lmbe_workload, 4, rounds=6)
    assert d2.final_balance > static.final_balance
    assert drop.final_balance > static.final_balance


def test_d2_outperforms_hash_like_throughput(tiny_dtr_workload):
    """Fig. 5: D2-Tree beats DROP and AngleCut on throughput."""
    d2 = simulate(D2TreeScheme(), tiny_dtr_workload, 8, FAST)
    drop = simulate(DropScheme(), tiny_dtr_workload, 8, FAST)
    anglecut = simulate(AngleCutScheme(), tiny_dtr_workload, 8, FAST)
    assert d2.throughput > drop.throughput
    assert d2.throughput > anglecut.throughput


def test_gl_proportion_tradeoff(tiny_dtr_workload):
    """Fig. 8: larger global layer → better locality, higher update cost."""
    tree = tiny_dtr_workload.tree
    small = D2TreeScheme(global_layer_fraction=0.005).split(tree)
    large = D2TreeScheme(global_layer_fraction=0.2).split(tree)
    assert large.local_popularity <= small.local_popularity
    assert large.update_cost >= small.update_cost


def test_gl_proportion_improves_balance(tiny_dtr_workload):
    """Fig. 9: larger global layer proportion → better balance."""
    tree = tiny_dtr_workload.tree
    small = evaluate_scheme(D2TreeScheme(global_layer_fraction=0.002), tree, 8)
    large = evaluate_scheme(D2TreeScheme(global_layer_fraction=0.2), tree, 8)
    assert large.balance >= small.balance


def test_failure_then_rebalance_recovers(tiny_dtr_workload):
    """Kill a server mid-life; the cluster re-homes and can still rebalance."""
    tree = tiny_dtr_workload.tree
    scheme = D2TreeScheme()
    placement = scheme.partition(tree, 4)
    placement.fail(2)
    placement.validate_complete(tree)
    scheme.rebalance(tree, placement)
    loads = placement.local_loads()
    assert loads[2] == 0.0


def test_trace_roundtrip_through_simulation(tmp_path, tiny_dtr_workload):
    """Save → load → replay gives the same result as the in-memory trace."""
    from repro.traces import load_trace, save_trace
    from repro.traces.generator import GeneratedWorkload

    path = tmp_path / "trace.tsv"
    save_trace(tiny_dtr_workload.trace, path)
    reloaded = GeneratedWorkload(
        profile=tiny_dtr_workload.profile,
        tree=tiny_dtr_workload.tree,
        trace=load_trace(path),
        hot_nodes=tiny_dtr_workload.hot_nodes,
    )
    a = simulate(D2TreeScheme(), tiny_dtr_workload, 4, FAST)
    b = simulate(D2TreeScheme(), reloaded, 4, FAST)
    assert a.throughput == pytest.approx(b.throughput)


def test_three_profiles_end_to_end():
    """All three paper traces run through the full pipeline."""
    for maker in (DatasetProfile.dtr, DatasetProfile.lmbe, DatasetProfile.ra):
        profile = maker(num_nodes=900, scale=2e-5)
        workload = TraceGenerator(profile, num_clients=10).generate()
        report = evaluate_scheme(D2TreeScheme(), workload.tree, 4)
        assert report.balance > 0
        result = simulate(D2TreeScheme(), workload, 4, FAST)
        assert result.throughput > 0
