"""Unit tests for Dynamic-Adjustment (counters, pending pool, adjuster)."""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    D2TreeScheme,
    DecayingCounter,
    DynamicAdjuster,
    NamespaceTree,
    PendingPool,
)
from repro.core.adjustment import AdjustmentReport
from repro.obs import Telemetry
from repro.simulation import ClusterSimulator, SimulationConfig
from repro.traces import DatasetProfile, load_workload


# ----------------------------------------------------------------------
# DecayingCounter
# ----------------------------------------------------------------------
def test_counter_accumulates_without_decay():
    counter = DecayingCounter(decay_rate=0.0)
    counter.record(0.0)
    counter.record(10.0)
    assert counter.value() == pytest.approx(2.0)


def test_counter_decays_exponentially():
    counter = DecayingCounter(decay_rate=0.5)
    counter.record(0.0, weight=8.0)
    assert counter.value(now=2.0) == pytest.approx(8.0 * math.exp(-1.0))


def test_counter_decay_applied_before_record():
    counter = DecayingCounter(decay_rate=1.0)
    counter.record(0.0, weight=4.0)
    counter.record(1.0, weight=1.0)
    assert counter.value() == pytest.approx(4.0 * math.exp(-1.0) + 1.0)


def test_counter_clamps_out_of_order_records():
    # Event completions in the simulator are not globally monotone; an
    # out-of-order record counts at the current decay level, never raises.
    counter = DecayingCounter(decay_rate=0.0)
    counter.record(5.0)
    counter.record(1.0)
    assert counter.value() == pytest.approx(2.0)


def test_counter_rejects_negative_decay():
    with pytest.raises(ValueError):
        DecayingCounter(decay_rate=-0.1)


def test_counter_value_without_advance():
    counter = DecayingCounter(decay_rate=0.1)
    counter.record(0.0, weight=3.0)
    assert counter.value() == pytest.approx(3.0)


# ----------------------------------------------------------------------
# PendingPool
# ----------------------------------------------------------------------
def _node(tree, path, weight):
    node = tree.add_path(path)
    tree.record_access(node, weight)
    tree.aggregate_popularity()
    return node


def test_pool_offer_and_drain():
    tree = NamespaceTree()
    a = _node(tree, "/a", 5.0)
    pool = PendingPool()
    pool.offer(a, source_server=1, popularity=5.0)
    assert len(pool) == 1
    assert pool.total_popularity == 5.0
    entries = pool.take_all()
    assert len(entries) == 1
    assert entries[0].subtree_root is a
    assert len(pool) == 0


def test_pool_rejects_negative_popularity():
    tree = NamespaceTree()
    a = _node(tree, "/a", 1.0)
    pool = PendingPool()
    with pytest.raises(ValueError):
        pool.offer(a, 0, -1.0)


def test_pool_entries_snapshot_is_copy():
    tree = NamespaceTree()
    a = _node(tree, "/a", 1.0)
    pool = PendingPool()
    pool.offer(a, 0, 1.0)
    snapshot = pool.entries()
    snapshot.clear()
    assert len(pool) == 1


# ----------------------------------------------------------------------
# DynamicAdjuster
# ----------------------------------------------------------------------
def _subtrees(tree, spec):
    """spec: list of (path, popularity, server). Returns owner dict."""
    owner = {}
    for path, pop, server in spec:
        node = tree.add_path(path, is_directory=True)
        tree.record_access(node, pop)
        owner[node] = server
    tree.aggregate_popularity()
    return owner


def _loads(owner, num_servers):
    loads = [0.0] * num_servers
    for root, server in owner.items():
        loads[server] += root.popularity
    return loads


def test_balanced_cluster_is_left_alone():
    tree = NamespaceTree()
    owner = _subtrees(tree, [("/a", 10, 0), ("/b", 10, 1)])
    adjuster = DynamicAdjuster(imbalance_tolerance=0.1)
    report = adjuster.adjust(owner, _loads(owner, 2), [1.0, 1.0])
    assert report.migrations == []
    assert report.offered == 0


def test_overloaded_server_sheds_to_light():
    tree = NamespaceTree()
    owner = _subtrees(
        tree, [("/a", 10, 0), ("/b", 10, 0), ("/c", 10, 0), ("/d", 1, 1)]
    )
    adjuster = DynamicAdjuster(imbalance_tolerance=0.1)
    report = adjuster.adjust(owner, _loads(owner, 2), [1.0, 1.0])
    assert report.migrations
    for _root, source, target in report.migrations:
        assert source == 0
        assert target == 1
    new_loads = _loads(owner, 2)
    assert abs(new_loads[0] - new_loads[1]) < 31


def test_adjust_reduces_imbalance():
    tree = NamespaceTree()
    spec = [(f"/s{i}", 5 + (i % 7), 0) for i in range(20)]
    spec += [(f"/t{i}", 1, 1) for i in range(3)]
    owner = _subtrees(tree, spec)
    before = _loads(owner, 2)
    adjuster = DynamicAdjuster(imbalance_tolerance=0.05)
    adjuster.adjust(owner, before, [1.0, 1.0])
    after = _loads(owner, 2)
    assert max(after) - min(after) < max(before) - min(before)


def test_capacity_weighted_ideal():
    tree = NamespaceTree()
    owner = _subtrees(tree, [(f"/s{i}", 10, 0) for i in range(6)])
    adjuster = DynamicAdjuster(imbalance_tolerance=0.0)
    adjuster.adjust(owner, _loads(owner, 2), [2.0, 1.0])
    after = _loads(owner, 2)
    # Server 0 has twice the capacity: should keep roughly 2/3 of the load.
    assert after[0] > after[1]


def test_report_moved_popularity():
    tree = NamespaceTree()
    owner = _subtrees(tree, [("/a", 30, 0), ("/b", 2, 1)])
    adjuster = DynamicAdjuster(imbalance_tolerance=0.0)
    report = adjuster.adjust(owner, _loads(owner, 2), [1.0, 1.0])
    assert report.moved_popularity == pytest.approx(
        sum(n.popularity for n, _s, _t in report.migrations)
    )


def test_mismatched_inputs_rejected():
    adjuster = DynamicAdjuster()
    with pytest.raises(ValueError):
        adjuster.adjust({}, [1.0], [1.0, 1.0])


def test_zero_capacity_rejected():
    adjuster = DynamicAdjuster()
    with pytest.raises(ValueError):
        adjuster.adjust({}, [0.0, 0.0], [0.0, 0.0])


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        DynamicAdjuster(imbalance_tolerance=-0.5)


def test_empty_system_noop():
    adjuster = DynamicAdjuster()
    report = adjuster.adjust({}, [0.0, 0.0], [1.0, 1.0])
    assert isinstance(report, AdjustmentReport)
    assert report.migrations == []


def test_adjust_converges_over_rounds():
    tree = NamespaceTree()
    spec = [(f"/s{i}", 2 + (i * 13 % 11), i % 2) for i in range(40)]
    owner = _subtrees(tree, spec)
    adjuster = DynamicAdjuster(imbalance_tolerance=0.05)
    for _ in range(10):
        report = adjuster.adjust(owner, _loads(owner, 4), [1.0] * 4)
        if not report.migrations:
            break
    loads = _loads(owner, 4)
    mu = sum(loads) / 4
    assert max(loads) <= mu * 1.6


def test_single_giant_subtree_still_makes_progress():
    # Nothing fits the excess (100 > 150 - 125), so the smallest
    # load-carrying root is offered anyway rather than leaving the server
    # stuck above tolerance.
    tree = NamespaceTree()
    owner = _subtrees(tree, [("/giant", 100, 0), ("/big", 150, 0), ("/cold", 0, 0)])
    report = DynamicAdjuster(imbalance_tolerance=0.1).adjust(
        owner, _loads(owner, 2), [1.0, 1.0]
    )
    assert [(root.path, src, dst) for root, src, dst in report.migrations] == [
        ("/giant", 0, 1)
    ]
    assert _loads(owner, 2) == [150.0, 100.0]


def test_largest_that_fits_moves_the_load_in_few_migrations():
    # Excess 45: the 40 fits, then the 5; the 50 never fit and the cold
    # roots are not worth a migration. Smallest-first would have shipped
    # every cold root before the first one that carries load.
    tree = NamespaceTree()
    spec = [("/a", 50, 0), ("/b", 40, 0), ("/c", 5, 0), ("/d", 5, 1)]
    spec += [(f"/cold{i}", 0, 0) for i in range(50)]
    owner = _subtrees(tree, spec)
    report = DynamicAdjuster(imbalance_tolerance=0.1).adjust(
        owner, _loads(owner, 2), [1.0, 1.0]
    )
    assert sorted(root.path for root, _s, _t in report.migrations) == ["/b", "/c"]
    assert report.offered == 2
    assert report.moved_popularity == 45.0
    assert report.negligible_moves == 0
    assert report.max_load_factor == pytest.approx(95 / 50)
    assert _loads(owner, 2) == [50.0, 50.0]


# ----------------------------------------------------------------------
# Properties tying the adjuster to Sec. IV-B
# ----------------------------------------------------------------------
@st.composite
def clusters(draw, max_popularity=200, min_roots=1, max_roots=60):
    """(owner dict, capacities): integer popularities (exact float sums),
    about a third of the roots cold."""
    capacities = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=2, max_size=6))
    roots = draw(st.lists(
        st.tuples(
            st.one_of(st.just(0), st.integers(0, max_popularity)),
            st.integers(0, len(capacities) - 1),
        ),
        min_size=min_roots, max_size=max_roots,
    ))
    tree = NamespaceTree()
    owner = _subtrees(
        tree, [(f"/s{i}", pop, server) for i, (pop, server) in enumerate(roots)]
    )
    return owner, capacities


tolerances = st.sampled_from([0.0, 0.05, 0.1, 0.3])


@given(clusters(), tolerances)
@settings(max_examples=200, deadline=None)
def test_no_round_migrates_a_zero_popularity_root(cluster, tolerance):
    owner, capacities = cluster
    adjuster = DynamicAdjuster(imbalance_tolerance=tolerance)
    for _ in range(3):
        report = adjuster.adjust(owner, _loads(owner, len(capacities)), capacities)
        assert all(root.popularity > 0 for root, _s, _t in report.migrations)
        assert report.moved_popularity == sum(
            root.popularity for root, _s, _t in report.migrations
        )


@given(clusters(), tolerances)
@settings(max_examples=200, deadline=None)
def test_offers_never_push_a_heavy_server_below_ideal(cluster, tolerance):
    """Only heavy servers shed, and what leaves one fits its excess — except
    the lone-oversized fallback, which ships exactly one root, the smallest
    load-carrying one, and only when none fits."""
    owner, capacities = cluster
    before = dict(owner)
    loads = _loads(owner, len(capacities))
    report = DynamicAdjuster(imbalance_tolerance=tolerance).adjust(
        owner, loads, capacities
    )
    mu = report.ideal_load_factor
    left = {}
    for root, source, _target in report.migrations:
        left.setdefault(source, []).append(root.popularity)
    for source, shed in left.items():
        ideal = mu * capacities[source]
        assert loads[source] > ideal * (1 + tolerance)
        excess = loads[source] - ideal
        if sum(shed) <= excess:
            continue
        carrying = [
            root.popularity for root, server in before.items()
            if server == source and root.popularity > 0
        ]
        assert shed == [min(carrying)]
        assert min(carrying) > excess


@given(clusters(max_popularity=3, min_roots=60, max_roots=300),
       st.sampled_from([0.2, 0.3]))
@settings(max_examples=100, deadline=None)
def test_fixed_loads_reach_a_fixed_point_and_stay(cluster, tolerance):
    """With every root inside the tolerance band of the smallest server
    (``p <= tol · μ · C_min``) a heavy server always has a root that fits
    and a claimant overshoots its deficit by at most one root, so nobody is
    heavy after the first round: the second moves nothing, nor does any
    later one. (Coarser roots can rotate through the lone-oversized
    fallback; `D2TreeScheme` promotes those into the global layer.)"""
    owner, capacities = cluster
    loads = _loads(owner, len(capacities))
    mu = sum(loads) / sum(capacities)
    assume(3 <= 0.9 * tolerance * mu * min(capacities))
    adjuster = DynamicAdjuster(imbalance_tolerance=tolerance)
    adjuster.adjust(owner, loads, capacities)
    for _ in range(3):
        report = adjuster.adjust(owner, _loads(owner, len(capacities)), capacities)
        assert report.migrations == [] and report.offered == 0


def test_stationary_trace_does_not_thrash():
    """A seeded LMBE replay without popularity drift: ~590 subtrees on 12
    MDSs, 18 adjustment rounds, read off the `adjust_round` records. The
    smallest-first offer rule this replaced moved 611 subtrees here (1.04x
    the local layer, 319 and 234 of them in rounds 16 and 17); the bounds
    are ~2x what largest-that-fits measures (52 moves, 14 in the worst
    round, 3 bounces, max load factor 1.29)."""
    profile = DatasetProfile.lmbe(6000)
    profile = dataclasses.replace(
        profile.scaled(num_operations=72_000), drift_rate=0.0, seed=profile.seed + 2
    )
    telemetry = Telemetry()
    sim = ClusterSimulator(
        D2TreeScheme(), load_workload(profile), 12,
        SimulationConfig(seed=3), telemetry=telemetry,
    )
    sim.run()
    rounds = [
        dict(event.fields) for event in telemetry.events
        if event.event == "adjust_round"
    ]
    subtrees = len(sim.placement.subtree_owner)
    assert len(rounds) >= 15 and subtrees > 500
    migrations = [r["migrations"] for r in rounds]
    assert sum(migrations) == sim.migrations
    assert 0 < sum(migrations) < 0.2 * subtrees
    assert max(migrations[-len(rounds) // 3:]) < 0.05 * subtrees
    assert sum(r["bounced"] for r in rounds) <= 0.15 * sum(migrations)
    assert sum(r["negligible_moves"] for r in rounds) <= 0.5 * sum(migrations)
    assert all(1.0 <= r["max_load_factor"] <= 1.4 for r in rounds)
    # One record per round: what the adjuster moved is what the runner saw.
    assert all(r["offered"] >= r["migrations"] for r in rounds)
    assert not any(e.event == "adjust_detail" for e in telemetry.events)
