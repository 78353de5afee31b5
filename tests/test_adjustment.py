"""Unit tests for Dynamic-Adjustment (counters, pending pool, adjuster)."""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    D2TreeScheme,
    DynamicAdjuster,
    NamespaceTree,
    PendingPool,
)
from repro.baselines import DynamicSubtreeScheme
from repro.core.adjustment import AdjustmentReport
from repro.core.namespace import NodeArena, PopularityEstimate
from repro.obs import Telemetry
from repro.simulation import ClusterSimulator, FaultPlan, SimulationConfig
from repro.traces import DatasetProfile, load_workload


# ----------------------------------------------------------------------
# PopularityEstimate: the decaying per-node access counters of Sec. IV-B
# ----------------------------------------------------------------------
def _counters(blend=0.5, **popularity):
    """A flat tree of ``/<name>`` nodes and a fresh estimate over it."""
    tree = NamespaceTree()
    nodes = {name: _node(tree, f"/{name}", p) for name, p in popularity.items()}
    return tree, nodes, PopularityEstimate(tree.arena(), blend)


def test_counter_accumulates_without_decay():
    # Accesses inside one window count whole, however many there are.
    _, nodes, estimate = _counters(a=0.0, b=0.0)
    estimate.fold({nodes["a"]: 2, nodes["b"]: 1})
    estimate.materialise()
    assert nodes["a"].individual_popularity == 1.0  # 0.5 * 2
    assert nodes["b"].individual_popularity == 0.5


def test_counter_decays_exponentially():
    # A node no window touches is never written, yet reads decayed.
    tree, nodes, estimate = _counters(a=8.0, b=1.0)
    for _ in range(3):
        estimate.fold({nodes["b"]: 1})
    assert estimate.subtree_total(nodes["a"]) == 1.0  # 8 * 0.5 ** 3
    estimate.materialise()
    assert nodes["a"].individual_popularity == 1.0
    assert tree.root.popularity == 1.0 + nodes["b"].popularity
    _, nodes, estimate = _counters(blend=0.3, a=8.0)
    for _ in range(3):
        estimate.fold({})
    assert estimate.subtree_total(nodes["a"]) == pytest.approx(8.0 * 0.7 ** 3, rel=1e-12)


def test_counter_decay_applied_before_record():
    _, nodes, estimate = _counters(a=4.0)
    estimate.fold({})
    estimate.fold({nodes["a"]: 1})
    assert estimate.subtree_total(nodes["a"]) == 0.5 * (4.0 * 0.5) + 0.5 * 1


def test_counter_rejects_negative_decay():
    tree, _, _ = _counters(a=1.0)
    for blend in (1.5, -0.1):  # would keep a negative, or more than all
        with pytest.raises(ValueError):
            PopularityEstimate(tree.arena(), blend)


def test_counter_value_without_advance():
    # Before any window the estimate is the nodes' own popularity, and the
    # whole-tree pass has nothing to do.
    tree, nodes, estimate = _counters(a=3.0, b=2.0)
    assert estimate.subtree_total(nodes["a"]) == 3.0
    assert estimate.subtree_total(tree.root) == 5.0
    nodes["a"].popularity = -1.0  # a materialise would overwrite this
    estimate.materialise()
    assert nodes["a"].popularity == -1.0


def test_counted_nodes_take_their_total_from_the_window():
    """``fold`` with counted nodes blends each one's Def. 2 total from the
    counts completed under it and writes nothing else; the whole-tree pass
    then agrees with it."""
    tree = NamespaceTree()
    leaf = _node(tree, "/dir/sub/leaf", 6.0)
    other = _node(tree, "/dir/other", 2.0)
    lone = _node(tree, "/lone", 4.0)
    top = tree.lookup("/dir")
    estimate = PopularityEstimate(tree.arena(), 0.5)
    counter = {leaf: top, other: top, lone: lone}
    estimate.fold(
        {leaf: 3, lone: 1}, [top, lone],
        lambda nodes: [counter[node].node_id for node in nodes],
    )
    assert (top.popularity, lone.popularity) == (0.5 * 8 + 0.5 * 3, 0.5 * 4 + 0.5 * 1)
    assert leaf.popularity == 6.0 and other.individual_popularity == 2.0
    estimate.materialise()
    assert (top.popularity, lone.popularity) == (5.5, 2.5)
    assert (leaf.popularity, other.popularity) == (4.5, 1.0)


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


# ----------------------------------------------------------------------
# The estimate inside the replay: counted nodes against the whole-tree pass
# ----------------------------------------------------------------------
class _ShadowedSimulator(ClusterSimulator):
    """Keeps, next to the run's lazy estimate, the reference it replaces: a
    per-round blend of *every* node from the same windows, aggregated over
    the whole tree. After each round every counted node must carry the
    reference's total."""

    exact = True

    def run(self):
        arena = self.tree.arena()
        self.shadow = arena.individual_popularity()
        self.checked = 0
        self.promotion_rounds = 0
        return super().run()

    def _adjust(self, now, window):
        blend = self.config.popularity_blend
        counts = [0] * len(self.shadow)
        for node in window:
            counts[node.node_id] += 1
        self.shadow = [
            (1 - blend) * p + blend * c for p, c in zip(self.shadow, counts)
        ]
        arena = self.tree.arena()
        totals = list(self.shadow)
        for cid, pid in zip(arena._agg_child, arena._agg_parent):
            totals[pid] += totals[cid]
        layer = len(self.placement.split.global_layer)
        super()._adjust(now, window)
        self.promotion_rounds += len(self.placement.split.global_layer) > layer
        for node in self.placement.counted_nodes():
            want = totals[node.node_id]
            if self.exact:
                assert node.popularity == want, node.path
            else:
                assert node.popularity == pytest.approx(want, rel=1e-12), node.path
            self.checked += 1


@pytest.fixture
def count_passes(monkeypatch):
    """Counts ``NodeArena.write_popularity`` calls — the one whole-tree
    pass; ``run()`` itself makes one, restoring the tree as it leaves."""
    calls = [0]
    real = NodeArena.write_popularity

    def counting(self, individual):
        calls[0] += 1
        return real(self, individual)

    monkeypatch.setattr(NodeArena, "write_popularity", counting)
    return calls


def _profile(name, nodes, ops, **changes):
    profile = getattr(DatasetProfile, name)(nodes).scaled(num_operations=ops)
    return dataclasses.replace(profile, **changes) if changes else profile


_REPLAYS = {
    # name: (profile, servers, config overrides)
    "dtr_promotions": (_profile("dtr", 1500, 9000), 6, {}),
    "lmbe": (_profile("lmbe", 3000, 9000), 8, {}),
    "ra_creates": (_profile("ra", 1500, 9000, create_fraction=0.08), 6, {}),
    "dtr_rehome": (_profile("dtr", 1500, 9000), 6, {
        "fault_plan": ["crash:2@ops=2200", "recover:2@ops=5600"],
    }),
    "lmbe_quorum_loss": (_profile("lmbe", 1500, 9000), 6, {
        "num_monitors": 3,
        "fault_plan": [
            "monitor_crash:0@ops=2500", "monitor_crash:1@ops=2600",
            "monitor_recover:1@ops=6100",
        ],
    }),
}


@pytest.mark.parametrize("blend", [0.5, 0.3])
@pytest.mark.parametrize("name", sorted(_REPLAYS))
def test_counted_nodes_equal_the_whole_tree_pass(name, blend):
    """Seeded replays — promotions, CREATE-opened roots, a crash + recover
    re-home, a Monitor quorum loss: after every round each subtree root and
    each childless global-layer node carries the popularity the whole-tree
    pass computes from the same windows (``==`` at blend 0.5, to rounding
    at 0.3), and the run leaves the tree's popularity as it found it."""
    profile, servers, overrides = _REPLAYS[name]
    overrides = dict(overrides)
    if "fault_plan" in overrides:
        overrides["fault_plan"] = FaultPlan.parse(overrides["fault_plan"])
    workload = load_workload(profile)
    tree = workload.tree
    before = [(n.individual_popularity, n.popularity) for n in tree._nodes]
    telemetry = Telemetry() if name == "lmbe_quorum_loss" else None
    sim = _ShadowedSimulator(
        D2TreeScheme(), workload, servers,
        SimulationConfig(
            adjust_every_ops=600, popularity_blend=blend, seed=5, **overrides
        ),
        telemetry=telemetry,
    )
    sim.exact = blend == 0.5
    roots = set(sim.placement.subtree_owner)
    result = sim.run()
    sim.close()
    assert result.operations // 600 >= 10 and sim.checked > 10 * len(roots) > 0
    assert [(n.individual_popularity, n.popularity) for n in tree._nodes] == before
    assert tree.estimate is None
    # Each replay really is the case it is named for.
    if name == "dtr_promotions":
        assert sim.promotion_rounds >= 2
    elif name == "ra_creates":
        opened = set(sim.placement.subtree_owner) - roots
        assert workload.late_created_paths and any(
            node.path in workload.late_created_paths for node in opened
        )
    elif name == "dtr_rehome":
        assert result.availability.rejoins == 1 and result.migrations > 0
    elif name == "lmbe_quorum_loss":
        skipped = [e for e in telemetry.events if e.event == "rebalance_skipped"]
        assert skipped and sim.monitor.rebalances > 0


def test_whole_tree_pass_runs_only_for_its_readers(count_passes):
    """An unobserved D2-Tree round costs its window and its counted nodes:
    no whole-tree pass without a promotion, one per promotion round with
    them, one per round for a scheme whose policy reads every node, and one
    per round once somebody records the rounds. (``+ 1``: ``run()``
    restores the shared tree on its way out.)"""
    def passes(scheme, profile, servers, **config):
        shadowed = isinstance(scheme, D2TreeScheme)
        sim = (_ShadowedSimulator if shadowed else ClusterSimulator)(
            scheme, load_workload(profile), servers,
            SimulationConfig(adjust_every_ops=600, **config),
        )
        before = count_passes[0]
        result = sim.run()
        sim.close()
        return (
            count_passes[0] - before - 1,
            result.operations // 600,
            sim.promotion_rounds if shadowed else 0,
        )

    lmbe = _REPLAYS["lmbe"][0]
    whole, rounds, promotion_rounds = passes(D2TreeScheme(promote_threshold=0.0), lmbe, 8)
    assert (whole, promotion_rounds) == (0, 0) and rounds >= 10
    whole, rounds, promotion_rounds = passes(D2TreeScheme(), _REPLAYS["dtr_promotions"][0], 6)
    assert 2 <= whole == promotion_rounds < rounds
    whole, rounds, _ = passes(DynamicSubtreeScheme(), lmbe, 8)
    assert whole == rounds
    whole, rounds, _ = passes(D2TreeScheme(promote_threshold=0.0), lmbe, 8, trace_sample=50)
    assert whole == rounds
