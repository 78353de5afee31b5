"""Tests for the CREATE extension: namespace growth during replay."""

import dataclasses

import pytest

from repro.baselines import (
    AngleCutScheme,
    DropScheme,
    DynamicSubtreeScheme,
    HashScheme,
    StaticSubtreeScheme,
)
from repro.core import D2TreeScheme
from repro.simulation import SimulationConfig, simulate
from repro.simulation.runner import ClusterSimulator
from repro.traces import DatasetProfile, OpType, TraceGenerator
from tests.conftest import build_random_tree


@pytest.fixture(scope="module")
def create_workload():
    profile = dataclasses.replace(
        DatasetProfile.lmbe(num_nodes=1200, scale=4e-5), create_fraction=0.2
    )
    return TraceGenerator(profile, num_clients=20).generate()


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
def test_generator_marks_creates(create_workload):
    creates = [r for r in create_workload.trace.records if r.op is OpType.CREATE]
    assert creates
    assert len(create_workload.late_created_paths) == len(creates)


def test_create_precedes_every_other_access(create_workload):
    seen_create = set()
    late = set(create_workload.late_created_paths)
    for record in create_workload.trace.records:
        if record.path in late:
            if record.op is OpType.CREATE:
                assert record.path not in seen_create  # exactly one create
                seen_create.add(record.path)
            else:
                assert record.path in seen_create, "access before create"
    assert seen_create == late


def test_create_fraction_zero_by_default():
    workload = TraceGenerator(
        DatasetProfile.lmbe(num_nodes=800, scale=2e-5), num_clients=10
    ).generate()
    assert workload.late_created_paths == []
    assert all(r.op is not OpType.CREATE for r in workload.trace.records)


# ----------------------------------------------------------------------
# place_created policies
# ----------------------------------------------------------------------
@pytest.fixture
def grown_tree():
    return build_random_tree(300, seed=55)


@pytest.mark.parametrize(
    "scheme_cls",
    [HashScheme, StaticSubtreeScheme, DynamicSubtreeScheme, DropScheme,
     AngleCutScheme, D2TreeScheme],
)
def test_place_created_places_new_leaf(grown_tree, scheme_cls):
    scheme = scheme_cls()
    placement = scheme.partition(grown_tree, 4)
    depths = grown_tree.arena().depths()
    parent = next(n for n in grown_tree if grown_tree.is_directory(n) and depths[n] >= 2)
    fresh = grown_tree.add_child(parent, "fresh.txt")
    server = scheme.place_created(grown_tree, placement, fresh)
    assert 0 <= server < 4
    assert placement.primary_of(fresh) == server
    placement.validate_complete(grown_tree)


def test_hash_create_uses_path_hash(grown_tree):
    from repro.placement import stable_hash

    scheme = HashScheme()
    placement = scheme.partition(grown_tree, 4)
    parent = next(n for n in grown_tree if grown_tree.is_directory(n))
    fresh = grown_tree.add_child(parent, "hashed.txt")
    server = scheme.place_created(grown_tree, placement, fresh)
    assert server == stable_hash(grown_tree.path(fresh)) % 4


def test_static_create_joins_anchor(grown_tree):
    scheme = StaticSubtreeScheme(cut_depth=1)
    placement = scheme.partition(grown_tree, 4)
    depths = grown_tree.arena().depths()
    parent = next(n for n in grown_tree if grown_tree.is_directory(n) and depths[n] >= 2)
    fresh = grown_tree.add_child(parent, "anchored.txt")
    server = scheme.place_created(grown_tree, placement, fresh)
    anchor = grown_tree.ancestors(parent, include_self=True)[1]
    assert server == placement.primary_of(anchor)


def test_dynamic_create_joins_parent_zone(grown_tree):
    scheme = DynamicSubtreeScheme(cut_depth=2)
    placement = scheme.partition(grown_tree, 4)
    depths = grown_tree.arena().depths()
    parent = next(n for n in grown_tree if grown_tree.is_directory(n) and depths[n] >= 3)
    fresh = grown_tree.add_child(parent, "zoned.txt")
    server = scheme.place_created(grown_tree, placement, fresh)
    assert server == placement.primary_of(parent)


def test_d2_create_inside_subtree_colocated(grown_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(grown_tree, 4)
    root = next(r for r in placement.subtree_owner if grown_tree.is_directory(r))
    fresh = grown_tree.add_child(root, "colocated.txt")
    server = scheme.place_created(grown_tree, placement, fresh)
    assert server == placement.subtree_owner[root]


def test_d2_create_under_inter_node_opens_subtree(grown_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(grown_tree, 4)
    inter = next(
        n for n in placement.split.global_layer
        if grown_tree.is_directory(n)
        and any(c not in placement.split.global_layer for c in grown_tree.children(n))
    )
    fresh = grown_tree.add_child(inter, "newsubtree.txt")
    scheme.place_created(grown_tree, placement, fresh)
    assert fresh in placement.subtree_owner
    assert fresh in placement.split.subtree_roots


# ----------------------------------------------------------------------
# End-to-end replay with creates
# ----------------------------------------------------------------------
FAST = SimulationConfig(num_clients=20, adjust_every_ops=500)


@pytest.mark.parametrize(
    "scheme_cls",
    [D2TreeScheme, StaticSubtreeScheme, DynamicSubtreeScheme, DropScheme,
     AngleCutScheme],
)
def test_replay_with_creates_serves_everything(create_workload, scheme_cls):
    sim = ClusterSimulator(scheme_cls(), create_workload, 4, FAST)
    result = sim.run()
    assert result.operations == len(create_workload.trace)
    # Zone-based dynamic partitioning covers newcomers implicitly via their
    # parent's zone (rebuild_assignments), so its explicit-create count is
    # low; every other scheme must place most newcomers explicitly.
    if scheme_cls is DynamicSubtreeScheme:
        assert sim.created >= 1
    else:
        assert sim.created >= len(create_workload.late_created_paths) * 0.5


def test_created_nodes_forgotten_at_start(create_workload):
    sim = ClusterSimulator(D2TreeScheme(), create_workload, 4, FAST)
    late = [
        create_workload.tree.lookup(path)
        for path in create_workload.late_created_paths
    ]
    unplaced = sum(1 for node in late if not sim.placement.is_placed(node))
    # Nearly all late nodes start unplaced (hot/replicated ones are exempt).
    assert unplaced >= 0.9 * len(late)


def test_throughput_comparable_with_creates(create_workload):
    result = simulate(D2TreeScheme(), create_workload, 4, FAST)
    assert result.throughput > 0
