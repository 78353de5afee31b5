"""Unit tests for Tree-Splitting (Algorithm 1)."""

import pytest

from repro.core import (
    NamespaceTree,
    constraints_for_proportion,
    split_by_proportion,
    split_top_k,
    tree_split,
)
from tests.conftest import build_random_tree


def popular_tree():
    tree = NamespaceTree()
    hot = tree.add_path("/hot", is_directory=True)
    for i in range(5):
        tree.record_access(tree.add_path(f"/hot/f{i}"), weight=100.0)
    for i in range(5):
        tree.record_access(tree.add_path(f"/cold/c{i}"), weight=1.0)
    for node in tree:
        node.update_cost = 1.0
    tree.aggregate_popularity()
    return tree, hot


def test_root_always_in_global_layer():
    tree, _hot = popular_tree()
    result = split_top_k(tree, 1)
    assert result.global_layer == {tree.root}


def test_greedy_picks_most_popular_first():
    tree, hot = popular_tree()
    result = split_top_k(tree, 2)
    assert result.global_layer == {tree.root, hot}


def test_global_layer_is_connected():
    tree = build_random_tree(300)
    result = split_top_k(tree, 30)
    for node in result.global_layer:
        assert node.parent is None or node.parent in result.global_layer


def test_local_popularity_matches_eq7():
    tree = build_random_tree(300)
    result = split_top_k(tree, 25)
    expected = sum(n.popularity for n in tree if n not in result.global_layer)
    assert result.local_popularity == pytest.approx(expected)


def test_update_cost_sums_gl_members_minus_root():
    tree, _ = popular_tree()
    result = split_top_k(tree, 4)
    expected = sum(n.update_cost for n in result.global_layer if n.parent is not None)
    assert result.update_cost == pytest.approx(expected)


def test_subtree_roots_are_local_children_of_inter_nodes():
    tree = build_random_tree(300)
    result = split_top_k(tree, 20)
    for root in result.subtree_roots:
        assert root not in result.global_layer
        assert root.parent in result.global_layer
    for inter in result.inter_nodes:
        assert inter in result.global_layer
        assert any(c not in result.global_layer for c in inter.children)


def test_subtree_roots_partition_local_layer():
    tree = build_random_tree(300)
    result = split_top_k(tree, 20)
    covered = set()
    for root in result.subtree_roots:
        covered.add(root)
        covered.update(root.descendants())
    local = {n for n in tree if n not in result.global_layer}
    assert covered == local


def test_tree_split_respects_update_budget():
    tree, _ = popular_tree()
    # Budget allows 2 additions (cost 1 each, stop when >= U0).
    result = tree_split(tree, locality_threshold=0.0, update_threshold=2.5)
    if result.feasible:
        assert result.update_cost < 2.5
    else:
        assert result.global_layer == set()


def test_tree_split_infeasible_returns_empty():
    tree, _ = popular_tree()
    # Impossible: zero update budget but demanding near-zero local popularity.
    result = tree_split(tree, locality_threshold=0.0, update_threshold=0.0)
    assert not result.feasible
    assert result.global_layer == set()


def test_tree_split_feasible_when_budget_ample():
    tree, _ = popular_tree()
    total = sum(n.popularity for n in tree)
    result = tree_split(tree, locality_threshold=total, update_threshold=1e9)
    assert result.feasible
    # Locality already satisfied at the root: nothing needs absorbing.
    assert result.global_layer == {tree.root}


def test_tree_split_stops_at_locality_threshold():
    tree, _ = popular_tree()
    result = tree_split(tree, locality_threshold=10.0, update_threshold=1e9)
    assert result.feasible
    assert result.local_popularity <= 10.0


def test_tree_split_negative_thresholds_rejected():
    tree, _ = popular_tree()
    with pytest.raises(ValueError):
        tree_split(tree, -1.0, 10.0)
    with pytest.raises(ValueError):
        tree_split(tree, 1.0, -10.0)


def test_split_top_k_rejects_zero():
    tree, _ = popular_tree()
    with pytest.raises(ValueError):
        split_top_k(tree, 0)


def test_split_top_k_exact_size():
    tree = build_random_tree(200)
    for k in (1, 5, 20, 50):
        result = split_top_k(tree, k)
        assert len(result.global_layer) == k


def test_split_top_k_larger_than_tree():
    tree, _ = popular_tree()
    result = split_top_k(tree, 10_000)
    assert result.global_layer == set(tree.nodes)
    assert result.subtree_roots == []
    assert result.local_popularity == pytest.approx(0.0)


def test_split_by_proportion_default_paper_setting():
    tree = build_random_tree(500)
    result = split_by_proportion(tree, 0.01)
    assert len(result.global_layer) == max(1, round(0.01 * len(tree)))


def test_split_by_proportion_bounds():
    tree, _ = popular_tree()
    with pytest.raises(ValueError):
        split_by_proportion(tree, 0.0)
    with pytest.raises(ValueError):
        split_by_proportion(tree, 1.5)


def test_locality_property_of_result():
    tree = build_random_tree(300)
    result = split_top_k(tree, 10)
    assert result.locality == pytest.approx(1.0 / result.local_popularity)
    full = split_top_k(tree, len(tree))
    assert full.locality == float("inf")


def test_larger_global_layer_improves_locality_monotonically():
    tree = build_random_tree(400)
    previous = -1.0
    for k in (1, 10, 40, 100, 200):
        result = split_top_k(tree, k)
        assert result.locality >= previous or result.locality == float("inf")
        previous = result.locality


def test_constraints_for_proportion_roundtrip():
    tree = build_random_tree(400)
    constraints = constraints_for_proportion(tree, 0.05)
    assert constraints.global_layer_size == len(constraints.result.global_layer)
    assert constraints.locality_threshold == pytest.approx(
        constraints.result.local_popularity
    )
    assert constraints.update_threshold == pytest.approx(constraints.result.update_cost)


def test_constraints_grow_with_proportion():
    tree = build_random_tree(400)
    small = constraints_for_proportion(tree, 0.01)
    large = constraints_for_proportion(tree, 0.2)
    # More GL nodes -> more update cost, less local popularity (L0 shrinks).
    assert large.update_threshold >= small.update_threshold
    assert large.locality_threshold <= small.locality_threshold


def test_rerun_after_tree_split_fails_is_safe():
    tree, _ = popular_tree()
    bad = tree_split(tree, 0.0, 0.0)
    assert not bad.feasible
    good = split_by_proportion(tree, 0.5)
    assert good.feasible
