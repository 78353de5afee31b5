"""Tests for the paper metrics (locality Eq. 1, balance Eq. 2, update Def. 4)."""

import pytest

from repro.core import D2TreeScheme, NamespaceTree
from repro.metrics import (
    balance_degree,
    balance_from_placement,
    evaluate_placement,
    evaluate_scheme,
    ideal_load_factor,
    load_variance,
    system_locality,
    weighted_jumps,
)
from repro.placement import Placement


def two_server_tree():
    tree = NamespaceTree()
    tree.add_path("/a/x.txt")
    tree.add_path("/b/y.txt")
    for node in tree:
        tree.record_access(node, 2.0)
    tree.aggregate_popularity()
    return tree


# ----------------------------------------------------------------------
# Locality
# ----------------------------------------------------------------------
def test_single_server_locality_infinite():
    tree = two_server_tree()
    placement = Placement(1)
    for node in tree:
        placement.assign(node, 0)
    assert system_locality(tree, placement) == float("inf")


def test_weighted_jumps_matches_manual_sum():
    tree = two_server_tree()
    placement = Placement(2)
    for node in tree:
        placement.assign(node, 0)
    b = tree.lookup("/b")
    y = tree.lookup("/b/y.txt")
    placement.assign(b, 1)
    placement.assign(y, 1)
    expected = 1 * tree.popularity[b] + 1 * tree.popularity[y]
    assert weighted_jumps(tree, placement) == pytest.approx(expected)


def test_locality_is_reciprocal_of_weighted_jumps():
    tree = two_server_tree()
    placement = Placement(2)
    for node in tree:
        placement.assign(node, node % 2)
    wj = weighted_jumps(tree, placement)
    assert system_locality(tree, placement) == pytest.approx(1.0 / wj)


def test_d2_locality_equals_eq7(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    expected = 1.0 / placement.split.local_popularity
    assert system_locality(random_tree, placement) == pytest.approx(expected)


# ----------------------------------------------------------------------
# Balance
# ----------------------------------------------------------------------
def test_ideal_load_factor():
    assert ideal_load_factor([4, 2], [2, 1]) == pytest.approx(2.0)


def test_ideal_load_factor_validation():
    with pytest.raises(ValueError):
        ideal_load_factor([1], [1, 2])
    with pytest.raises(ValueError):
        ideal_load_factor([1, 1], [0, 0])


def test_perfectly_balanced_infinite_degree():
    assert balance_degree([5, 5, 5], [1, 1, 1]) == float("inf")


def test_balance_degree_matches_eq2():
    loads, caps = [6.0, 2.0], [1.0, 1.0]
    mu = 4.0
    variance = ((6 - mu) ** 2 + (2 - mu) ** 2) / 1
    assert load_variance(loads, caps) == pytest.approx(variance)
    assert balance_degree(loads, caps) == pytest.approx(1 / variance)


def test_balance_needs_two_servers():
    with pytest.raises(ValueError):
        load_variance([1.0], [1.0])


def test_heterogeneous_capacity_balance():
    # Loads proportional to capacity are perfectly balanced.
    assert balance_degree([4, 2], [2, 1]) == float("inf")


def test_worse_spread_lower_balance():
    good = balance_degree([5, 5.5], [1, 1])
    bad = balance_degree([2, 9], [1, 1])
    assert good > bad


def test_balance_from_placement_normalization(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    normalized = balance_from_placement(random_tree, placement, normalize=True)
    raw = balance_from_placement(random_tree, placement, normalize=False)
    assert normalized != raw  # different scales, same ordering semantics


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_evaluate_placement_fields(random_tree):
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(random_tree, 4)
    report = evaluate_placement(random_tree, placement, scheme_name="d2-tree")
    assert report.scheme == "d2-tree"
    assert report.num_servers == 4
    assert len(report.loads) == 4
    assert report.locality > 0
    assert report.balance > 0
    assert "d2-tree" in report.row()


def test_evaluate_scheme_end_to_end(random_tree):
    report = evaluate_scheme(D2TreeScheme(global_layer_fraction=0.05), random_tree, 4)
    assert report.num_servers == 4
    assert report.mu > 0


def test_evaluate_scheme_with_rebalance_rounds(random_tree):
    report = evaluate_scheme(
        D2TreeScheme(global_layer_fraction=0.05), random_tree, 4, rebalance_rounds=3
    )
    assert report.balance > 0


def test_report_locality_e9(random_tree):
    report = evaluate_scheme(D2TreeScheme(global_layer_fraction=0.05), random_tree, 4)
    if report.locality != float("inf"):
        assert report.locality_e9 == pytest.approx(report.locality * 1e9)
