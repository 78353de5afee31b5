"""Property-based tests (hypothesis) for core invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import EmpiricalCDF, dkw_confidence, dkw_epsilon
from repro.core import (
    NamespaceTree,
    greedy_allocate,
    mirror_division,
    split_top_k,
)
from repro.core.namespace import PopularityEstimate
from repro.metrics import balance_degree, ideal_load_factor, load_variance


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
popularities = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=60
)
capacities = st.lists(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False), min_size=1, max_size=8
)


@st.composite
def random_trees(draw):
    """Random namespace trees with popularity, up to ~80 nodes."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=1, max_value=80))
    rng = random.Random(seed)
    tree = NamespaceTree()
    nodes = [tree.root]
    for i in range(size):
        parent = rng.choice(nodes)
        if not parent.is_directory:
            parent = parent.parent
        child = tree.add_child(
            parent, f"n{i}", is_directory=rng.random() < 0.4,
            individual_popularity=rng.random() * 10,
            update_cost=rng.random(),
        )
        nodes.append(child)
    tree.aggregate_popularity()
    return tree


# ----------------------------------------------------------------------
# Mirror division invariants
# ----------------------------------------------------------------------
@given(popularities, capacities)
@settings(max_examples=60, deadline=None)
def test_mirror_division_conserves_load(pops, caps):
    result = mirror_division(pops, caps)
    assert len(result.assignment) == len(pops)
    assert all(0 <= s < len(caps) for s in result.assignment)
    assert sum(result.loads) == pytest.approx(sum(pops), rel=1e-9, abs=1e-9)


@given(popularities, capacities)
@settings(max_examples=60, deadline=None)
def test_mirror_division_load_consistency(pops, caps):
    result = mirror_division(pops, caps)
    manual = [0.0] * len(caps)
    for pop, server in zip(pops, result.assignment):
        manual[server] += pop
    for a, b in zip(result.loads, manual):
        assert a == pytest.approx(b)


@given(popularities, capacities)
@settings(max_examples=60, deadline=None)
def test_greedy_never_worse_than_single_server(pops, caps):
    result = greedy_allocate(pops, caps)
    assert max(result.loads) <= sum(pops) + 1e-9


# ----------------------------------------------------------------------
# Tree splitting invariants
# ----------------------------------------------------------------------
@given(random_trees(), st.integers(min_value=1, max_value=50))
@settings(max_examples=50, deadline=None)
def test_split_partitions_tree(tree, k):
    result = split_top_k(tree, k)
    local = set()
    for root in result.subtree_roots:
        local.add(root)
        local.update(root.descendants())
    # GL and LL partition the node set.
    assert result.global_layer | local == set(tree.nodes)
    assert not (result.global_layer & local)


@given(random_trees(), st.integers(min_value=1, max_value=50))
@settings(max_examples=50, deadline=None)
def test_split_global_layer_connected_and_sized(tree, k):
    result = split_top_k(tree, k)
    assert len(result.global_layer) == min(k, len(tree))
    for node in result.global_layer:
        assert node.parent is None or node.parent in result.global_layer


@given(random_trees(), st.integers(min_value=1, max_value=50))
@settings(max_examples=50, deadline=None)
def test_split_local_popularity_nonnegative(tree, k):
    result = split_top_k(tree, k)
    assert result.local_popularity >= -1e-6
    assert result.update_cost >= 0


# ----------------------------------------------------------------------
# Popularity aggregation invariants
# ----------------------------------------------------------------------
@given(random_trees())
@settings(max_examples=50, deadline=None)
def test_popularity_parent_at_least_child(tree):
    for node in tree:
        if node.parent is not None:
            assert node.parent.popularity >= node.popularity - 1e-9


@given(random_trees())
@settings(max_examples=50, deadline=None)
def test_root_popularity_is_total(tree):
    total = sum(n.individual_popularity for n in tree)
    assert tree.root.popularity == pytest.approx(total)


# ----------------------------------------------------------------------
# Balance metric invariants
# ----------------------------------------------------------------------
@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=2, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_balance_scale_invariance(loads):
    caps = [1.0] * len(loads)
    base = load_variance(loads, caps)
    scaled = load_variance([load * 2 for load in loads], caps)
    assert scaled == pytest.approx(base * 4, rel=1e-6, abs=1e-9)


@given(
    st.lists(st.floats(min_value=0.1, max_value=100, allow_nan=False), min_size=2, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_balance_of_uniform_loads_infinite(loads):
    uniform = [5.0] * len(loads)
    caps = [1.0] * len(loads)
    assert balance_degree(uniform, caps) == float("inf")
    assert ideal_load_factor(uniform, caps) == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Empirical CDF invariants
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_cdf_bounds_and_monotonicity(samples):
    cdf = EmpiricalCDF(samples)
    points = sorted(samples)
    values = [cdf(p) for p in points]
    assert values == sorted(values)
    assert values[-1] == 1.0
    assert all(0.0 <= v <= 1.0 for v in values)


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=100),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_cdf_quantile_consistency(samples, q):
    cdf = EmpiricalCDF(samples)
    value = cdf.quantile(q)
    assert cdf(value) >= q - 1e-9


@given(st.integers(min_value=1, max_value=10_000), st.floats(min_value=0.5, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_dkw_roundtrip(k, confidence):
    eps = dkw_epsilon(k, confidence)
    assert eps > 0
    assert dkw_confidence(k, eps) == pytest.approx(confidence, abs=1e-9)


# ----------------------------------------------------------------------
# Decaying counter invariants (PopularityEstimate)
# ----------------------------------------------------------------------
def _flat_estimate(initial, blend):
    tree = NamespaceTree()
    nodes = []
    for i, p in enumerate(initial):
        nodes.append(tree.add_path(f"/n{i}"))
        tree.record_access(nodes[-1], p)
    tree.aggregate_popularity()
    return nodes, PopularityEstimate(tree.arena(), blend)


@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=8),
    st.lists(
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 10)), max_size=6),
        min_size=1, max_size=12,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_counter_never_negative_and_bounded(initial, windows, blend):
    """However the windows fall, a blended count stays between zero and the
    largest value it was ever fed."""
    nodes, estimate = _flat_estimate(initial, blend)
    ceiling = max(initial)
    for window in windows:
        counts = {nodes[i % len(nodes)]: count for i, count in window}
        ceiling = max([ceiling, *counts.values()])
        estimate.fold(counts)
    estimate.materialise()
    for node in nodes:
        assert 0.0 <= node.individual_popularity <= ceiling * (1 + 1e-12)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=40, deadline=None)
def test_counter_matches_closed_form(blend, idle_rounds, start):
    """Decay-on-read is the per-round decay: ``p * (1 - blend) ** k``."""
    (node,), estimate = _flat_estimate([start], blend)
    for _ in range(idle_rounds):
        estimate.fold({})
    expected = start
    for _ in range(idle_rounds):
        expected = (1 - blend) * expected + blend * 0.0
    assert estimate.subtree_total(node) == pytest.approx(expected, rel=1e-12, abs=1e-300)
    estimate.materialise()
    assert node.popularity == pytest.approx(expected, rel=1e-12, abs=1e-300)
