"""Unit tests for mirror-division subtree allocation."""

import random

import pytest

from repro.core import (
    allocate_subtrees,
    greedy_allocate,
    mirror_division,
    sampled_mirror_division,
    split_by_proportion,
)
from tests.conftest import build_random_tree


def test_paper_fig4_example():
    # Five subtrees with popularity ratios .5/.2/.1/.1/.1 and three servers
    # with capacities .5/.3/.2 — the worked example of Fig. 4.
    result = mirror_division([50, 20, 10, 10, 10], [5, 3, 2])
    assert result.assignment == [0, 1, 1, 2, 2]
    assert result.loads == [50, 30, 20]


def test_every_subtree_assigned():
    result = mirror_division([3, 1, 4, 1, 5, 9, 2, 6], [1, 1, 1])
    assert len(result.assignment) == 8
    assert all(0 <= s < 3 for s in result.assignment)


def test_loads_match_assignment():
    pops = [3, 1, 4, 1, 5]
    result = mirror_division(pops, [1, 1])
    loads = [0.0, 0.0]
    for pop, server in zip(pops, result.assignment):
        loads[server] += pop
    assert result.loads == loads


def test_total_load_conserved():
    pops = [7, 2, 9, 4]
    result = mirror_division(pops, [2, 1, 1])
    assert sum(result.loads) == pytest.approx(sum(pops))


def test_proportional_to_capacity():
    # Many small subtrees: loads should track the capacity ratio closely.
    rng = random.Random(5)
    pops = [rng.random() for _ in range(2000)]
    caps = [3.0, 1.0]
    result = mirror_division(pops, caps)
    ratio = result.loads[0] / sum(result.loads)
    assert ratio == pytest.approx(0.75, abs=0.02)


def test_empty_subtrees_rejected():
    with pytest.raises(ValueError):
        mirror_division([], [1, 1])


def test_negative_popularity_rejected():
    with pytest.raises(ValueError):
        mirror_division([1, -2], [1, 1])


def test_zero_total_capacity_rejected():
    with pytest.raises(ValueError):
        mirror_division([1, 2], [0, 0])


def test_single_server_gets_everything():
    result = mirror_division([5, 3, 2], [10])
    assert result.assignment == [0, 0, 0]


def test_zero_popularity_subtrees_round_robin():
    result = mirror_division([0, 0, 0, 0], [1, 1])
    assert sorted(result.assignment) == [0, 0, 1, 1]


def test_relative_loads():
    result = mirror_division([4, 4], [2, 2])
    assert result.loads == [pytest.approx(4.0), pytest.approx(4.0)]


def test_sampled_matches_exact_with_many_samples():
    rng = random.Random(11)
    pops = [rng.random() * 10 for _ in range(300)]
    caps = [1.0, 1.0, 1.0]
    exact = mirror_division(pops, caps)
    sampled = sampled_mirror_division(pops, caps, samples_per_server=4000, rng=random.Random(1))
    # Loads should be close even if individual assignments differ.
    for a, b in zip(exact.loads, sampled.loads):
        assert b == pytest.approx(a, rel=0.25)


def test_sampled_requires_positive_samples():
    with pytest.raises(ValueError):
        sampled_mirror_division([1, 2], [1, 1], samples_per_server=0)


def test_sampled_all_assigned():
    result = sampled_mirror_division([5, 1, 3], [1, 1], 8, rng=random.Random(2))
    assert all(s in (0, 1) for s in result.assignment)
    assert sum(result.loads) == pytest.approx(9.0)


def test_greedy_allocate_balances():
    result = greedy_allocate([5, 4, 3, 3, 2, 1], [1, 1, 1])
    assert max(result.loads) - min(result.loads) <= 2


def test_greedy_allocate_respects_capacity_weighting():
    result = greedy_allocate([6, 2], [3, 1])
    assert result.assignment[0] == 0  # biggest item to biggest server


def test_greedy_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        greedy_allocate([1], [0, 1])


def test_allocate_subtrees_uses_root_popularity():
    tree = build_random_tree(300)
    split = split_by_proportion(tree, 0.05)
    result = allocate_subtrees(split.subtree_roots, tree.popularity, [1.0, 1.0, 1.0])
    assert set(result.by_root) == set(split.subtree_roots)
    assert sum(result.loads) == pytest.approx(
        sum(tree.popularity[r] for r in split.subtree_roots)
    )


def test_allocate_subtrees_sampled_mode():
    tree = build_random_tree(300)
    split = split_by_proportion(tree, 0.05)
    result = allocate_subtrees(
        split.subtree_roots, tree.popularity, [1.0, 1.0], sampled=True, samples_per_server=32,
        rng=random.Random(4),
    )
    assert len(result.assignment) == len(split.subtree_roots)


def test_mirror_division_deterministic():
    pops = [3, 1, 4, 1, 5, 9]
    a = mirror_division(pops, [1, 1, 1])
    b = mirror_division(pops, [1, 1, 1])
    assert a.assignment == b.assignment


def test_dominant_subtree_window_matches_its_mass():
    # A subtree's index is its cumulative mass fraction (Fig. 4), so a
    # dominant subtree (98% of mass) lands in the window containing 0.98 —
    # the last of four equal windows.
    result = mirror_division([100, 1, 1], [1, 1, 1, 1])
    assert result.assignment[0] == 3
