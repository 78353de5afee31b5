"""Tests for the G-HBA Bloom-filter lookup directory."""

import random

import pytest

from repro.baselines import HashScheme
from repro.baselines.ghba import BloomFilter, GHBADirectory
from tests.conftest import build_random_tree


# ----------------------------------------------------------------------
# BloomFilter
# ----------------------------------------------------------------------
def test_bloom_no_false_negatives():
    bloom = BloomFilter.for_capacity(200, bits_per_entry=10)
    items = [f"/dir/file{i}.txt" for i in range(200)]
    for item in items:
        bloom.add(item)
    assert all(item in bloom for item in items)


def test_bloom_false_positive_rate_near_theory():
    bloom = BloomFilter.for_capacity(500, bits_per_entry=10)
    for i in range(500):
        bloom.add(f"/stored/{i}")
    probes = 5000
    hits = sum(1 for i in range(probes) if f"/absent/{i}" in bloom)
    measured = hits / probes
    theory = bloom.theoretical_fp_rate()
    assert measured < 4 * max(theory, 1e-3)


def test_bloom_fp_rate_drops_with_memory():
    def rate(bits_per_entry):
        bloom = BloomFilter.for_capacity(300, bits_per_entry)
        for i in range(300):
            bloom.add(f"/x/{i}")
        return sum(1 for i in range(3000) if f"/y/{i}" in bloom) / 3000

    assert rate(16) <= rate(4)


def test_bloom_empty_filter_rejects_everything():
    bloom = BloomFilter(256, 4)
    assert "/anything" not in bloom
    assert bloom.theoretical_fp_rate() == 0.0


def test_bloom_validation():
    with pytest.raises(ValueError):
        BloomFilter(4, 2)
    with pytest.raises(ValueError):
        BloomFilter(64, 0)


# ----------------------------------------------------------------------
# GHBADirectory
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def directory():
    tree = build_random_tree(400, seed=41)
    placement = HashScheme().partition(tree, 8)
    return tree, placement, GHBADirectory(placement, tree, group_size=4)


def test_lookup_finds_every_stored_path(directory):
    tree, placement, ghba = directory
    rng = random.Random(1)
    sample = rng.sample(list(tree), 60)
    for node in sample:
        result = ghba.lookup(tree.path(node), from_server=rng.randrange(8))
        assert result.server == placement.primary_of(node)


def test_lookup_missing_path_exhausts_stages(directory):
    _tree, placement, ghba = directory
    result = ghba.lookup("/definitely/not/stored.bin", from_server=0)
    assert result.server is None
    assert result.stage == "broadcast"
    assert result.messages >= placement.num_servers


def test_local_group_lookups_are_cheap(directory):
    tree, placement, ghba = directory
    # Pick a node stored inside server 0's group (servers 0-3).
    node = next(n for n in tree if placement.primary_of(n) in (0, 1, 2, 3))
    result = ghba.lookup(tree.path(node), from_server=0)
    assert result.stage == "local-group"
    assert result.messages <= ghba.group_size


def test_remote_lookup_costs_scale_with_groups(directory):
    tree, placement, ghba = directory
    node = next(n for n in tree if placement.primary_of(n) >= 4)
    result = ghba.lookup(tree.path(node), from_server=0)
    assert result.stage in ("remote-group", "broadcast")
    assert result.messages >= 1


def test_group_partitioning(directory):
    _tree, _placement, ghba = directory
    assert ghba.num_groups == 2
    assert ghba.group_members(0) == [0, 1, 2, 3]
    assert ghba.group_members(1) == [4, 5, 6, 7]
    assert ghba.group_of(5) == 1


def test_ragged_last_group():
    tree = build_random_tree(150, seed=5)
    placement = HashScheme().partition(tree, 6)
    ghba = GHBADirectory(placement, tree, group_size=4)
    assert ghba.num_groups == 2
    assert ghba.group_members(1) == [4, 5]


def test_memory_accounting(directory):
    _tree, _placement, ghba = directory
    # Replication: each group member holds the whole group's filters.
    raw = sum(f.num_bits for f in ghba.filters)
    assert ghba.memory_bits() == raw * ghba.group_size


def test_group_size_validation(directory):
    tree, placement, _ghba = directory
    with pytest.raises(ValueError):
        GHBADirectory(placement, tree, group_size=0)


def test_more_memory_fewer_false_positives():
    tree = build_random_tree(500, seed=9)
    placement = HashScheme().partition(tree, 8)
    rng = random.Random(3)
    sample = rng.sample(list(tree), 80)

    def total_fps(bits_per_entry):
        ghba = GHBADirectory(placement, tree, group_size=4,
                             bits_per_entry=bits_per_entry)
        return sum(
            ghba.lookup(tree.path(n), from_server=rng.randrange(8)).false_positives
            for n in sample
        )

    assert total_fps(16) <= total_fps(2)
