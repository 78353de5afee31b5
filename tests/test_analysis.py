"""Tests for the Section V machinery: CDFs, DKW bounds, sampling sizes."""

import math
import random

import pytest

from repro.analysis import (
    EmpiricalCDF,
    RandomWalkSampler,
    balance_bound,
    dkw_confidence,
    dkw_epsilon,
    run_bound_experiment,
    sample_size_for_mds_error,
    sample_size_for_subtree_error,
)


# ----------------------------------------------------------------------
# EmpiricalCDF
# ----------------------------------------------------------------------
def test_cdf_basic_values():
    cdf = EmpiricalCDF([1, 2, 3, 4])
    assert cdf(0) == 0.0
    assert cdf(1) == 0.25
    assert cdf(2.5) == 0.5
    assert cdf(4) == 1.0
    assert cdf(100) == 1.0


def test_cdf_monotone():
    cdf = EmpiricalCDF([5, 1, 3, 3, 9])
    points = [0, 1, 2, 3, 4, 5, 6, 9, 10]
    values = [cdf(p) for p in points]
    assert values == sorted(values)


def test_cdf_empty_rejected():
    with pytest.raises(ValueError):
        EmpiricalCDF([])


def test_cdf_sup_distance_self_zero():
    cdf = EmpiricalCDF([1, 2, 3])
    assert cdf.sup_distance(cdf) == 0.0


def test_cdf_sup_distance_symmetry():
    a = EmpiricalCDF([1, 2, 3, 4])
    b = EmpiricalCDF([2, 3, 4, 5])
    assert a.sup_distance(b) == pytest.approx(b.sup_distance(a))


# ----------------------------------------------------------------------
# DKW bound (Thm. 2)
# ----------------------------------------------------------------------
def test_dkw_epsilon_shrinks_with_samples():
    assert dkw_epsilon(1000, 0.95) < dkw_epsilon(100, 0.95)


def test_dkw_epsilon_formula():
    expected = math.sqrt(math.log(2 / 0.05) / (2 * 200))
    assert dkw_epsilon(200, 0.95) == pytest.approx(expected)


def test_dkw_confidence_inverse_of_epsilon():
    eps = dkw_epsilon(500, 0.9)
    assert dkw_confidence(500, eps) == pytest.approx(0.9)


def test_dkw_confidence_zero_epsilon():
    assert dkw_confidence(100, 0.0) == 0.0


def test_dkw_validation():
    with pytest.raises(ValueError):
        dkw_epsilon(0, 0.9)
    with pytest.raises(ValueError):
        dkw_epsilon(10, 1.5)


def test_dkw_bound_holds_empirically():
    # Draw k samples from U[0,1]; the sup distance to the true CDF should be
    # below the 99% DKW epsilon almost always.
    rng = random.Random(42)
    k = 400
    eps = dkw_epsilon(k, 0.99)
    violations = 0
    for _ in range(30):
        cdf = EmpiricalCDF([rng.random() for _ in range(k)])
        sup = max(abs(cdf(x / 100) - x / 100) for x in range(101))
        if sup > eps:
            violations += 1
    assert violations <= 1


# ----------------------------------------------------------------------
# Random walk sampler
# ----------------------------------------------------------------------
def test_pool_sampling_uniformish():
    sampler = RandomWalkSampler(rng=random.Random(3))
    pool = list(range(10))
    samples = sampler.sample_pool(pool, 5000)
    counts = [samples.count(i) for i in pool]
    assert max(counts) < 2 * min(counts)


def test_pool_sampling_validation():
    sampler = RandomWalkSampler()
    with pytest.raises(ValueError):
        sampler.sample_pool([], 1)
    with pytest.raises(ValueError):
        sampler.sample_pool([1], -1)


# ----------------------------------------------------------------------
# Sample-size calculators (Lemma 1 / Theorem 3)
# ----------------------------------------------------------------------
def test_subtree_sample_size_grows_with_precision():
    loose = sample_size_for_subtree_error(1000, 10.0, 1.0, delta=1.0)
    tight = sample_size_for_subtree_error(1000, 10.0, 1.0, delta=0.1)
    assert tight > loose


def test_subtree_sample_size_degenerate_spread():
    assert sample_size_for_subtree_error(1000, 5.0, 5.0, delta=0.1) == 1


def test_subtree_sample_size_validation():
    with pytest.raises(ValueError):
        sample_size_for_subtree_error(0, 1, 0, delta=0.1)
    with pytest.raises(ValueError):
        sample_size_for_subtree_error(10, 1, 0, delta=-1)
    with pytest.raises(ValueError):
        sample_size_for_subtree_error(10, 1, 0, delta=0.1, t=2.0)


def test_mds_sample_size_formula_shape():
    small_cap = sample_size_for_mds_error(
        500, capacity_share=0.1, max_popularity=5, min_popularity=1,
        delta=0.2, ideal_load_factor=1.0, capacity=1.0,
    )
    big_cap = sample_size_for_mds_error(
        500, capacity_share=0.1, max_popularity=5, min_popularity=1,
        delta=0.2, ideal_load_factor=1.0, capacity=4.0,
    )
    assert small_cap > big_cap


def test_mds_sample_size_validation():
    with pytest.raises(ValueError):
        sample_size_for_mds_error(10, 0.5, 1, 0, delta=0, ideal_load_factor=1, capacity=1)


# ----------------------------------------------------------------------
# Theorem 4 bound
# ----------------------------------------------------------------------
def test_balance_bound_formula():
    assert balance_bound(4, 0.1, 2.0) == pytest.approx(4 / 3 * (0.2) ** 2)


def test_balance_bound_validation():
    with pytest.raises(ValueError):
        balance_bound(1, 0.1, 1.0)
    with pytest.raises(ValueError):
        balance_bound(4, -0.1, 1.0)


def test_bound_experiment_runs_and_reports():
    rng = random.Random(9)
    pops = [rng.random() * 4 + 0.1 for _ in range(400)]
    result = run_bound_experiment(pops, [1.0] * 4, delta=0.5, rng=random.Random(1))
    assert result.num_subtrees == 400
    assert result.num_servers == 4
    assert result.bound > 0
    assert result.achieved_variance >= 0


def test_bound_experiment_validation():
    with pytest.raises(ValueError):
        run_bound_experiment([], [1.0, 1.0], delta=0.5)
    with pytest.raises(ValueError):
        run_bound_experiment([1.0], [1.0], delta=0.5)
