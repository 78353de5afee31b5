"""Section V ablation — empirical verification of the sampling theory.

Not a paper figure: Theorems 2-4 are analytical. This bench draws synthetic
subtree populations, runs the sampled mirror division with the Theorem-3
sample sizes, and checks the realised load variance against the Theorem-4
bound, plus the DKW envelope of Theorem 2.
"""

import random

import pytest

from repro.analysis import (
    EmpiricalCDF,
    dkw_epsilon,
    run_bound_experiment,
    sample_size_for_subtree_error,
)


def test_theorem4_bound_holds_empirically(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n=== Thm. 4: sampled allocation vs balance bound ===")
    print(f"{'subtrees':>10}{'servers':>9}{'delta':>8}{'samples':>9}{'variance':>12}{'bound':>12}{'holds':>7}")
    rng = random.Random(77)
    held = 0
    cases = 0
    for num_subtrees in (200, 800):
        for num_servers in (4, 8):
            for delta in (0.3, 0.5):
                pops = [rng.random() * 3 + 0.05 for _ in range(num_subtrees)]
                result = run_bound_experiment(
                    pops, [1.0] * num_servers, delta=delta,
                    rng=random.Random(num_subtrees + num_servers),
                )
                cases += 1
                held += result.holds
                print(
                    f"{result.num_subtrees:>10}{result.num_servers:>9}"
                    f"{result.delta:>8.2f}{result.samples_per_server:>9}"
                    f"{result.achieved_variance:>12.4f}{result.bound:>12.4f}"
                    f"{str(result.holds):>7}"
                )
    # The bound is probabilistic (>= 1 - 2/(t*H)); allow one violation.
    assert held >= cases - 1


def test_dkw_envelope_empirically(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rng = random.Random(5)
    k = 600
    eps = dkw_epsilon(k, confidence=0.99)
    violations = 0
    trials = 40
    for _ in range(trials):
        cdf = EmpiricalCDF([rng.random() for _ in range(k)])
        sup = max(abs(cdf(x / 200) - x / 200) for x in range(201))
        if sup > eps:
            violations += 1
    print(f"\nDKW: eps={eps:.4f} violations={violations}/{trials}")
    assert violations <= max(1, round(0.01 * trials) + 1)


def test_lemma1_sample_sizes_scale(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n=== Lem. 1: sample sizes for subtree error ===")
    print(f"{'H':>8}{'delta':>8}{'samples':>10}")
    for h in (100, 1000, 10000):
        for delta in (1.0, 0.5, 0.1):
            n = sample_size_for_subtree_error(h, 10.0, 0.1, delta=delta)
            print(f"{h:>8}{delta:>8}{n:>10}")
    tight = sample_size_for_subtree_error(1000, 10.0, 0.1, delta=0.1)
    loose = sample_size_for_subtree_error(1000, 10.0, 0.1, delta=1.0)
    assert tight == pytest.approx(loose * 100, rel=0.02)


def test_benchmark_bound_experiment(benchmark):
    rng = random.Random(3)
    pops = [rng.random() + 0.01 for _ in range(500)]

    def run():
        return run_bound_experiment(pops, [1.0] * 4, delta=0.4, rng=random.Random(1))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.bound > 0
