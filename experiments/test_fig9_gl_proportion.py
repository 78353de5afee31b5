"""Fig. 9 — balance performance vs cluster size for different GL proportions.

The paper sweeps the global-layer proportion over {0.001, 0.01, 0.10, 0.20}
on DTR and shows that a larger global layer yields better balance at every
cluster size: more of the flow-control nodes are replicated, and the local
layer splits into finer subtrees that spread more evenly.
"""

import pytest

from repro.core import D2TreeScheme
from repro.metrics import evaluate_scheme
from repro.traces import TraceGenerator

from experiments.conftest import bench_profiles, print_series

GL_PROPORTIONS = (0.001, 0.01, 0.10, 0.20)
SIZES = (4, 8, 16, 24, 32)


@pytest.fixture(scope="module")
def proportion_grid():
    profile = bench_profiles()[0]  # DTR, as in the paper
    grid = {}
    for proportion in GL_PROPORTIONS:
        series = []
        for m in SIZES:
            tree = TraceGenerator(profile).generate().tree
            report = evaluate_scheme(
                D2TreeScheme(global_layer_fraction=proportion), tree, m,
                rebalance_rounds=5,
            )
            series.append(min(report.balance, 1e6))
        grid[proportion] = series
    return grid


def test_fig9_series(proportion_grid, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_series(
        "Fig. 9: balance vs cluster size under different GL proportions (DTR)",
        SIZES,
        [(str(p), series) for p, series in sorted(proportion_grid.items())],
    )
    # Larger proportion -> better balance, at the majority of cluster sizes
    # and strictly for the extremes.
    smallest = proportion_grid[GL_PROPORTIONS[0]]
    largest = proportion_grid[GL_PROPORTIONS[-1]]
    wins = sum(1 for a, b in zip(smallest, largest) if b >= a)
    assert wins >= len(SIZES) - 1
    assert sum(largest) > sum(smallest)


def test_fig9_monotone_on_average(proportion_grid, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    averages = [
        sum(proportion_grid[p]) / len(SIZES) for p in GL_PROPORTIONS
    ]
    # Allow one local inversion (sampling noise), require overall growth.
    inversions = sum(1 for a, b in zip(averages, averages[1:]) if b < a)
    assert inversions <= 1
    assert averages[-1] > averages[0]


def test_benchmark_partition_with_large_gl(benchmark, workloads):
    tree = workloads["DTR"].tree
    scheme = D2TreeScheme(global_layer_fraction=0.2)

    def partition():
        return scheme.partition(tree, 16)

    placement = benchmark.pedantic(partition, rounds=1, iterations=1)
    assert len(placement.split.global_layer) > 1000
