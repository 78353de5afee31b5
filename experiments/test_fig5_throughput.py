"""Fig. 5 — throughput as the MDS cluster is scaled (3 traces × 5 schemes).

Replays each trace through the closed-loop cluster simulator with the
paper's 200-client base, sweeping the cluster from 5 to 30 servers, and
prints one sub-figure per trace. Shape checks follow the paper's narrative:

* D2-Tree outperforms dynamic subtree partitioning, DROP and AngleCut;
* static subtree partitioning is the strongest comparator (it wins DTR);
* hash-like schemes (DROP/AngleCut) sit at the bottom.
"""

import pytest

from repro.core import D2TreeScheme
from repro.simulation import simulate

from experiments.conftest import CLUSTER_SIZES, print_series, scheme_roster


@pytest.fixture(scope="module")
def throughput_grid(workloads):
    grid = {}
    for name, workload in workloads.items():
        per_scheme = {}
        for scheme in scheme_roster():
            series = [
                simulate(type(scheme)(), workload, m).throughput
                for m in CLUSTER_SIZES
            ]
            per_scheme[scheme.name] = series
        grid[name] = per_scheme
    return grid


@pytest.mark.parametrize("trace_name", ["DTR", "LMBE", "RA"])
def test_fig5_series(throughput_grid, trace_name, benchmark):
    per_scheme = benchmark.pedantic(lambda: throughput_grid[trace_name], rounds=1, iterations=1)
    print_series(
        f"Fig. 5 ({trace_name}): throughput (ops/s) vs cluster size",
        CLUSTER_SIZES,
        sorted(per_scheme.items()),
    )
    d2 = per_scheme["d2-tree"]
    for rival in ("drop", "anglecut"):
        for m_index in range(len(CLUSTER_SIZES)):
            assert d2[m_index] > per_scheme[rival][m_index], (
                f"D2-Tree should beat {rival} on {trace_name} at "
                f"M={CLUSTER_SIZES[m_index]}"
            )
    # D2-Tree beats dynamic subtree partitioning at scale (M >= 10).
    for m_index, m in enumerate(CLUSTER_SIZES):
        if m >= 10:
            assert d2[m_index] > per_scheme["dynamic-subtree"][m_index]
    # D2-Tree scales with the cluster (read-heavy workloads scale linearly).
    assert d2[-1] > 1.5 * d2[0]


def test_fig5_static_is_strongest_comparator_on_dtr(throughput_grid, benchmark):
    """Paper: 'static subtree partition outperforms D2-Tree in DTR'.

    Under our drifting synthetic DTR, static wins at the smallest cluster and
    stays the strongest comparator, but D2-Tree overtakes it as the cluster
    scales (the drift keeps moving static's hot-spot bottleneck around) — see
    EXPERIMENTS.md for the crossover discussion.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    per_scheme = throughput_grid["DTR"]
    assert per_scheme["static-subtree"][0] > per_scheme["d2-tree"][0]
    static_mean = sum(per_scheme["static-subtree"]) / len(CLUSTER_SIZES)
    for rival in ("dynamic-subtree", "drop", "anglecut"):
        assert static_mean > sum(per_scheme[rival]) / len(CLUSTER_SIZES)


def test_benchmark_single_replay(benchmark, workloads):
    workload = workloads["DTR"]

    def replay():
        return simulate(D2TreeScheme(), workload, 10)

    result = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert result.throughput > 0
