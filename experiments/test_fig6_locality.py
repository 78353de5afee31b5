"""Fig. 6 — locality performance under different schemes (Eq. 1, E-9 units).

Locality is measured after the system stabilises (the paper replays the
subtraces before reading the metrics), i.e. each scheme gets rebalance
rounds before Eq. 1 is evaluated. Shape checks per the paper:

* D2-Tree has the best locality on DTR (and in our traces everywhere —
  see EXPERIMENTS.md for the LMBE static-vs-D2 nuance);
* D2-Tree and static subtree partitioning stay flat as the cluster scales;
* DROP and AngleCut sit at the bottom ("locality performance is a main
  drawback of AngleCut and DROP").
"""

import pytest

from repro.metrics import evaluate_scheme
from repro.traces import TraceGenerator

from experiments.conftest import CLUSTER_SIZES, bench_profiles, print_series, scheme_roster

REBALANCE_ROUNDS = 10


@pytest.fixture(scope="module")
def locality_grid():
    grid = {}
    for profile in bench_profiles():
        per_scheme = {}
        for scheme in scheme_roster():
            series = []
            for m in CLUSTER_SIZES:
                # Fresh workload per run: rebalancing mutates popularity.
                tree = TraceGenerator(profile).generate().tree
                report = evaluate_scheme(
                    type(scheme)(), tree, m, rebalance_rounds=REBALANCE_ROUNDS
                )
                series.append((report.locality_e9 or 0.0))
            per_scheme[scheme.name] = series
        grid[profile.name] = per_scheme
    return grid


@pytest.mark.parametrize("trace_name", ["DTR", "LMBE", "RA"])
def test_fig6_series(locality_grid, trace_name, benchmark):
    per_scheme = benchmark.pedantic(lambda: locality_grid[trace_name], rounds=1, iterations=1)
    print_series(
        f"Fig. 6 ({trace_name}): locality (E-9) vs cluster size",
        CLUSTER_SIZES,
        sorted(per_scheme.items()),
    )
    d2 = per_scheme["d2-tree"]
    static = per_scheme["static-subtree"]
    for m_index in range(len(CLUSTER_SIZES)):
        # D2-Tree tops every comparator (paper: best on DTR).
        for rival in ("static-subtree", "dynamic-subtree", "drop", "anglecut"):
            assert d2[m_index] >= per_scheme[rival][m_index]
        # Hash-like schemes at the bottom.
        assert static[m_index] > per_scheme["drop"][m_index]
        assert static[m_index] > per_scheme["anglecut"][m_index]
    # Static subtree is flat in cluster size (up to hash luck with the root
    # server). D2-Tree never degrades: the paper's curve is flat, and our
    # promotion extension (hot subtree roots joining the GL during
    # adjustment, Sec. IV-A) can only improve it as the per-server promotion
    # cutoff shrinks with M.
    assert all(b >= a * 0.999 for a, b in zip(d2, d2[1:]))
    assert max(static) / min(static) < 2.0


def test_benchmark_locality_evaluation(benchmark):
    profile = bench_profiles()[0]
    tree = TraceGenerator(profile).generate().tree
    scheme = scheme_roster()[0]

    def evaluate():
        return evaluate_scheme(scheme, tree, 10)

    report = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    assert report.locality > 0
