"""Fig. 7 — load-balancing performance under different schemes (Eq. 2).

Follows the paper's methodology: "the adjustment of workloads among MDS's is
a dynamic process; after the subtraces are replayed to these clusters for 20
times, a relatively balanced status is maintained." Each trace is split into
20 rounds with diurnal popularity drift; every scheme observes each round and
rebalances; the mean balance degree over the last five rounds is plotted
(single-round readings are dominated by sampling noise at small per-round
volumes).

Shape checks per the paper:

* static subtree partitioning is worst ("can cause a severe load imbalance");
* D2-Tree out-balances dynamic subtree partitioning (the text calls this out
  for LMBE and RA);
* the node-granularity adaptive schemes (DROP, AngleCut) and D2-Tree form
  the top group.
"""

import pytest

from repro.simulation import replay_rounds
from repro.traces import DatasetProfile, load_workload

from experiments.conftest import print_series, scheme_roster

ROUNDS = 20
SIZES = (5, 10, 20, 30)

#: Larger traces than the throughput bench: each replay round must carry
#: enough operations per server for Eq. 2 to measure placement quality
#: rather than Poisson noise.
BALANCE_PROFILES = (
    DatasetProfile.dtr(8000, 8e-4),
    DatasetProfile.lmbe(8000, 3e-4),
    DatasetProfile.ra(8000, 1.2e-4),
)


def tail_mean(trajectory, window: int = 5) -> float:
    """Mean balance over the final rounds (the maintained status)."""
    tail = trajectory.per_round[-window:]
    return sum(tail) / len(tail)


@pytest.fixture(scope="module")
def balance_grid():
    grid = {}
    for profile in BALANCE_PROFILES:
        workload = load_workload(profile)
        per_scheme = {}
        for scheme in scheme_roster():
            series = []
            for m in SIZES:
                trajectory = replay_rounds(type(scheme)(), workload, m, rounds=ROUNDS)
                series.append(min(tail_mean(trajectory), 1e6))
            per_scheme[scheme.name] = series
        grid[profile.name] = per_scheme
    return grid


@pytest.mark.parametrize("trace_name", ["DTR", "LMBE", "RA"])
def test_fig7_series(balance_grid, trace_name, benchmark):
    per_scheme = benchmark.pedantic(
        lambda: balance_grid[trace_name], rounds=1, iterations=1
    )
    print_series(
        f"Fig. 7 ({trace_name}): balance degree vs cluster size "
        f"(tail mean of {ROUNDS} replay rounds)",
        SIZES,
        sorted(per_scheme.items()),
    )

    def wins(a, b):
        return sum(1 for x, y in zip(per_scheme[a], per_scheme[b]) if x > y)

    majority = len(SIZES) // 2 + 1
    # Static subtree is the clear loser: it cannot react to drift.
    for rival in ("d2-tree", "drop", "anglecut", "dynamic-subtree"):
        assert wins(rival, "static-subtree") >= majority, (
            f"{rival} should out-balance static on {trace_name}"
        )
    # D2-Tree out-balances dynamic subtree partitioning at most sizes.
    assert wins("d2-tree", "dynamic-subtree") >= majority


def test_fig7_adaptive_top_group(balance_grid, benchmark):
    """DROP/AngleCut/D2-Tree lead; dynamic never doubles the best of them."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for trace_name, per_scheme in balance_grid.items():
        for m_index in range(len(SIZES)):
            top = max(
                per_scheme["drop"][m_index],
                per_scheme["anglecut"][m_index],
                per_scheme["d2-tree"][m_index],
            )
            assert top >= 0.5 * per_scheme["dynamic-subtree"][m_index]
            assert top > per_scheme["static-subtree"][m_index]


def test_benchmark_round_replay(benchmark):
    workload = load_workload(BALANCE_PROFILES[1])

    def run():
        return replay_rounds(scheme_roster()[0], workload, 10, rounds=5)

    trajectory = benchmark.pedantic(run, rounds=1, iterations=1)
    assert trajectory.final_balance > 0
