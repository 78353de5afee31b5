"""Fig. 8 — L0 and U0 under different global-layer proportions.

For each proportion (the paper sweeps 0.001 → 0.5 on DTR with a 4-MDS
cluster) we report the (L0, U0) pair that produces that proportion: ``L0`` is
the popularity left in the local layer (the locality bound the split just
meets) and ``U0`` the update cost of the chosen global layer.

Shape: as the global-layer proportion grows, locality improves (the L0 the
system can promise shrinks, i.e. 1/L0 grows) while the update overhead U0
grows — the trade-off Sec. VI-C describes.
"""

import pytest

from repro.core import constraints_for_proportion, tree_split

GL_PROPORTIONS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50)


@pytest.fixture(scope="module")
def constraint_sweep(workloads):
    tree = workloads["DTR"].tree
    return [constraints_for_proportion(tree, p) for p in GL_PROPORTIONS]


def test_fig8_series(constraint_sweep, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n=== Fig. 8: L0 and U0 under different GL proportions (DTR) ===")
    print(f"{'proportion':>12}{'GL nodes':>10}{'L0 (local pop)':>16}{'U0 (update)':>14}{'locality':>14}")
    for constraints in constraint_sweep:
        print(
            f"{constraints.proportion:>12}{constraints.global_layer_size:>10}"
            f"{constraints.locality_threshold:>16.1f}"
            f"{constraints.update_threshold:>14.2f}"
            f"{constraints.result.locality:>14.3e}"
        )
    l0 = [c.locality_threshold for c in constraint_sweep]
    u0 = [c.update_threshold for c in constraint_sweep]
    # U0 grows monotonically with the GL proportion.
    assert all(b >= a for a, b in zip(u0, u0[1:]))
    # L0 (local popularity bound) shrinks — locality improves.
    assert all(b <= a for a, b in zip(l0, l0[1:]))
    # End-to-end the sweep spans a meaningful range.
    assert u0[-1] > u0[0]
    assert l0[0] > l0[-1]


def test_fig8_constraints_regenerate_split(constraint_sweep, workloads, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """Running Alg. 1 with the reported (L0, U0) reproduces a feasible split
    meeting the locality bound."""
    tree = workloads["DTR"].tree
    for constraints in constraint_sweep[:5]:
        result = tree_split(
            tree,
            locality_threshold=constraints.locality_threshold,
            # Nudge past the >= stop so the final node is admitted.
            update_threshold=constraints.update_threshold + 1e-6,
        )
        assert result.feasible
        assert result.local_popularity <= constraints.locality_threshold + 1e-6


def test_benchmark_constraint_sweep(benchmark, workloads):
    tree = workloads["DTR"].tree

    def sweep():
        return [constraints_for_proportion(tree, p) for p in (0.01, 0.1)]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(results) == 2
