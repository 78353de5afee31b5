"""Table II — operation breakdowns for the three traces.

Regenerates the read/write/update percentages from the synthetic traces and
checks them against the paper's values.
"""

import pytest

from repro.traces import OpType

from experiments.conftest import bench_profiles

PAPER_BREAKDOWN = {
    "DTR": {OpType.READ: 0.67743, OpType.WRITE: 0.26137, OpType.UPDATE: 0.06119},
    "LMBE": {OpType.READ: 0.78877, OpType.WRITE: 0.21108, OpType.UPDATE: 0.00015},
    "RA": {OpType.READ: 0.47734, OpType.WRITE: 0.36174, OpType.UPDATE: 0.16102},
}


def test_table2_breakdowns(workloads, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n=== Table II: Operation breakdowns (measured vs paper) ===")
    print(f"{'':<10}" + "".join(f"{name:>18}" for name in ("DTR", "LMBE", "RA")))
    measured = {
        name: workloads[name].trace.operation_breakdown()
        for name in ("DTR", "LMBE", "RA")
    }
    for op in (OpType.READ, OpType.WRITE, OpType.UPDATE):
        cells = []
        for name in ("DTR", "LMBE", "RA"):
            got = measured[name][op]
            want = PAPER_BREAKDOWN[name][op]
            cells.append(f"{got * 100:6.2f}% ({want * 100:5.2f}%)")
        print(f"{op.value:<10}" + "".join(f"{c:>18}" for c in cells))
    for name, paper in PAPER_BREAKDOWN.items():
        for op, want in paper.items():
            assert measured[name][op] == pytest.approx(want, abs=0.02), (
                f"{name}/{op.value}: measured {measured[name][op]:.4f} "
                f"vs paper {want:.4f}"
            )


def test_benchmark_breakdown_computation(benchmark, workloads):
    trace = workloads["RA"].trace
    breakdown = benchmark(trace.operation_breakdown)
    assert sum(breakdown.values()) == pytest.approx(1.0)
