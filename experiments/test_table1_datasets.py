"""Table I — descriptions of the three datasets.

Regenerates the Table I rows from the synthetic profiles, reporting both the
paper's raw figures and the scaled equivalents this reproduction replays.
The benchmark times workload generation (tree + trace synthesis).
"""

from repro.traces import (
    PAPER_RECORD_COUNTS,
    PAPER_TRACE_SIZES_GB,
    DatasetProfile,
    TraceGenerator,
)

from experiments.conftest import bench_profiles


def test_table1_rows(workloads, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n=== Table I: The description of 3 datasets ===")
    print(
        f"{'Trace Name':<24}{'Paper Size':>12}{'Paper Records':>15}"
        f"{'Max Depth':>11}{'Repro Nodes':>13}{'Repro Records':>15}"
    )
    for profile in bench_profiles():
        workload = workloads[profile.name]
        measured_depth = workload.tree.depth()
        assert measured_depth == profile.max_depth, (
            f"{profile.name}: generated depth {measured_depth} != Table I "
            f"value {profile.max_depth}"
        )
        print(
            f"{profile.name:<24}"
            f"{PAPER_TRACE_SIZES_GB[profile.name]:>10.1f}GB"
            f"{PAPER_RECORD_COUNTS[profile.name]:>15,}"
            f"{measured_depth:>11}"
            f"{len(workload.tree):>13,}"
            f"{len(workload.trace):>15,}"
        )
    # Scaled record counts preserve the paper's DTR:LMBE:RA ratio.
    dtr, lmbe, ra = (workloads[n].trace for n in ("DTR", "LMBE", "RA"))
    paper_ratio = PAPER_RECORD_COUNTS["RA"] / PAPER_RECORD_COUNTS["DTR"]
    # Scales differ per trace to keep runtimes level; verify within 5x.
    assert 0.2 < (len(ra) / len(dtr)) / paper_ratio * 4 < 5


def test_benchmark_trace_generation(benchmark):
    profile = DatasetProfile.dtr(num_nodes=4000, scale=5e-5)

    def generate():
        return TraceGenerator(profile).generate()

    workload = benchmark.pedantic(generate, rounds=1, iterations=1)
    assert len(workload.trace) == profile.num_operations
