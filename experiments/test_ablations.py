"""Design-choice ablations called out in DESIGN.md (not paper figures).

1. Mirror division vs LPT greedy vs sampled mirror division — what the
   CDF-matching allocator trades against a classic bin packer.
2. DROP key modes — how much locality DROP would regain with an idealised
   perfectly-subtree-contiguous hash (preorder) vs pathname hashing.
3. Global-layer refresh — the "once a day" re-split against a drifted
   workload.
"""

import random

import pytest

from repro.baselines import DropScheme
from repro.core import (
    D2TreeScheme,
    greedy_allocate,
    mirror_division,
    sampled_mirror_division,
    split_by_proportion,
)
from repro.metrics import balance_degree, evaluate_placement, system_locality
from repro.traces import TraceGenerator

from experiments.conftest import bench_profiles


def test_ablation_allocator_quality(workloads, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tree = workloads["DTR"].tree
    split = split_by_proportion(tree, 0.01)
    pops = [r.popularity for r in split.subtree_roots]
    caps = [1.0] * 8
    rows = [
        ("mirror-division", mirror_division(pops, caps)),
        ("lpt-greedy", greedy_allocate(pops, caps)),
        (
            "sampled-mirror",
            sampled_mirror_division(pops, caps, samples_per_server=2048,
                                    rng=random.Random(1)),
        ),
    ]
    print("\n=== Ablation: subtree allocator quality (DTR, M=8) ===")
    print(f"{'allocator':<18}{'balance':>12}{'max rel load':>14}")
    results = {}
    for name, allocation in rows:
        normalized = [
            load * len(caps) / sum(allocation.loads) for load in allocation.loads
        ]
        balance = min(balance_degree(normalized, caps), 1e6)
        results[name] = balance
        print(f"{name:<18}{balance:>12.2f}{max(normalized):>14.3f}")
    # The sampled variant lands in the same quality regime as the exact
    # mirror division (sampling noise costs roughly one order of magnitude).
    assert results["sampled-mirror"] > 0.02 * results["mirror-division"]


def test_ablation_drop_key_modes(workloads, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tree = workloads["DTR"].tree
    print("\n=== Ablation: DROP locality by key mode (DTR, M=8) ===")
    rows = []
    for mode in ("pathname", "preorder"):
        placement = DropScheme(key_mode=mode).partition(tree, 8)
        loc = system_locality(tree, placement)
        rows.append((mode, loc))
        print(f"{mode:<12} locality={loc:.3e}")
    pathname, preorder = rows[0][1], rows[1][1]
    # The idealised contiguous hash recovers at least 2x locality.
    assert preorder > 2 * pathname


def test_ablation_global_layer_refresh(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """The daily GL re-split recovers locality lost to popularity drift."""
    profile = bench_profiles()[0]
    workload = TraceGenerator(profile).generate()
    tree = workload.tree
    scheme = D2TreeScheme(global_layer_fraction=0.01)
    placement = scheme.partition(tree, 8)

    # Drift: move most popularity to previously-cold files.
    files = [n for n in tree if not n.is_directory]
    cold = sorted(files, key=lambda n: n.individual_popularity)[: len(files) // 4]
    for node in cold:
        node.individual_popularity += 400.0
    tree.aggregate_popularity()

    stale = evaluate_placement(tree, placement, "stale-GL")
    refreshed_placement = scheme.refresh_global_layer(tree, placement)
    refreshed = evaluate_placement(tree, refreshed_placement, "refreshed-GL")
    print("\n=== Ablation: global-layer refresh after drift (DTR, M=8) ===")
    print(f"stale     locality={stale.locality:.3e} balance={min(stale.balance, 1e6):.2f}")
    print(f"refreshed locality={refreshed.locality:.3e} balance={min(refreshed.balance, 1e6):.2f}")
    assert refreshed.locality > stale.locality


def test_ablation_replication_factor(workloads, benchmark):
    """Sec. VII: bounding GL replication tames update overhead at scale.

    On the update-heavy RA trace, sweep the number of global-layer replicas
    at M=16. Fewer replicas cut the update fan-out (less background CPU) at
    the price of concentrating global-layer reads on fewer servers.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.simulation import simulate

    workload = workloads["RA"]
    print("\n=== Ablation: GL replication factor (RA, M=16) ===")
    print(f"{'replicas':>9}{'throughput':>12}{'total visits':>14}{'p95 ms':>9}")
    rows = {}
    for replicas in (2, 4, 8, 16):
        result = simulate(
            D2TreeScheme(replication_factor=replicas), workload, 16
        )
        rows[replicas] = result
        print(
            f"{replicas:>9}{result.throughput:>12.0f}"
            f"{sum(result.server_visits):>14}"
            f"{result.latency.p95 * 1e3:>9.1f}"
        )
    # Fewer replicas strictly reduce the replica-write traffic.
    visits = [sum(rows[r].server_visits) for r in (2, 4, 8, 16)]
    assert all(a <= b for a, b in zip(visits, visits[1:]))
    # Full replication serves GL reads best: throughput within the band.
    assert rows[16].throughput > 0.5 * rows[2].throughput


def test_ablation_heterogeneous_capacities(workloads, benchmark):
    """Mirror division honours per-server capacities C_k (Sec. III-B).

    Half the cluster is twice as fast; loads should track capacity shares.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tree = workloads["DTR"].tree
    caps = [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    placement = D2TreeScheme().partition(tree, 8, capacities=caps)
    loads = placement.loads(tree)
    total = sum(loads)
    fast = sum(loads[:4]) / total
    print("\n=== Ablation: heterogeneous capacities (DTR, M=8, 2:1) ===")
    print(f"fast-half load share = {fast * 100:.1f}% (capacity share 66.7%)")
    assert 0.55 < fast < 0.78


def test_ablation_rename_cost(benchmark):
    """Introduction claim: "the overhead of rehashing metadata when renaming
    an upper directory ... is considerable" for hash-based mapping, while
    tree-partitioning schemes rename nearly for free."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.baselines import (
        AngleCutScheme,
        DynamicSubtreeScheme,
        HashScheme,
        StaticSubtreeScheme,
    )
    from repro.repair import rename_with_repair
    from repro.traces import TraceGenerator

    print("\n=== Ablation: rename of a depth-1 directory (DTR, M=8) ===")
    print(f"{'scheme':<18}{'subtree size':>13}{'moved':>8}{'moved %':>9}{'updates':>9}")
    fractions = {}
    for name, factory, kwargs in (
        ("static-hash", HashScheme, {"cut_depth": -1}),
        ("static-subtree", StaticSubtreeScheme, {"cut_depth": 1}),
        ("dynamic-subtree", DynamicSubtreeScheme, {}),
        ("drop", lambda: DropScheme(key_mode="pathname"), {}),
        ("anglecut", AngleCutScheme, {}),
        ("d2-tree", D2TreeScheme, {}),
    ):
        workload = TraceGenerator(bench_profiles()[0]).generate()
        tree = workload.tree
        placement = factory().partition(tree, 8)
        target = max(
            (n for n in tree if n.is_directory and n.depth == 1 and n.subtree_size() > 20),
            key=lambda n: n.subtree_size(),
        )
        report = rename_with_repair(placement, tree, target, "renamed_dir", **kwargs)
        fractions[name] = report.migration_fraction
        print(
            f"{name:<18}{report.paths_changed:>13}{report.metadata_moved:>8}"
            f"{report.migration_fraction * 100:>8.1f}%{report.entries_updated:>9}"
        )
    assert fractions["d2-tree"] == 0.0
    assert fractions["dynamic-subtree"] == 0.0
    assert fractions["static-hash"] > 0.5
    assert fractions["drop"] > 0.3


def test_ablation_ghba_lookup_cost(workloads, benchmark):
    """Related Work [17]: G-HBA routes lookups via grouped Bloom filters,
    "improving the scalability of the MDS cluster, while complicating the
    lookup operations." Measure messages per lookup vs group size."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    import random as _random

    from repro.baselines import GHBADirectory, HashScheme

    tree = workloads["DTR"].tree
    placement = HashScheme().partition(tree, 16)
    rng = _random.Random(11)
    sample = rng.sample(list(tree.nodes), 300)
    print("\n=== Ablation: G-HBA lookup cost (DTR, M=16) ===")
    print(f"{'group size':>11}{'msgs/lookup':>13}{'fp/lookup':>11}{'memory Mbit':>13}")
    costs = {}
    for group_size in (2, 4, 8, 16):
        ghba = GHBADirectory(placement, tree, group_size=group_size)
        messages = fps = 0
        for node in sample:
            result = ghba.lookup(node.path, from_server=rng.randrange(16))
            messages += result.messages
            fps += result.false_positives
        costs[group_size] = messages / len(sample)
        print(
            f"{group_size:>11}{messages / len(sample):>13.2f}"
            f"{fps / len(sample):>11.3f}"
            f"{ghba.memory_bits() / 1e6:>13.2f}"
        )
    # Bigger groups localise more lookups (fewer remote multicasts) at the
    # price of replicated filter memory.
    assert costs[16] < costs[2]


def test_ablation_create_intensive(benchmark):
    """Create-intensive replay (the Giga+ motivation from Related Work).

    20% of cold files do not exist at partition time; every scheme must
    place the newcomers on the fly. Subtree-grained schemes co-locate
    creates with their parent directory for free; hash-grained schemes
    scatter them.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    import dataclasses

    from repro.baselines import (
        AngleCutScheme,
        DynamicSubtreeScheme,
        StaticSubtreeScheme,
    )
    from repro.simulation.runner import ClusterSimulator
    from repro.traces import DatasetProfile, TraceGenerator

    profile = dataclasses.replace(
        DatasetProfile.lmbe(8000, 1e-4), create_fraction=0.2
    )
    workload = TraceGenerator(profile).generate()
    print("\n=== Ablation: create-intensive LMBE (20% late files, M=8) ===")
    print(f"{'scheme':<18}{'throughput':>12}{'explicit creates':>18}")
    results = {}
    for factory in (D2TreeScheme, StaticSubtreeScheme, DynamicSubtreeScheme,
                    DropScheme, AngleCutScheme):
        sim = ClusterSimulator(factory(), workload, 8)
        result = sim.run()
        results[result.scheme] = result.throughput
        print(f"{result.scheme:<18}{result.throughput:>12.0f}{sim.created:>18}")
    assert results["d2-tree"] > results["drop"]
    assert results["d2-tree"] > results["anglecut"]


def test_ablation_failure_recovery(workloads, benchmark):
    """MDS failure mid-replay (Sec. IV-A3): the Monitor re-homes the dead
    server's subtrees; D2-Tree's replicated global layer keeps serving."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.baselines import StaticSubtreeScheme
    from repro.simulation import FaultPlan, SimulationConfig
    from repro.simulation.runner import ClusterSimulator

    workload = workloads["DTR"]
    print("\n=== Ablation: MDS crash at 1/3 of the DTR replay (M=8) ===")
    print(f"{'scheme':<18}{'healthy':>10}{'with crash':>12}{'retained':>10}")
    crash_at = len(workload.trace) // 3
    for factory in (D2TreeScheme, StaticSubtreeScheme, DropScheme):
        healthy = ClusterSimulator(factory(), workload, 8).run()
        crashed = ClusterSimulator(
            factory(), workload, 8,
            SimulationConfig(
                fault_plan=FaultPlan.parse([f"crash:3@ops={crash_at}"])
            ),
        ).run()
        retained = crashed.throughput / healthy.throughput
        print(f"{factory().name:<18}{healthy.throughput:>10.0f}"
              f"{crashed.throughput:>12.0f}{retained * 100:>9.1f}%")
        assert crashed.operations == healthy.operations
        # Losing 1/8 of the cluster costs at most ~40% of throughput.
        assert retained > 0.6


def test_benchmark_mirror_division(benchmark):
    rng = random.Random(2)
    pops = [rng.random() for _ in range(5000)]
    caps = [1.0] * 16

    def run():
        return mirror_division(pops, caps)

    allocation = benchmark(run)
    assert len(allocation.assignment) == 5000


def test_benchmark_tree_split(benchmark, workloads):
    tree = workloads["RA"].tree

    def run():
        return split_by_proportion(tree, 0.01)

    result = benchmark(run)
    assert result.feasible
