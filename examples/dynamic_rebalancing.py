#!/usr/bin/env python3
"""Watch D2-Tree's Dynamic-Adjustment track a drifting workload.

Replays the LMBE trace in rounds. The synthetic trace carries diurnal drift
(the hot set rotates through the day), so a static placement decays while
D2-Tree's pending-pool protocol keeps pulling the cluster back toward the
ideal load factor. Also demonstrates failure handling: an MDS dies halfway
through and its subtrees flow to the survivors.

Run:  python examples/dynamic_rebalancing.py
"""

from repro import D2TreeScheme, DatasetProfile, StaticSubtreeScheme, TraceGenerator
from repro.cluster import fail_server
from repro.core.namespace import PopularityEstimate
from repro.metrics import balance_degree
from repro.simulation.runner import _round_counts, _served_loads

NUM_SERVERS = 6
ROUNDS = 12


def run_rounds(scheme, workload, inject_failure: bool) -> None:
    tree = workload.tree
    pieces = workload.trace.rounds(ROUNDS)
    arena = tree.arena()
    snapshot = arena.individual_popularity()
    # Blend weight 1.0: each round's counts replace the estimate outright.
    estimate = PopularityEstimate(arena, 1.0)
    estimate.fold(_round_counts(pieces[0], tree))
    estimate.materialise()
    placement = scheme.partition(tree, NUM_SERVERS)

    print(f"\n--- {scheme.name} ---")
    print(f"{'round':>6}{'balance':>10}{'moves':>7}  per-server load share (%)")
    for index, piece in enumerate(pieces[1:], start=1):
        counts = _round_counts(piece, tree)
        loads = _served_loads(placement, counts)
        total = sum(loads) or 1.0
        shares = [load / total * 100 for load in loads]
        # Balance over live servers only (a failed MDS has ~zero capacity).
        live = [k for k, cap in enumerate(placement.capacities) if cap > 1e-6]
        live_loads = [loads[k] * len(live) / total for k in live]
        live_caps = [placement.capacities[k] for k in live]
        balance = min(balance_degree(live_loads, live_caps), 1e6)
        estimate.fold(counts)
        estimate.materialise()
        moves = len(scheme.rebalance(tree, placement))
        marker = ""
        if inject_failure and index == ROUNDS // 2:
            fail_server(placement, dead=NUM_SERVERS - 1)
            marker = "  <- MDS %d failed, subtrees re-homed" % (NUM_SERVERS - 1)
        print(f"{index:>6}{balance:>10.2f}{moves:>7}  "
              + " ".join(f"{share:5.1f}" for share in shares) + marker)

    arena.write_popularity(snapshot)  # leave the shared tree as it was


def main() -> None:
    profile = DatasetProfile.lmbe(num_nodes=6000, scale=2e-4)
    print(f"generating {profile.name}: {profile.num_operations} operations, "
          f"{profile.drift_phases} drift phases ...")
    workload = TraceGenerator(profile).generate()

    run_rounds(StaticSubtreeScheme(), workload, inject_failure=False)
    run_rounds(D2TreeScheme(), workload, inject_failure=False)
    run_rounds(D2TreeScheme(), workload, inject_failure=True)
    print("\nhigher balance = flatter load; static decays under drift while "
          "D2-Tree's pending pool keeps pulling the cluster back.")


if __name__ == "__main__":
    main()
