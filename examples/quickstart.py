#!/usr/bin/env python3
"""Quickstart: partition a namespace tree with D2-Tree and read the metrics.

Builds a small file-system namespace by hand, records some access traffic,
then runs the three D2-Tree phases (Tree-Splitting, Subtree-Allocation and a
Dynamic-Adjustment round) and prints the paper's metrics.

Run:  python examples/quickstart.py
"""

from repro import D2TreeScheme, NamespaceTree, evaluate_placement


def build_namespace() -> NamespaceTree:
    """A miniature project file system with skewed access."""
    tree = NamespaceTree()
    # Hot release artefacts: most of the traffic.
    for i in range(8):
        node = tree.add_path(f"/releases/v2.1/pkg{i}.tar.gz")
        tree.record_access(node, weight=120 - 10 * i)
    # Team home directories: moderate, spread traffic.
    for team in ("alice", "bob", "carol"):
        for i in range(12):
            node = tree.add_path(f"/home/{team}/doc{i}.txt")
            tree.record_access(node, weight=3.0)
    # Deep build outputs: cold.
    for i in range(20):
        node = tree.add_path(f"/build/out/x86/debug/obj/unit{i}.o")
        tree.record_access(node, weight=0.5)
    # Every node pays a small replication-maintenance cost.
    for node in tree:
        tree.update_cost[node] = 0.1
    tree.aggregate_popularity()
    return tree


def main() -> None:
    tree = build_namespace()
    print(f"namespace: {len(tree)} nodes, max depth {tree.depth()}, "
          f"total popularity {tree.total_popularity:.0f}")

    # Configure D2-Tree: replicate the most popular 10% of nodes.
    scheme = D2TreeScheme(global_layer_fraction=0.10)
    placement = scheme.partition(tree, num_servers=4)

    split = placement.split
    print(f"\nglobal layer: {len(split.global_layer)} nodes "
          f"(update cost {split.update_cost:.1f})")
    print(f"local layer : {len(split.subtree_roots)} subtrees, "
          f"popularity {split.local_popularity:.0f}")
    print("sample global-layer paths:")
    for node in sorted(split.global_layer, key=lambda n: -tree.popularity[n])[:5]:
        print(f"  {tree.path(node):<40} p={tree.popularity[node]:.0f}")

    print("\nper-server placement of subtrees:")
    for root, server in sorted(
        placement.subtree_owner.items(), key=lambda kv: -tree.popularity[kv[0]]
    )[:6]:
        print(f"  MDS {server}: {tree.path(root):<38} p={tree.popularity[root]:.0f}")

    report = evaluate_placement(tree, placement, scheme_name="d2-tree")
    print(f"\nmetrics: locality={report.locality:.3e}  "
          f"balance={report.balance:.1f}  mu={report.mu:.2f}")
    print(f"server loads: {[round(load, 1) for load in report.loads]}")

    # Shift traffic and let Dynamic-Adjustment react.
    hot = tree.lookup("/build/out/x86/debug/obj/unit0.o")
    tree.record_access(hot, weight=500.0)
    tree.aggregate_popularity()
    migrations = scheme.rebalance(tree, placement)
    print(f"\nafter a traffic shift, the adjuster moved {len(migrations)} subtree(s):")
    for migration in migrations:
        print(f"  {tree.path(migration.node)}: MDS {migration.source} -> {migration.target}")
    report = evaluate_placement(tree, placement, scheme_name="d2-tree")
    print(f"rebalanced loads: {[round(load, 1) for load in report.loads]}")


if __name__ == "__main__":
    main()
