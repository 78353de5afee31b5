"""repro — a reproduction of D2-Tree (ICDCS 2018).

D2-Tree is a distributed double-layer namespace tree partition scheme for
metadata management in large-scale storage systems: the popular upper part of
the namespace (the *global layer*) is replicated to every metadata server,
while the remaining subtrees (the *local layer*) are spread via a CDF-based
mirror-division allocator and kept balanced by a pending-pool adjustment
protocol.

Quickstart::

    from repro import DatasetProfile, TraceGenerator, D2TreeScheme, evaluate_scheme

    workload = TraceGenerator(DatasetProfile.dtr(num_nodes=10_000)).generate()
    scheme = D2TreeScheme(global_layer_fraction=0.01)
    report = evaluate_scheme(scheme, workload.tree, num_servers=8)
    print(report.row())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured results.
"""

from repro.baselines import (
    AngleCutScheme,
    DropScheme,
    DynamicSubtreeScheme,
    HashScheme,
    StaticSubtreeScheme,
)
from repro.core import (
    D2TreePlacement,
    D2TreeScheme,
    NamespaceTree,
    SplitResult,
    mirror_division,
    split_by_proportion,
    tree_split,
)
from repro.metrics import (
    MetricsReport,
    balance_degree,
    evaluate_placement,
    evaluate_scheme,
    system_locality,
)
from repro.placement import MetadataScheme, Migration, Placement
from repro import registry
from repro.simulation import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
    replay_rounds,
    simulate,
)
from repro.traces import DatasetProfile, Trace, TraceGenerator, load_workload

__version__ = "1.0.0"

__all__ = [
    "AngleCutScheme",
    "ClusterSimulator",
    "D2TreePlacement",
    "D2TreeScheme",
    "DatasetProfile",
    "DropScheme",
    "DynamicSubtreeScheme",
    "HashScheme",
    "MetadataScheme",
    "MetricsReport",
    "Migration",
    "NamespaceTree",
    "Placement",
    "SimulationConfig",
    "SimulationResult",
    "SplitResult",
    "StaticSubtreeScheme",
    "Trace",
    "TraceGenerator",
    "balance_degree",
    "evaluate_placement",
    "evaluate_scheme",
    "load_workload",
    "registry",
    "mirror_division",
    "replay_rounds",
    "simulate",
    "split_by_proportion",
    "system_locality",
    "tree_split",
]
