"""Shared benchmark fixtures: paper-scale workloads and scheme rosters.

Every benchmark module regenerates one table or figure of the paper. The
workloads are scaled-down versions of the three Microsoft traces (Table I):
the record counts keep the paper's DTR:LMBE:RA ratios, and all shape
parameters (depth, op mix, skew, drift) match the profiles in
``repro.traces.datasets``.
"""

from typing import Dict

import pytest

from repro import registry
from repro.traces import DatasetProfile, GeneratedWorkload, load_workload

#: Cluster sizes swept in Figs. 5-7 (the paper scales 5 → 30 on 32 MDS VMs).
CLUSTER_SIZES = (5, 10, 15, 20, 25, 30)

#: Benchmark workload scale: nodes per tree / fraction of paper record counts.
BENCH_NODES = 8000
BENCH_SCALES = {"DTR": 2e-4, "LMBE": 1e-4, "RA": 5e-5}

#: The five schemes plotted in Figs. 5-7 (static-hash is the Fig. 1b extreme
#: used only by the ablation benches, so the figure roster excludes it).
FIGURE_SCHEMES = (
    "d2-tree",
    "static-subtree",
    "dynamic-subtree",
    "drop",
    "anglecut",
)


def scheme_roster():
    """Fresh instances of the five schemes plotted in Figs. 5-7."""
    return [registry.create(name) for name in FIGURE_SCHEMES]


def bench_profiles():
    """The three Table I profiles at benchmark scale."""
    return (
        DatasetProfile.dtr(BENCH_NODES, BENCH_SCALES["DTR"]),
        DatasetProfile.lmbe(BENCH_NODES, BENCH_SCALES["LMBE"]),
        DatasetProfile.ra(BENCH_NODES, BENCH_SCALES["RA"]),
    )


@pytest.fixture(scope="session")
def workloads() -> Dict[str, GeneratedWorkload]:
    """One generated workload per trace, shared across benchmark modules."""
    return {profile.name: load_workload(profile) for profile in bench_profiles()}


def print_series(title: str, columns, rows) -> None:
    """Render a figure's data as an aligned text table."""
    print(f"\n=== {title} ===")
    header = " " * 18 + "".join(f"{c:>12}" for c in columns)
    print(header)
    for label, values in rows:
        cells = "".join(
            f"{v:>12.2f}" if isinstance(v, float) else f"{v:>12}" for v in values
        )
        print(f"{label:<18}{cells}")
