"""Discrete-event trace replay: the Section VI experiment harness."""

from repro.simulation.faults import FaultEvent, FaultKind, FaultPlan
from repro.simulation.network import (
    CLIENT_ADDR,
    SimNetwork,
    mds_addr,
    mon_addr,
)
from repro.simulation.runner import (
    BalanceTrajectory,
    ClusterSimulator,
    SimulationConfig,
    replay_rounds,
    simulate,
)
from repro.simulation.stats import (
    AvailabilityReport,
    LatencySummary,
    SimulationResult,
    summarize_latencies,
)

__all__ = [
    "CLIENT_ADDR",
    "AvailabilityReport",
    "BalanceTrajectory",
    "ClusterSimulator",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "LatencySummary",
    "SimNetwork",
    "SimulationConfig",
    "SimulationResult",
    "mds_addr",
    "mon_addr",
    "replay_rounds",
    "simulate",
    "summarize_latencies",
]
