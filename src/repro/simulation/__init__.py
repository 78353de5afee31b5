"""Discrete-event trace replay: the Section VI experiment harness."""

from repro.simulation.faults import FaultEvent, FaultKind, FaultPlan
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
from repro.transport.base import CLIENT_ADDR, mds_addr, mon_addr

__all__ = [
    "CLIENT_ADDR",
    "AvailabilityReport",
    "BalanceTrajectory",
    "ClusterSimulator",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "LatencySummary",
    "SimulationConfig",
    "SimulationResult",
    "mds_addr",
    "mon_addr",
    "replay_rounds",
    "simulate",
    "summarize_latencies",
]
