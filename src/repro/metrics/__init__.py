"""Paper metrics: locality (Eq. 1) and balance (Eq. 2)."""

from repro.metrics.balance import (
    balance_degree,
    balance_from_placement,
    ideal_load_factor,
    load_variance,
)
from repro.metrics.locality import system_locality, weighted_jumps
from repro.metrics.report import MetricsReport, evaluate_placement, evaluate_scheme

__all__ = [
    "MetricsReport",
    "balance_degree",
    "balance_from_placement",
    "evaluate_placement",
    "evaluate_scheme",
    "ideal_load_factor",
    "load_variance",
    "system_locality",
    "weighted_jumps",
]
