"""Load-balance metrics — Sec. III-B, Def. 5 / Eq. 2 of the paper.

``balance = 1 / [ (1/(M−1)) Σ_k (L_k/C_k − μ)² ]`` with the ideal load factor
``μ = ΣL / ΣC``. Higher is better; a perfectly balanced cluster has infinite
balance degree.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.placement import Placement
from repro.core.namespace import NamespaceTree
from repro.numeric import ordered_sum

__all__ = [
    "ideal_load_factor",
    "load_variance",
    "balance_degree",
    "balance_from_placement",
]


def ideal_load_factor(loads: Sequence[float], capacities: Sequence[float]) -> float:
    """``μ = Σ L_i / Σ C_i`` — the perfect proportion factor."""
    if len(loads) != len(capacities):
        raise ValueError("loads and capacities must align")
    total_cap = ordered_sum(capacities)
    if total_cap <= 0:
        raise ValueError("total capacity must be positive")
    return ordered_sum(loads) / total_cap


def load_variance(loads: Sequence[float], capacities: Sequence[float]) -> float:
    """``(1/(M−1)) Σ_k (L_k/C_k − μ)²`` — the Eq. 2 denominator."""
    if len(loads) < 2:
        raise ValueError("balance degree needs at least two servers")
    mu = ideal_load_factor(loads, capacities)
    total = ordered_sum((load / cap - mu) ** 2 for load, cap in zip(loads, capacities))
    return total / (len(loads) - 1)


def balance_degree(loads: Sequence[float], capacities: Sequence[float]) -> float:
    """Load balance degree (Eq. 2); ``inf`` for a perfectly balanced cluster."""
    variance = load_variance(loads, capacities)
    if variance <= 0:
        return float("inf")
    return 1.0 / variance


def balance_from_placement(
    tree: NamespaceTree,
    placement: Placement,
    normalize: bool = True,
) -> float:
    """Balance degree of a placement under the tree's current popularity.

    ``normalize=True`` rescales loads so the total equals 1 before applying
    Eq. 2. Raw popularity totals differ across trace profiles by orders of
    magnitude, and since Eq. 2 is quadratic in load the unnormalised values
    are incomparable across workloads; normalising puts every scheme/workload
    pair on the paper's O(10–250) axis.
    """
    loads = placement.loads(tree)
    if normalize:
        total = ordered_sum(loads)
        if total > 0:
            scale = placement.num_servers / total
            loads = [load * scale for load in loads]
    return balance_degree(loads, placement.capacities)
