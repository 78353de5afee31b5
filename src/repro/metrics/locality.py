"""Locality metrics — Def. 1, Def. 3 / Eq. 1 of the paper.

``locality = 1 / Σ_j jp_j · p_j`` where ``jp_j`` is the number of inter-MDS
jumps incurred by a POSIX path traversal to node ``n_j`` and ``p_j`` its
total access popularity. Higher is better; a single-server system has
infinite locality.
"""

from __future__ import annotations

from repro.placement import Placement
from repro.core.namespace import NamespaceTree

__all__ = ["weighted_jumps", "system_locality"]


def weighted_jumps(tree: NamespaceTree, placement: Placement) -> float:
    """``Σ_j jp_j · p_j`` — the denominator of Eq. 1."""
    tree.ensure_popularity()
    popularity = tree.popularity
    total = 0.0
    for node in tree:
        jumps = placement.jumps_for(node, tree)
        if jumps:
            total += jumps * popularity[node]
    return total


def system_locality(tree: NamespaceTree, placement: Placement) -> float:
    """Global locality value (Eq. 1); ``inf`` when no access ever jumps."""
    denominator = weighted_jumps(tree, placement)
    if denominator <= 0:
        return float("inf")
    return 1.0 / denominator
