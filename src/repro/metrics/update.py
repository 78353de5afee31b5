"""Update-cost metric — Def. 4 of the paper.

``update = Σ_{n∈GL} u_n``: keeping the replicated global layer consistent
costs the sum of the member nodes' update costs. The metric is what the
``U0`` budget of Algorithm 1 bounds and what Fig. 8 plots against the
global-layer proportion.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.node import MetadataNode
from repro.core.splitting import SplitResult
from repro.numeric import ordered_sum

__all__ = ["update_cost", "update_cost_of_split"]


def update_cost(global_layer: Iterable[MetadataNode]) -> float:
    """Total update cost of a replicated node set."""
    return ordered_sum(node.update_cost for node in global_layer)


def update_cost_of_split(split: SplitResult) -> float:
    """Update cost recorded by a tree split (equals Def. 4 over its GL)."""
    return split.update_cost
