"""D2-Tree core: the paper's primary contribution.

Tree-Splitting (Alg. 1), mirror-division Subtree-Allocation (Sec. IV-B),
Dynamic-Adjustment, and the :class:`D2TreeScheme` facade tying them together.
"""

from repro.core.adjustment import AdjustmentReport, DynamicAdjuster, PendingPool
from repro.core.allocation import (
    AllocationResult,
    allocate_subtrees,
    greedy_allocate,
    mirror_division,
    sampled_mirror_division,
)
from repro.core.namespace import NamespaceTree, split_path
from repro.core.partition import D2TreePlacement
from repro.core.scheme import D2TreeScheme
from repro.core.splitting import (
    SplitConstraints,
    SplitResult,
    constraints_for_proportion,
    split_by_proportion,
    split_top_k,
    tree_split,
)

__all__ = [
    "AdjustmentReport",
    "AllocationResult",
    "D2TreePlacement",
    "D2TreeScheme",
    "DynamicAdjuster",
    "NamespaceTree",
    "PendingPool",
    "SplitConstraints",
    "SplitResult",
    "allocate_subtrees",
    "constraints_for_proportion",
    "greedy_allocate",
    "mirror_division",
    "sampled_mirror_division",
    "split_by_proportion",
    "split_path",
    "split_top_k",
    "tree_split",
]
