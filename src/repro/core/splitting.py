"""Tree-Splitting — Algorithm 1 of the paper.

Greedily grows the *global layer* from the root downwards, always absorbing
the frontier node with the highest total popularity ``p_j``, until the
accumulated update cost would exceed ``U0``. The split is feasible only when
the popularity left in the local layer satisfies the locality constraint
(``Σ_{n∈LL} p_n <= L0`` in the algorithm's bookkeeping, which by Eq. 7 is the
same as ``locality >= 1/L0``).

Besides the faithful algorithm, this module provides
:func:`split_by_proportion`, the knob the paper actually turns in Section VI-C
("we chose proper U0 and L0 to make global layer account for 1% nodes"), and
:func:`constraints_for_proportion` which reports the (L0, U0) pair a given
proportion implies — the quantity plotted in Fig. 8.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.core.namespace import NamespaceTree
from repro.numeric import ordered_sum

__all__ = [
    "SplitResult",
    "tree_split",
    "split_by_proportion",
    "split_top_k",
    "constraints_for_proportion",
]


@dataclass
class SplitResult:
    """Outcome of a tree split.

    Attributes
    ----------
    global_layer:
        The set ``GL`` of nodes replicated to every MDS. Empty when the split
        was infeasible under the given constraints (Alg. 1 returns ``{}``).
    feasible:
        Whether the locality constraint could be met within the update budget.
    local_popularity:
        ``Σ_{n∈LL} p_n`` — the inverse of the system locality (Eq. 7).
    update_cost:
        ``Σ_{n∈GL} u_n`` — total update cost of the replicated layer (Def. 4).
    subtree_roots:
        Roots of the local-layer subtrees ``Δ_i`` (children of inter nodes).
    inter_nodes:
        Global-layer nodes with at least one local-layer child.
    """

    global_layer: Set[int] = field(default_factory=set)
    feasible: bool = True
    local_popularity: float = 0.0
    update_cost: float = 0.0
    subtree_roots: List[int] = field(default_factory=list)
    inter_nodes: List[int] = field(default_factory=list)

    @property
    def locality(self) -> float:
        """System locality per Eq. 7 (``inf`` when everything is global)."""
        if self.local_popularity <= 0:
            return float("inf")
        return 1.0 / self.local_popularity


def _finalize(
    tree: NamespaceTree,
    global_layer: Set[int],
    feasible: bool,
    local_popularity: float,
    update_cost: float,
) -> SplitResult:
    """Derive subtree roots and inter nodes from a global-layer set."""
    result = SplitResult(
        global_layer=global_layer,
        feasible=feasible,
        local_popularity=local_popularity,
        update_cost=update_cost,
    )
    if not feasible:
        return result
    inter: List[int] = []
    roots: List[int] = []
    # Id order keeps the derived lists independent of set iteration order.
    for node in sorted(global_layer):
        local_children = [c for c in tree.children(node) if c not in global_layer]
        if local_children:
            inter.append(node)
            roots.extend(local_children)
    result.inter_nodes = inter
    result.subtree_roots = roots
    if not roots:
        # An empty local layer has exactly zero popularity; clear the
        # floating-point residue of the incremental Ltmp bookkeeping.
        result.local_popularity = 0.0
    return result


def tree_split(
    tree: NamespaceTree,
    locality_threshold: float,
    update_threshold: float,
) -> SplitResult:
    """Run Algorithm 1 (Tree-Splitting) on ``tree``.

    Parameters
    ----------
    tree:
        Namespace tree with popularity already recorded. Popularity is
        (re-)aggregated internally.
    locality_threshold:
        ``L0`` — the maximum popularity allowed to remain in the local layer
        (the algorithm's ``Ltmp > L0 → return {}`` check). Equivalently the
        system locality must end up at least ``1/L0``.
    update_threshold:
        ``U0`` — the update-cost budget for the global layer; the greedy
        expansion stops when admitting the next node would reach it.

    Returns
    -------
    SplitResult
        ``feasible=False`` (with an empty global layer) when the budget runs
        out before the locality constraint is met, mirroring the algorithm's
        ``return {}``.
    """
    if locality_threshold < 0:
        raise ValueError("locality_threshold must be non-negative")
    if update_threshold < 0:
        raise ValueError("update_threshold must be non-negative")
    # Alg. 1 line 6 stops the expansion when admitting the next node would
    # exhaust the budget; the split is infeasible if locality is not met.
    global_layer, local_popularity, update_cost = _grow(
        tree,
        lambda node, local, cost, _size: local <= locality_threshold
        or cost + tree.update_cost[node] >= update_threshold,
    )
    if local_popularity > locality_threshold:
        return SplitResult(
            global_layer=set(),
            feasible=False,
            local_popularity=local_popularity,
            update_cost=update_cost,
        )
    return _finalize(tree, global_layer, True, local_popularity, update_cost)


def _grow(tree: NamespaceTree, stop) -> Tuple[Set[int], float, float]:
    """The greedy expansion both splits share: from the root, absorb the
    frontier node with the highest ``p_j`` until ``stop(node, Ltmp, cost,
    |GL|)`` holds for it (or the frontier is empty); returns the global
    layer, ``Ltmp`` and its update cost."""
    tree.ensure_popularity()
    root = tree.root
    popularity, update_costs = tree.popularity, tree.update_cost
    global_layer: Set[int] = {root}
    # Frontier S holds children of global-layer nodes, ordered by p desc. A
    # max-heap replaces the repeated sort in Alg. 1 line 3 with the same
    # selection order; the tiebreaker keeps extraction deterministic.
    counter = itertools.count()
    frontier: List = []
    for child in tree.children(root):
        heapq.heappush(frontier, (-popularity[child], next(counter), child))
    # Ltmp (Alg. 1 line 1) starts at Σ p_j over every node and sheds the
    # *total* popularity p_x of each node absorbed into the global layer
    # (line 10), so it always equals Σ_{n∈LL} p_n — the Eq. 7 denominator.
    local_popularity = ordered_sum(popularity) - popularity[root]
    update_cost = 0.0
    while frontier:
        node = frontier[0][2]
        if stop(node, local_popularity, update_cost, len(global_layer)):
            break
        heapq.heappop(frontier)
        update_cost += update_costs[node]
        global_layer.add(node)
        local_popularity -= popularity[node]
        for child in tree.children(node):
            heapq.heappush(frontier, (-popularity[child], next(counter), child))
    return global_layer, local_popularity, update_cost


def split_top_k(tree: NamespaceTree, k: int) -> SplitResult:
    """Greedy split that stops after the global layer holds ``k`` nodes.

    Follows the same highest-``p_j``-first expansion as Algorithm 1 but uses a
    node-count budget instead of (L0, U0); this is the form every experiment
    in Section VI actually uses (via a global-layer *proportion*).
    """
    if k < 1:
        raise ValueError("global layer must contain at least the root")
    global_layer, local_popularity, update_cost = _grow(
        tree, lambda _node, _local, _cost, size: size >= k
    )
    return _finalize(tree, global_layer, True, local_popularity, update_cost)


def split_by_proportion(tree: NamespaceTree, proportion: float) -> SplitResult:
    """Split so the global layer holds ``proportion`` of all nodes.

    ``proportion=0.01`` reproduces the paper's default setting (Sec. VI-C).
    """
    if not 0 < proportion <= 1:
        raise ValueError("proportion must be in (0, 1]")
    k = max(1, round(proportion * len(tree)))
    return split_top_k(tree, k)


def constraints_for_proportion(
    tree: NamespaceTree, proportion: float
) -> "SplitConstraints":
    """Report the (L0, U0) pair that a global-layer proportion implies.

    Fig. 8 of the paper plots, for each global-layer proportion, the values of
    the two constraints that *produce* that proportion: ``L0`` is the
    local-layer popularity left behind, ``U0`` the update cost of the chosen
    global layer. Running :func:`tree_split` with exactly these values (U0
    nudged up so the ``>=`` stop admits the last node) regenerates the split.
    """
    result = split_by_proportion(tree, proportion)
    return SplitConstraints(
        proportion=proportion,
        locality_threshold=result.local_popularity,
        update_threshold=result.update_cost,
        global_layer_size=len(result.global_layer),
        result=result,
    )


@dataclass
class SplitConstraints:
    """(L0, U0) pair implied by a target global-layer proportion (Fig. 8)."""

    proportion: float
    locality_threshold: float
    update_threshold: float
    global_layer_size: int
    result: Optional[SplitResult] = None
