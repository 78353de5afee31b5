"""Subtree-Allocation — the mirror-division strategy (Sec. IV-B, Fig. 4).

The local layer produced by Tree-Splitting is a flat collection of subtrees
``Δ_1..Δ_H`` with popularities ``s_i``. Mirror division lines up two CDFs:

* ``F_Δ(x)`` — cumulative popularity *mass* of the subtrees (the X axis of
  Fig. 4: subtree ``Δ_i`` gets the index ``Σ_{j<=i} s_j / Σ s``), and
* ``F_m(y)`` — cumulative remaining *capacity* of the servers (the Y axis:
  server ``m_k`` owns the window ``(Y_{k-1}, Y_k]``).

A subtree is assigned to the server whose capacity window contains its
popularity index, so each server receives popularity proportional to its
remaining capacity. The sampled variant lets each server approximate
``F_Δ`` from a random-walk sample of the pending pool (Sec. V bounds the
resulting error).

Beyond the paper, :func:`greedy_allocate` provides an LPT-style comparator
used by the ablation benchmarks.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.sampling import RandomWalkSampler
from repro.numeric import ordered_sum

__all__ = [
    "AllocationResult",
    "mirror_division",
    "sampled_mirror_division",
    "greedy_allocate",
    "allocate_subtrees",
]


@dataclass
class AllocationResult:
    """Mapping of local-layer subtrees onto servers.

    Attributes
    ----------
    assignment:
        ``assignment[i]`` is the server index hosting subtree ``i`` (indices
        follow the order of the input sequence).
    loads:
        Popularity hosted by each server after the allocation.
    capacities:
        Capacities used for the allocation (echoed for reporting).
    """

    assignment: List[int]
    loads: List[float]
    capacities: List[float]
    subtree_roots: List[int] = field(default_factory=list)

    @property
    def by_root(self) -> Dict[int, int]:
        """Subtree-root → server-index mapping (when roots were supplied)."""
        return {root: srv for root, srv in zip(self.subtree_roots, self.assignment)}


def _capacity_edges(capacities: Sequence[float]) -> List[float]:
    total = ordered_sum(capacities)
    if total <= 0:
        raise ValueError("total capacity must be positive")
    edges = [0.0]
    for cap in capacities:
        if cap < 0:
            raise ValueError("capacities must be non-negative")
        edges.append(edges[-1] + cap / total)
    edges[-1] = 1.0
    return edges


def _window_of(index: float, edges: Sequence[float]) -> int:
    """Server whose half-open capacity window ``(Y_{k-1}, Y_k]`` holds index:
    the first ``k`` with ``edges[k] < index <= edges[k + 1]`` (a zero-capacity
    server's window is empty), else the first or the last server. The last
    edge is pinned to 1.0 and rounding may leave the one before it above
    that, so the bisect runs over the others, which never decrease."""
    return max(bisect_left(edges, index, 0, len(edges) - 1) - 1, 0)


def mirror_division(
    popularities: Sequence[float],
    capacities: Sequence[float],
) -> AllocationResult:
    """Exact mirror division of subtrees onto servers.

    Subtrees are laid on the popularity-mass axis in descending-popularity
    order (the order Fig. 4 depicts) and each is claimed by the server whose
    capacity window contains its cumulative index.
    """
    if not popularities:
        raise ValueError("no subtrees to allocate")
    pops = [float(p) for p in popularities]
    if any(p < 0 for p in pops):
        raise ValueError("popularities must be non-negative")
    edges = _capacity_edges(capacities)
    total_pop = ordered_sum(pops)

    order = sorted(range(len(pops)), key=lambda i: (-pops[i], i))
    assignment = [0] * len(pops)
    loads = [0.0] * len(capacities)
    cumulative = 0.0
    for i in order:
        if total_pop > 0:
            cumulative += pops[i] / total_pop
            server = _window_of(min(cumulative, 1.0), edges)
        else:
            server = i % len(capacities)
        assignment[i] = server
        loads[server] += pops[i]
    return AllocationResult(assignment=assignment, loads=loads, capacities=list(capacities))


def sampled_mirror_division(
    popularities: Sequence[float],
    capacities: Sequence[float],
    samples_per_server: int,
    rng: Optional[random.Random] = None,
) -> AllocationResult:
    """Mirror division with per-server sampled popularity CDFs (Sec. V).

    Each light server approximates ``F_Δ`` from ``samples_per_server``
    uniform samples of the pending pool and claims the subtrees whose sampled
    index lands in its capacity window; contested or orphaned subtrees fall
    back to the least-relatively-loaded server, mimicking the pending pool's
    first-come-first-served drain.
    """
    if samples_per_server < 1:
        raise ValueError("need at least one sample per server")
    pops = [float(p) for p in popularities]
    if not pops:
        raise ValueError("no subtrees to allocate")
    edges = _capacity_edges(capacities)
    sampler = RandomWalkSampler(rng=rng if rng is not None else random.Random())

    # Each server estimates the popularity-mass CDF from its own sample of
    # the pending pool (Eq. 10): the index of a subtree with popularity p is
    # the fraction of pool mass carried by subtrees at least as popular
    # (descending layout on the X axis of Fig. 4).
    views = [
        _MassIndexView(sampler.sample_pool(pops, samples_per_server))
        for _ in capacities
    ]
    assignment = [-1] * len(pops)
    loads = [0.0] * len(capacities)
    order = sorted(range(len(pops)), key=lambda i: (-pops[i], i))
    for i in order:
        claimed = -1
        for k in range(len(capacities)):
            index = views[k].index_of(pops[i])
            if edges[k] < index <= edges[k + 1] or (k == 0 and index <= edges[1]):
                claimed = k
                break
        if claimed < 0:
            claimed = min(
                range(len(capacities)),
                key=lambda k: loads[k] / capacities[k] if capacities[k] > 0 else float("inf"),
            )
        assignment[i] = claimed
        loads[claimed] += pops[i]
    return AllocationResult(assignment=assignment, loads=loads, capacities=list(capacities))


class _MassIndexView:
    """A server's sampled estimate of the popularity-mass CDF index."""

    def __init__(self, samples: Sequence[float]) -> None:
        self._sorted_desc = sorted((float(s) for s in samples), reverse=True)
        self._total = ordered_sum(self._sorted_desc)
        # Prefix mass over the descending order: mass of samples >= value.
        self._prefix: List[float] = []
        acc = 0.0
        for s in self._sorted_desc:
            acc += s
            self._prefix.append(acc)

    def index_of(self, popularity: float) -> float:
        """Estimated fraction of pool mass on subtrees with pop >= this one."""
        if self._total <= 0:
            return 1.0
        mass = 0.0
        for s, pref in zip(self._sorted_desc, self._prefix):
            if s >= popularity:
                mass = pref
            else:
                break
        return min(1.0, mass / self._total)


def greedy_allocate(
    popularities: Sequence[float],
    capacities: Sequence[float],
) -> AllocationResult:
    """LPT baseline: biggest subtree to the least relatively-loaded server.

    Not part of the paper's design — used by the ablation benchmarks to show
    what mirror division trades away (or not) versus a classic greedy bin
    packer.
    """
    pops = [float(p) for p in popularities]
    if not pops:
        raise ValueError("no subtrees to allocate")
    caps = [float(c) for c in capacities]
    if any(c <= 0 for c in caps):
        raise ValueError("capacities must be positive")
    assignment = [0] * len(pops)
    loads = [0.0] * len(caps)
    for i in sorted(range(len(pops)), key=lambda i: (-pops[i], i)):
        server = min(range(len(caps)), key=lambda k: (loads[k] + pops[i]) / caps[k])
        assignment[i] = server
        loads[server] += pops[i]
    return AllocationResult(assignment=assignment, loads=loads, capacities=caps)


def allocate_subtrees(
    subtree_roots: Sequence[int],
    popularity: Sequence[float],
    capacities: Sequence[float],
    sampled: bool = False,
    samples_per_server: int = 64,
    rng: Optional[random.Random] = None,
) -> AllocationResult:
    """Allocate local-layer subtrees (by their roots) onto servers;
    ``popularity`` is the tree's ``p_j`` column, by node id.

    The popularity of a subtree is the total popularity of its root
    (Sec. IV-A1: "the popularity of each subtree ... is exactly the
    popularity of its root").
    """
    pops = [popularity[root] for root in subtree_roots]
    if sampled:
        result = sampled_mirror_division(pops, capacities, samples_per_server, rng=rng)
    else:
        result = mirror_division(pops, capacities)
    result.subtree_roots = list(subtree_roots)
    return result
