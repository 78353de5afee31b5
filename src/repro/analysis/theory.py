"""Theoretical bounds from Section V and their empirical verification.

Theorem 4 bounds the expected *inverse* balance degree — with the paper's
notation, ``E[1/balance] < M/(M−1) · δ²μ²`` once every MDS samples per
Theorem 3. This module computes the bound and provides a Monte-Carlo check
used by ``experiments/test_theory_bounds.py`` (an ablation, not a paper
figure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.sampling import sample_size_for_mds_error
from repro.numeric import ordered_sum

__all__ = ["balance_bound", "BoundExperiment", "run_bound_experiment"]


def balance_bound(num_servers: int, delta: float, ideal_load_factor: float) -> float:
    """Theorem 4 bound: ``M/(M−1) · δ² μ²`` on the expected imbalance.

    The paper writes ``E[balance] < M/(M−1) δ²μ²``; given Def. 5 defines
    ``balance`` as the *reciprocal* of the load variance, the bounded quantity
    is the variance term ``(1/(M−1)) Σ (L_k/C_k − μ)²`` — larger bound means
    a weaker guarantee, and the achieved variance should fall below it.
    """
    if num_servers < 2:
        raise ValueError("need at least two servers for a balance degree")
    if delta <= 0 or ideal_load_factor <= 0:
        raise ValueError("delta and ideal_load_factor must be positive")
    return num_servers / (num_servers - 1) * (delta * ideal_load_factor) ** 2


@dataclass
class BoundExperiment:
    """Result of one Monte-Carlo verification of Theorem 3/4."""

    num_subtrees: int
    num_servers: int
    delta: float
    samples_per_server: int
    achieved_variance: float
    bound: float

    @property
    def holds(self) -> bool:
        """Whether the achieved imbalance falls below the theoretical bound."""
        return self.achieved_variance <= self.bound


def run_bound_experiment(
    subtree_popularities: Sequence[float],
    capacities: Sequence[float],
    delta: float,
    t: float = 0.5,
    rng: Optional[random.Random] = None,
) -> BoundExperiment:
    """Allocate via sampled mirror division and compare against Theorem 4.

    Each server draws its Theorem-3 sample count from the pool, builds an
    empirical popularity CDF, and claims the subtrees whose CDF index falls in
    its capacity window; the realised ``(1/(M−1)) Σ (L_k/C_k − μ)²`` is then
    compared to :func:`balance_bound`.
    """
    rng = rng if rng is not None else random.Random(0)
    pops = [float(p) for p in subtree_popularities]
    caps = [float(c) for c in capacities]
    if not pops or len(caps) < 2:
        raise ValueError("need subtrees and at least two servers")
    total_pop = ordered_sum(pops)
    total_cap = ordered_sum(caps)
    mu = total_pop / total_cap
    h = len(pops)
    u, low = max(pops), min(pops)

    sample_counts = [
        min(
            20 * h,  # cap the Monte-Carlo cost
            sample_size_for_mds_error(
                num_subtrees=h,
                capacity_share=cap / total_cap,
                max_popularity=u,
                min_popularity=low,
                delta=delta,
                ideal_load_factor=mu,
                capacity=cap,
                t=t,
            ),
        )
        for cap in caps
    ]
    # Allocate via the sampled mirror division every server would run with
    # its Theorem-3 sample count (the allocator draws one sample set per
    # server; use the largest mandated count so no server under-samples).
    from repro.core.allocation import sampled_mirror_division

    allocation = sampled_mirror_division(
        pops, caps, samples_per_server=max(sample_counts), rng=rng
    )
    loads = allocation.loads
    variance = ordered_sum((loads[k] / caps[k] - mu) ** 2 for k in range(len(caps)))
    variance /= len(caps) - 1
    return BoundExperiment(
        num_subtrees=h,
        num_servers=len(caps),
        delta=delta,
        samples_per_server=max(sample_counts),
        achieved_variance=variance,
        bound=balance_bound(len(caps), delta, mu),
    )
