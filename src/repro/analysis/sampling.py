"""Random-walk sampling of subtree populations (Sec. IV-B, Sec. V).

Large clusters cannot afford to enumerate every local-layer subtree when
building the popularity CDF, so each MDS samples the pending pool. The paper
cites full-information-lookup random walks [20]; over the pool (a flat
collection) a uniform random walk reduces to uniform sampling with
replacement, which is what :class:`RandomWalkSampler` provides.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, TypeVar

__all__ = [
    "RandomWalkSampler",
    "sample_size_for_subtree_error",
    "sample_size_for_mds_error",
]

T = TypeVar("T")


class RandomWalkSampler:
    """Uniform sampler over a finite population via random walk.

    Parameters
    ----------
    rng:
        Source of randomness; pass a seeded :class:`random.Random` for
        reproducible experiments.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng if rng is not None else random.Random()

    def sample_pool(self, pool: Sequence[T], count: int) -> List[T]:
        """Draw ``count`` uniform samples (with replacement) from ``pool``."""
        if not pool:
            raise ValueError("cannot sample an empty pool")
        if count < 0:
            raise ValueError("count must be non-negative")
        return [pool[self._rng.randrange(len(pool))] for _ in range(count)]


def sample_size_for_subtree_error(
    num_subtrees: int,
    max_popularity: float,
    min_popularity: float,
    delta: float,
    t: float = 0.5,
) -> int:
    """Samples needed so ``E[|s_i − s_j|] < δ`` w.p. ``>= 1 − 2/(t·H)``.

    Lemma 1: sampling ``ln(t·H)/2 · ((U−L)/δ)²`` subtrees uniformly at random
    from the pending pool suffices. ``H`` is the number of subtrees, ``U``/
    ``L`` the max/min subtree popularity.
    """
    if num_subtrees < 1:
        raise ValueError("need at least one subtree")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0 < t < 1:
        raise ValueError("t must lie in (0, 1)")
    spread = max_popularity - min_popularity
    if spread <= 0:
        return 1
    th = t * num_subtrees
    if th <= 1:
        return 1
    raw = math.log(th) / 2.0 * (spread / delta) ** 2
    return max(1, math.ceil(raw))


def sample_size_for_mds_error(
    num_subtrees: int,
    capacity_share: float,
    max_popularity: float,
    min_popularity: float,
    delta: float,
    ideal_load_factor: float,
    capacity: float,
    t: float = 0.5,
) -> int:
    """Samples needed so ``E[|L_k/C_k − μ|] < δμ`` w.p. ``>= 1 − 2/(t·H)``.

    Theorem 3: MDS ``m_k`` (with capacity share ``p_k = C_k / ΣC``) must
    sample ``ln(t·H²)/2 · (H·p_k·(U−L) / (δ·μ·C_k))²`` subtrees.
    """
    if num_subtrees < 1:
        raise ValueError("need at least one subtree")
    if delta <= 0 or ideal_load_factor <= 0 or capacity <= 0:
        raise ValueError("delta, ideal_load_factor and capacity must be positive")
    if not 0 < t < 1:
        raise ValueError("t must lie in (0, 1)")
    spread = max_popularity - min_popularity
    if spread <= 0:
        return 1
    th2 = t * num_subtrees * num_subtrees
    if th2 <= 1:
        return 1
    scale = num_subtrees * capacity_share * spread / (delta * ideal_load_factor * capacity)
    raw = math.log(th2) / 2.0 * scale ** 2
    return max(1, math.ceil(raw))
