"""Empirical CDFs and the DKW bound of the sampling analysis (Sec. V)."""

from __future__ import annotations

import bisect
import math
from typing import Sequence

__all__ = ["EmpiricalCDF", "dkw_epsilon", "dkw_confidence"]


class EmpiricalCDF:
    """Empirical CDF ``F_k(z) = (1/k) Σ 1{Z_i <= z}`` over a finite sample."""

    def __init__(self, samples: Sequence[float]) -> None:
        if len(samples) == 0:
            raise ValueError("empirical CDF needs at least one sample")
        self._sorted = sorted(float(s) for s in samples)
        self._n = len(self._sorted)

    def __call__(self, z: float) -> float:
        """Fraction of samples ``<= z``."""
        return bisect.bisect_right(self._sorted, z) / self._n

    def sup_distance(self, other: "EmpiricalCDF") -> float:
        """Kolmogorov–Smirnov distance ``sup_z |F(z) - G(z)|``."""
        points = sorted(set(self._sorted) | set(other._sorted))
        return max(abs(self(z) - other(z)) for z in points)


def dkw_epsilon(num_samples: int, confidence: float) -> float:
    """Smallest ε with ``Pr(sup|F_k − F| > ε) <= 1 − confidence`` (Thm. 2).

    The paper states the Dvoretzky–Kiefer–Wolfowitz inequality as
    ``Pr(sup |F_k(z) − F(z)| > ε) <= 2 / e^{2 k ε²}``; inverting for ε at a
    target failure probability ``α = 1 − confidence`` gives
    ``ε = sqrt(ln(2/α) / (2k))``.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    alpha = 1.0 - confidence
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * num_samples))


def dkw_confidence(num_samples: int, epsilon: float) -> float:
    """Confidence that ``sup|F_k − F| <= ε`` per the DKW bound (Thm. 2)."""
    if epsilon <= 0:
        return 0.0
    failure = 2.0 * math.exp(-2.0 * num_samples * epsilon * epsilon)
    return max(0.0, 1.0 - failure)
