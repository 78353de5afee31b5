"""Histogram-based probability distributions and empirical CDFs.

Implements Def. 6 of the paper (equi-probable histograms approximating a
distribution) and the empirical cumulative distribution machinery used by the
mirror-division allocator (Sec. IV-B) and the sampling analysis (Sec. V).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["EmpiricalCDF", "Histogram", "dkw_epsilon", "dkw_confidence"]


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

    def quantile(self, q: float) -> float:
        """Smallest sample value ``z`` with ``F(z) >= q``."""
        if not 0 <= q <= 1:
            raise ValueError("quantile level must lie in [0, 1]")
        if q == 0:
            return self._sorted[0]
        # First index i with (i+1)/n >= q.
        idx = max(0, math.ceil(q * self._n) - 1)
        return self._sorted[min(idx, self._n - 1)]

    def sup_distance(self, other: "EmpiricalCDF") -> float:
        """Kolmogorov–Smirnov distance ``sup_z |F(z) - G(z)|``."""
        points = sorted(set(self._sorted) | set(other._sorted))
        return max(abs(self(z) - other(z)) for z in points)


@dataclass
class Histogram:
    """Equi-probable histogram ``{x_i, i = 1..k; Δx}`` per Def. 6.

    The boundaries satisfy ``Pr(x_i <= Z <= x_{i+1}) = Δx = 1/(k-1)`` so that
    the intervals carry equal probability mass.
    """

    boundaries: List[float]

    @property
    def delta(self) -> float:
        """Per-interval probability mass ``Δx``."""
        return 1.0 / (len(self.boundaries) - 1)

    @classmethod
    def from_samples(cls, samples: Sequence[float], bins: int) -> "Histogram":
        """Fit equi-probable boundaries from a sample."""
        if bins < 1:
            raise ValueError("need at least one bin")
        cdf = EmpiricalCDF(samples)
        boundaries = [cdf.quantile(i / bins) for i in range(bins + 1)]
        return cls(boundaries=boundaries)

    def interval_of(self, value: float) -> int:
        """Index of the interval containing ``value`` (clamped at the ends)."""
        idx = bisect.bisect_right(self.boundaries, value) - 1
        return min(max(idx, 0), len(self.boundaries) - 2)

    def cdf(self, value: float) -> float:
        """Piecewise-linear CDF implied by the histogram."""
        bounds = self.boundaries
        if value <= bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        i = self.interval_of(value)
        lo, hi = bounds[i], bounds[i + 1]
        frac = 0.0 if hi == lo else (value - lo) / (hi - lo)
        return (i + frac) * self.delta


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
