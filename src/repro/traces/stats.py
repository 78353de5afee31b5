"""Trace statistics: characterise a workload before running experiments.

Answers the questions the paper's Section VI answers about its traces —
operation mix (Table II), depth distribution, access skew, hot-set share and
drift — for any :class:`~repro.traces.trace.Trace`, generated or loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.namespace import split_path
from repro.traces.trace import OpType, Trace

__all__ = ["TraceStats", "analyze_trace", "estimate_zipf_exponent"]


@dataclass
class TraceStats:
    """Summary statistics of one trace."""

    operations: int
    distinct_paths: int
    max_depth: int
    mean_depth: float
    breakdown: Dict[OpType, float]
    top_share: float            # traffic share of the top-1% paths
    zipf_exponent: float        # fitted skew of the access distribution
    drift: float                # 1 − overlap of first/last-quarter top sets
    depth_histogram: List[int] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        mix = "  ".join(
            f"{op.value}={share * 100:.1f}%" for op, share in self.breakdown.items()
            if share > 0
        )
        return (
            f"operations={self.operations}  distinct_paths={self.distinct_paths}\n"
            f"depth: max={self.max_depth} mean={self.mean_depth:.2f}\n"
            f"mix: {mix}\n"
            f"skew: top-1% share={self.top_share * 100:.1f}%  "
            f"zipf≈{self.zipf_exponent:.2f}\n"
            f"drift: {self.drift * 100:.1f}% of the top set turns over"
        )


def estimate_zipf_exponent(counts: List[int]) -> float:
    """Fit ``s`` in ``count(rank) ∝ rank^-s`` by least squares on log-log.

    Ranks are 1-based over the descending count order; zero counts are
    ignored. Returns 0 for degenerate inputs.
    """
    ordered = sorted((c for c in counts if c > 0), reverse=True)
    if len(ordered) < 3:
        return 0.0
    xs = [math.log(rank) for rank in range(1, len(ordered) + 1)]
    ys = [math.log(c) for c in ordered]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom
    return max(0.0, -slope)


def _top_paths(counts: Dict[str, int], fraction: float) -> Tuple[set, float]:
    ordered = sorted(counts.items(), key=lambda kv: -kv[1])
    k = max(1, round(fraction * len(ordered)))
    top = ordered[:k]
    total = sum(counts.values()) or 1
    return {path for path, _ in top}, sum(c for _, c in top) / total


def analyze_trace(trace: Trace, top_fraction: float = 0.01) -> TraceStats:
    """Compute :class:`TraceStats` for ``trace``."""
    counts: Dict[str, int] = {}
    depth_sum = 0
    max_depth = 0
    for record in trace:
        counts[record.path] = counts.get(record.path, 0) + 1
        depth = len(split_path(record.path))
        depth_sum += depth
        if depth > max_depth:
            max_depth = depth

    histogram = [0] * (max_depth + 1)
    for path in counts:
        histogram[len(split_path(path))] += 1

    operations = len(trace)
    top_set, top_share = _top_paths(counts, top_fraction)

    quarter = max(1, operations // 4)
    first_counts: Dict[str, int] = {}
    for record in trace.slice(0, quarter):
        first_counts[record.path] = first_counts.get(record.path, 0) + 1
    last_counts: Dict[str, int] = {}
    for record in trace.slice(-quarter):
        last_counts[record.path] = last_counts.get(record.path, 0) + 1
    first_top, _ = _top_paths(first_counts, top_fraction * 4)
    last_top, _ = _top_paths(last_counts, top_fraction * 4)
    if first_top:
        drift = 1.0 - len(first_top & last_top) / len(first_top)
    else:
        drift = 0.0

    return TraceStats(
        operations=operations,
        distinct_paths=len(counts),
        max_depth=max_depth,
        mean_depth=depth_sum / operations if operations else 0.0,
        breakdown=trace.operation_breakdown(),
        top_share=top_share,
        zipf_exponent=estimate_zipf_exponent(list(counts.values())),
        drift=drift,
        depth_histogram=histogram,
    )
