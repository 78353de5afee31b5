"""Metric primitives: Counter / Gauge / Histogram behind a registry.

The registry is the write side of the telemetry subsystem
(:mod:`repro.obs.telemetry`): instrumented components ask it for a metric
once (``registry.counter("retries", server=3)``) and then update it on the
hot path. Metrics are keyed by ``(name, sorted labels)``, so asking twice
returns the same instance.

Everything is driven by *simulated* time supplied by the caller — no metric
ever reads a wall clock. Disabled telemetry asks for no metric: every call
site checks ``Telemetry.enabled`` first.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Labels",
]

#: Canonical label form: sorted ``(key, value)`` pairs, values stringified.
Labels = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds; latency-shaped).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5,
)


def _labels(labels: Dict[str, object]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest. ``counts[i]`` is the number of observations ``<= buckets[i]``
    *non*-cumulatively — the exporter cumulates.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs including ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


class MetricsRegistry:
    """Home of every metric a run produces."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Labels], object] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str, labels: Dict[str, object], **kw):
        key = (name, _labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kw)
            self._metrics[key] = metric
            if help:
                self._help.setdefault(name, help)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Get-or-create the counter ``name`` with ``labels``."""
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """Get-or-create the gauge ``name`` with ``labels``."""
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> Histogram:
        """Get-or-create the histogram ``name`` with ``labels``."""
        return self._get(
            Histogram, name, help, labels, buckets=buckets or DEFAULT_BUCKETS
        )

    # ------------------------------------------------------------------
    def collect(self) -> Iterator[object]:
        """All registered metrics, sorted by (name, labels) for stable output."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def help_text(self, name: str) -> str:
        """The help string registered for ``name`` (may be empty)."""
        return self._help.get(name, "")
