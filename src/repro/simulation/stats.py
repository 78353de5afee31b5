"""Statistics helpers for simulation results."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import inf
from typing import Dict, List, MutableSequence, Optional, Tuple

from repro.numeric import ordered_sum

__all__ = [
    "LatencySummary",
    "summarize_latencies",
    "AvailabilityReport",
    "SimulationResult",
]

#: The percentiles a :class:`LatencySummary` reports.
_QUANTILES = (0.50, 0.95, 0.99)
#: :func:`summarize_latencies` sorts a sample in runs of ``_RUN`` values and
#: sums it in about ``_RANGES`` value ranges, holding one boxed at a time.
_RUN = 4096
_RANGES = 32


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate latency statistics (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready form (all plain floats/ints)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


def _bracket(count: int, q: float) -> Tuple[int, int, float]:
    """The two ranks of ``count`` sorted values a ``q`` percentile lies
    between, and its fraction of the way from the first to the second."""
    position = q * (count - 1)
    lower = int(position)
    return lower, min(lower + 1, count - 1), position - lower


def _percentile(sorted_values, q: float, count: Optional[int] = None) -> float:
    """Linearly interpolated percentile (numpy's default method) of
    ``count`` sorted values (default: all of ``sorted_values``), of which
    ``sorted_values`` need only index the two ranks it reads.

    Nearest-rank rounding collapses p99 onto the maximum for samples under
    ~100 values — every small-trace tail metric read as the single worst
    op. Interpolating between the bracketing ranks keeps p50/p95/p99
    distinct and monotone on small samples.
    """
    count = len(sorted_values) if count is None else count
    if not count:
        return 0.0
    lower, upper, fraction = _bracket(count, q)
    return sorted_values[lower] + (
        (sorted_values[upper] - sorted_values[lower]) * fraction
    )


def summarize_latencies(latencies: MutableSequence[float]) -> LatencySummary:
    """Summarise a latency sample: the statistics of ``sorted(latencies)``,
    the mean its :func:`ordered_sum`, bit for bit, without a sorted (boxed)
    copy of the whole sample. ``latencies`` (a list or an ``array('d')``)
    is reordered: it keeps its values, but not their order.

    The sample is sorted in place in ``_RUN``-value runs (by slice
    assignment), and values sampled from the runs are pivots. Range by
    range in value order — the values below the next pivot, then those
    equal to it — every run is bisected and the slices joined; a range
    below a pivot is sorted (one of equal values already is), added to the
    running total and its percentile ranks read. Equal values never span
    two ranges and each sort is stable, so the ranges are
    ``sorted(latencies)``'s stretches in order.
    """
    count = len(latencies)
    if not count:
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    column, runs = latencies, []  # runs: [next unread, end] in column
    for start in range(0, count, _RUN):
        column[start:start + _RUN] = array("d", sorted(column[start:start + _RUN]))
        runs.append([start, min(start + _RUN, count)])
    samples = sorted(set(column[::_RUN // 8]))  # eight from a run
    step = len(samples) // _RANGES + 1
    pivots = samples[step - 1::step]
    # rank -> value, for the ranks read: each percentile's two, the maximum's
    at = dict.fromkeys(rank for q in _QUANTILES for rank in _bracket(count, q)[:2])
    at[count - 1] = None
    total, done = 0, 0
    for pivot in pivots + [inf]:
        for cut in (bisect_left, bisect_right):
            piece = array("d")
            for run in runs:
                start, run[0] = run[0], cut(column, pivot, *run)
                piece.extend(column[start:run[0]])
            if cut is bisect_left:
                piece = sorted(piece)
            total = ordered_sum(piece, total)
            for rank in at:
                if done <= rank < done + len(piece):
                    at[rank] = piece[rank - done]
            done += len(piece)
    p50, p95, p99 = (_percentile(at, q, count) for q in _QUANTILES)
    return LatencySummary(count, total / count, p50, p95, p99, at[count - 1])


@dataclass
class AvailabilityReport:
    """Failure/recovery accounting for one replay.

    All zeroes for a fault-free run. Times are simulated seconds;
    per-server dicts keep the *latest* value when a server fails twice.
    """

    #: Crash events that actually took a live server down.
    crashes: int = 0
    #: Recover events that rejoined a server.
    rejoins: int = 0
    #: Detections of servers that were alive but silent (drop_heartbeats).
    false_detections: int = 0
    #: Operations abandoned after exhausting the retry budget.
    failed_operations: int = 0
    #: Client retries caused by timing out against a dead server.
    retries: int = 0
    #: Network partitions installed during the replay. Deliberately not part
    #: of :meth:`to_dict` — the serialized form predates the network model
    #: and stays stable for downstream consumers (and byte-level regression
    #: tests); the chaos harness reads the attribute directly.
    partitions: int = 0
    #: server -> seconds between losing the server and the Monitor evicting it.
    detection_latency: Dict[int, float] = field(default_factory=dict)
    #: server -> seconds between the crash and the rejoin completing.
    time_to_recover: Dict[int, float] = field(default_factory=dict)
    #: Total seconds during which some crashed server's metadata had no
    #: live home (sum of crash→detection windows; undetected crashes count
    #: up to the end of the replay).
    unavailability: float = 0.0

    @property
    def impacted(self) -> bool:
        """True when any fault actually touched the replay."""
        return bool(
            self.crashes
            or self.rejoins
            or self.false_detections
            or self.failed_operations
            or self.retries
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (per-server dicts keyed by stringified id)."""
        return {
            "crashes": self.crashes,
            "rejoins": self.rejoins,
            "false_detections": self.false_detections,
            "failed_operations": self.failed_operations,
            "retries": self.retries,
            "detection_latency": {
                str(server): latency
                for server, latency in sorted(self.detection_latency.items())
            },
            "time_to_recover": {
                str(server): ttr
                for server, ttr in sorted(self.time_to_recover.items())
            },
            "unavailability": self.unavailability,
        }

    def describe(self) -> str:
        """Multi-line human-readable availability report."""
        lines = [
            f"crashes={self.crashes} rejoins={self.rejoins} "
            f"false_detections={self.false_detections}",
            f"failed operations : {self.failed_operations}",
            f"retries           : {self.retries}",
            f"unavailability    : {self.unavailability * 1e3:.2f} ms",
        ]
        if self.detection_latency:
            lines.append(
                "detection latency : "
                + "  ".join(
                    f"s{server}={latency * 1e3:.2f}ms"
                    for server, latency in sorted(self.detection_latency.items())
                )
            )
        if self.time_to_recover:
            lines.append(
                "time to recover   : "
                + "  ".join(
                    f"s{server}={ttr * 1e3:.2f}ms"
                    for server, ttr in sorted(self.time_to_recover.items())
                )
            )
        return "\n".join(lines)


@dataclass
class SimulationResult:
    """Outcome of one trace replay against a simulated cluster."""

    scheme: str
    trace: str
    num_servers: int
    operations: int
    makespan: float
    throughput: float
    latency: LatencySummary
    server_visits: List[int] = field(default_factory=list)
    server_utilization: List[float] = field(default_factory=list)
    redirects: int = 0
    migrations: int = 0
    lock_waits: float = 0.0
    jumps_total: int = 0
    availability: Optional[AvailabilityReport] = None
    #: Durable-store counters + ledger roll-up (``repro.storage``); None
    #: when the run had no store (``--store memory``).
    durability: Optional[Dict[str, object]] = None

    @property
    def mean_jumps(self) -> float:
        """Average inter-server transfers per operation."""
        return self.jumps_total / self.operations if self.operations else 0.0

    @property
    def failed_operations(self) -> int:
        """Operations dropped after retry exhaustion (0 when fault-free)."""
        return self.availability.failed_operations if self.availability else 0

    @property
    def retries(self) -> int:
        """Client retries against crashed servers (0 when fault-free)."""
        return self.availability.retries if self.availability else 0

    def to_dict(self) -> Dict[str, object]:
        """Full JSON-ready serialization (the ``--json`` / telemetry form)."""
        result = {
            "scheme": self.scheme,
            "trace": self.trace,
            "num_servers": self.num_servers,
            "operations": self.operations,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "latency": self.latency.to_dict(),
            "server_visits": list(self.server_visits),
            "server_utilization": list(self.server_utilization),
            "redirects": self.redirects,
            "migrations": self.migrations,
            "lock_waits": self.lock_waits,
            "jumps_total": self.jumps_total,
            "mean_jumps": self.mean_jumps,
            "availability": (
                self.availability.to_dict()
                if self.availability is not None
                else None
            ),
        }
        # Present only for durable-store runs: the default (no store)
        # serialization stays byte-identical to the committed goldens.
        if self.durability is not None:
            result["durability"] = dict(self.durability)
        return result

    def row(self) -> str:
        """One formatted results row (Fig. 5 style)."""
        row = (
            f"{self.scheme:<18} {self.trace:<5} M={self.num_servers:<3}"
            f" thr={self.throughput:9.1f} ops/s"
            f" p95={self.latency.p95 * 1e3:7.2f} ms"
            f" jumps/op={self.mean_jumps:5.2f}"
            f" redirects={self.redirects}"
        )
        if self.availability is not None and self.availability.impacted:
            row += (
                f" retries={self.availability.retries}"
                f" failed={self.availability.failed_operations}"
            )
        return row
