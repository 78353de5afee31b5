"""Trace model: metadata operations replayed against an MDS cluster.

The paper filters the raw Microsoft traces down to metadata-related
operations (read / write / update, Table II) and notes that reads and writes
"only cause simply a query operation to MDS's" — only *update* operations
mutate metadata and (for global-layer nodes) take the lock service path.

Two trace containers share one analysis surface (:class:`TraceOps`):

* :class:`Trace` — the fully materialized record list (small traces, slicing
  and round-splitting).
* :class:`StreamingTrace` — a restartable record *source*: every iteration
  re-derives the records from a factory (a seeded generator replay or a file
  reader), so a 10M-op trace is consumed in fixed memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

__all__ = ["OpType", "TraceRecord", "Trace", "StreamingTrace", "TraceOps"]


class OpType(enum.Enum):
    """Metadata operation categories.

    READ/WRITE/UPDATE are the Table II categories; CREATE is this
    reproduction's extension for namespace growth mid-trace (the paper's
    traces were filtered down to the first three).
    """

    READ = "read"
    WRITE = "write"
    UPDATE = "update"
    CREATE = "create"

    @property
    def is_query(self) -> bool:
        """Reads and writes are plain metadata queries (Sec. VI, Datasets)."""
        return self in (OpType.READ, OpType.WRITE)


@dataclass(frozen=True)
class TraceRecord:
    """One metadata operation.

    Attributes
    ----------
    timestamp:
        Arrival time in seconds from trace start.
    op:
        Operation category.
    path:
        Absolute path of the target metadata node.
    client_id:
        Issuing client (drives per-client caches in the simulator).
    """

    timestamp: float
    op: OpType
    path: str
    client_id: int = 0


class TraceOps:
    """One-pass trace statistics shared by materialized and streaming traces.

    **One-pass contract**: every method below makes exactly one forward pass
    over ``iter(self)`` and holds at most O(distinct paths) state — never the
    record list itself. That is what lets them run unchanged on a
    :class:`StreamingTrace`, where materializing the records would defeat the
    point (a 10M-op trace in fixed memory). On a :class:`Trace` they iterate
    the in-memory list, so behaviour and results are identical.
    """

    def __iter__(self) -> Iterator[TraceRecord]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def duration(self) -> float:
        """Time span covered by the trace (seconds). One pass."""
        first: Optional[float] = None
        last = 0.0
        for record in self:
            if first is None:
                first = record.timestamp
            last = record.timestamp
        if first is None:
            return 0.0
        return last - first

    def operation_breakdown(self) -> Dict[OpType, float]:
        """Fraction of each operation type (the Table II rows). One pass —
        the total is counted in the same sweep, never via ``len(self)``."""
        counts = {op: 0 for op in OpType}
        total = 0
        for record in self:
            counts[record.op] += 1
            total += 1
        if not total:
            return {op: 0.0 for op in OpType}
        return {op: counts[op] / total for op in OpType}

    def max_depth(self) -> int:
        """Deepest path referenced by the trace (Table I's Max Depth).
        One pass, O(1) state."""
        depth = 0
        for record in self:
            parts = sum(1 for part in record.path.split("/") if part)
            if parts > depth:
                depth = parts
        return depth

    def paths(self) -> List[str]:
        """Distinct paths, in first-appearance order. One pass,
        O(distinct paths) state."""
        seen = {}
        for record in self:
            if record.path not in seen:
                seen[record.path] = None
        return list(seen)


@dataclass
class Trace(TraceOps):
    """An ordered sequence of metadata operations plus its provenance."""

    name: str
    records: List[TraceRecord] = field(default_factory=list)
    description: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def duration(self) -> float:
        """Time span covered by the trace (seconds); O(1) on the list."""
        if not self.records:
            return 0.0
        return self.records[-1].timestamp - self.records[0].timestamp

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Sub-trace covering ``records[start:stop]``."""
        return Trace(
            name=f"{self.name}[{start}:{stop if stop is not None else ''}]",
            records=self.records[start:stop],
            description=self.description,
        )

    def rounds(self, count: int) -> List["Trace"]:
        """Split into ``count`` near-equal replay rounds (Fig. 7 methodology)."""
        if count < 1:
            raise ValueError("need at least one round")
        size = len(self.records)
        bounds = [round(i * size / count) for i in range(count + 1)]
        return [self.slice(bounds[i], bounds[i + 1]) for i in range(count)]


class StreamingTrace(TraceOps):
    """A restartable trace source that never materializes its records.

    ``factory`` returns a *fresh* record iterator on every call — a seeded
    generator replay (:meth:`TraceGenerator.stream`) or a file reader
    (:func:`repro.traces.io.open_trace`) — so the trace can be consumed any
    number of times while only ever holding one record in memory.

    The analysis methods inherited from :class:`TraceOps` (``paths``,
    ``operation_breakdown``, ``max_depth``, ``duration``) each cost one full
    re-derivation pass here; ``records`` deliberately raises — call
    :meth:`materialize` when a run genuinely needs the list form (e.g.
    ``Trace.rounds``); the simulator replays a stream as it is.
    """

    def __init__(
        self,
        name: str,
        factory: Callable[[], Iterable[TraceRecord]],
        length: Optional[int] = None,
        description: str = "",
    ) -> None:
        self.name = name
        self.description = description
        self._factory = factory
        self._length = length

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._factory())

    def __len__(self) -> int:
        if self._length is None:
            raise TypeError(
                "streaming trace has unknown length; materialize() it for len()"
            )
        return self._length

    @property
    def records(self) -> List[TraceRecord]:
        raise TypeError(
            "StreamingTrace holds no record list; iterate it, or call "
            ".materialize() for an in-memory Trace"
        )

    def materialize(self) -> Trace:
        """One full pass into an in-memory :class:`Trace` (same records)."""
        return Trace(
            name=self.name,
            records=list(self),
            description=self.description,
        )
