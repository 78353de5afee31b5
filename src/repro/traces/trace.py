"""Trace model: metadata operations replayed against an MDS cluster.

The paper filters the raw Microsoft traces down to metadata-related
operations (read / write / update, Table II) and notes that reads and writes
"only cause simply a query operation to MDS's" — only *update* operations
mutate metadata and (for global-layer nodes) take the lock service path.

A :class:`Trace` is the materialized record list: this reproduction replays
seeded synthetic traces of at most ~10⁵ operations (DESIGN.md §3), so the list
form is the only one — generated, loaded, sliced into rounds and decoded
into column windows (:mod:`repro.traces.columns`) from the same object.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.namespace import split_path

__all__ = ["OpType", "TraceRecord", "Trace"]


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


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One metadata operation.

    Slotted: a record has no ``__dict__`` and takes no attributes beyond
    its four fields (a replay holds ~10⁵ of them).

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


@dataclass
class Trace:
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

    def operation_breakdown(self) -> Dict[OpType, float]:
        """Fraction of each operation type (the Table II rows)."""
        counts = Counter(record.op for record in self.records)
        total = len(self.records) or 1
        return {op: counts[op] / total for op in OpType}

    def max_depth(self) -> int:
        """Deepest path referenced by the trace (Table I's Max Depth)."""
        return max((len(split_path(record.path)) for record in self.records), default=0)

    def paths(self) -> List[str]:
        """Distinct paths, in first-appearance order."""
        return list(dict.fromkeys(record.path for record in self.records))

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
