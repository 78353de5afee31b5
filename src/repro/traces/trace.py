"""Trace model: metadata operations replayed against an MDS cluster.

The paper filters the raw Microsoft traces down to metadata-related
operations (read / write / update, Table II) and notes that reads and writes
"only cause simply a query operation to MDS's" — only *update* operations
mutate metadata and (for global-layer nodes) take the lock service path.

A :class:`Trace` is held as columns, one array per field, with each op's path
an id into a per-trace table of distinct paths. That table is always in
first-appearance order, so one sequence of operations has exactly one
layout and ``==`` is plain field equality. Generated, loaded, sliced into
rounds and decoded into replay windows (:mod:`repro.traces.columns`), a
trace builds no object per operation; :class:`TraceRecord` is only the row
view that indexing and iteration hand out.
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


__all__ = ["OpType", "TraceRecord", "Trace", "OP_CODES", "OP_FROM_CODE", "OP_VALUES"]


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


#: Op-type enum member -> one-byte column code.
OP_CODES = {
    OpType.READ: 0,
    OpType.WRITE: 1,
    OpType.UPDATE: 2,
    OpType.CREATE: 3,
}

#: Column code -> op-type enum member (the decode side of :data:`OP_CODES`).
OP_FROM_CODE: Tuple[OpType, ...] = (
    OpType.READ,
    OpType.WRITE,
    OpType.UPDATE,
    OpType.CREATE,
)

#: Column code -> op-type value: a trace file's op field, a request's op.
OP_VALUES: Tuple[str, ...] = tuple(op.value for op in OP_FROM_CODE)


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One metadata operation: the row view of a :class:`Trace`.

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


def _ids(values: Iterable[int] = ()) -> array:
    """A client-id or path-id column."""
    return array("i", values)


def first_appearance(ids: array, table: Sequence[str]) -> Tuple[array, List[str]]:
    """Renumber ``ids`` (indices into ``table``) in first-appearance order:
    the new ids and the table of the paths they name, in that order."""
    order = list(dict.fromkeys(ids))
    remap = dict(zip(order, range(len(order))))
    return _ids(map(remap.__getitem__, ids)), [table[old] for old in order]


@dataclass
class Trace:
    """An ordered sequence of metadata operations plus its provenance.

    Operation ``i`` is ``timestamps[i]``, ``op_codes[i]`` (an
    :data:`OP_CODES` value), ``client_ids[i]`` and
    ``paths[path_ids[i]]``; ``paths`` lists each distinct path once, in
    first-appearance order.
    """

    name: str
    timestamps: array = field(default_factory=lambda: array("d"))
    op_codes: array = field(default_factory=lambda: array("b"))
    client_ids: array = field(default_factory=_ids)
    path_ids: array = field(default_factory=_ids)
    paths: List[str] = field(default_factory=list)
    description: str = ""

    @classmethod
    def from_rows(
        cls,
        name: str,
        rows: Iterable[Tuple[float, int, int, str]],
        description: str = "",
    ) -> "Trace":
        """Build the columns from ``(timestamp, op_code, client_id, path)``
        rows (a trace file's field order)."""
        trace = cls(name, description=description)
        stamp = trace.timestamps.append
        code = trace.op_codes.append
        client = trace.client_ids.append
        path_id = trace.path_ids.append
        ids: Dict[str, int] = {}
        for timestamp, op_code, client_id, path in rows:
            stamp(timestamp)
            code(op_code)
            client(client_id)
            path_id(ids.setdefault(path, len(ids)))
        trace.paths = list(ids)
        return trace

    def __len__(self) -> int:
        return len(self.op_codes)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(
            TraceRecord,
            self.timestamps,
            map(OP_FROM_CODE.__getitem__, self.op_codes),
            map(self.paths.__getitem__, self.path_ids),
            self.client_ids,
        )

    @property
    def records(self) -> List[TraceRecord]:
        """Every row, as a list (built on each read)."""
        return list(self)

    def operation_breakdown(self) -> Dict[OpType, float]:
        """Fraction of each operation type (the Table II rows)."""
        counts = Counter(self.op_codes)
        total = len(self) or 1
        return {op: counts[code] / total for code, op in enumerate(OP_FROM_CODE)}

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Sub-trace covering operations ``[start:stop]``."""
        path_ids, paths = first_appearance(self.path_ids[start:stop], self.paths)
        return Trace(
            name=f"{self.name}[{start}:{stop if stop is not None else ''}]",
            timestamps=self.timestamps[start:stop],
            op_codes=self.op_codes[start:stop],
            client_ids=self.client_ids[start:stop],
            path_ids=path_ids,
            paths=paths,
            description=self.description,
        )

    def rounds(self, count: int) -> List["Trace"]:
        """Split into ``count`` near-equal replay rounds (Fig. 7 methodology)."""
        if count < 1:
            raise ValueError("need at least one round")
        size = len(self)
        bounds = [round(i * size / count) for i in range(count + 1)]
        return [self.slice(bounds[i], bounds[i + 1]) for i in range(count)]
