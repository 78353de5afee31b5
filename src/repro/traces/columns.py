"""Columnar op batches: the array-backed form of a trace slice.

Walking one ``TraceRecord`` object (and one path-string hash) per operation
is a fixed per-op cost the replay loop does not need to pay, so it consumes
a trace as :class:`OpBatch` windows instead: the two columns it reads — an
op-type code ``array`` and the resolved node references — built one
:data:`DEFAULT_BATCH_OPS` window at a time over the materialized record
list.

Path resolution happens here, once per record: lookups are pure reads of a
static tree (so resolving a window ahead of dispatch changes nothing),
records whose path does not resolve are skipped, and every surviving record
appears in trace order.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterable, Iterator, List, Tuple

from repro.traces.trace import OpType, TraceRecord

__all__ = [
    "OP_CODES",
    "OP_FROM_CODE",
    "OpBatch",
    "iter_op_batches",
    "DEFAULT_BATCH_OPS",
]

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

#: Default window size: large enough to amortise refill bookkeeping, small
#: enough that a window stays cache-friendly (4 KB of codes + one node-ref
#: list).
DEFAULT_BATCH_OPS = 4096

#: Op-type *value* -> column code. ``Enum.__hash__`` is a Python-level call
#: (it hashes the member name), so the batch builder keys on the member's
#: value string instead — strings cache their hash, making the per-record
#: lookup a plain C dict probe.
_CODES_BY_VALUE = {op.value: code for op, code in OP_CODES.items()}


class OpBatch:
    """One window of operations in columnar (structure-of-arrays) form.

    ``op_codes`` is an ``array('b')`` of op-type codes (see
    :data:`OP_CODES`) and ``nodes`` the index-parallel list of resolved
    ``MetadataNode`` references. Records whose path did not resolve in the
    tree are absent (skipped at build time).
    """

    __slots__ = ("op_codes", "nodes")

    def __init__(self, op_codes: array, nodes: List) -> None:
        self.op_codes = op_codes
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.op_codes)

    def ops(self) -> List[OpType]:
        """Decode the op-code column back to enum members (index-parallel)."""
        decode = OP_FROM_CODE
        return [decode[code] for code in self.op_codes]


def iter_op_batches(
    records: Iterable[TraceRecord],
    tree,
    batch_ops: int = DEFAULT_BATCH_OPS,
) -> Iterator[OpBatch]:
    """Yield ``records`` as :class:`OpBatch` windows of up to ``batch_ops``
    ops each.

    ``tree`` provides path resolution (``tree.lookup``); unresolvable paths
    are skipped (a window containing skips comes out short — batches are
    never re-packed across chunk boundaries). Record order is preserved
    across batches, so consuming the batches back-to-back replays the exact
    trace sequence.

    Columns are built chunk-at-a-time with comprehensions and the C-level
    ``array(typecode, list)`` constructor rather than per-record appends:
    the batch builder sits on the replay hot path.
    """
    if batch_ops < 1:
        raise ValueError("batch_ops must be positive")
    lookup = tree.lookup
    codes = _CODES_BY_VALUE
    it = iter(records)
    while True:
        chunk = list(islice(it, batch_ops))
        if not chunk:
            return
        nodes = [lookup(r.path) for r in chunk]
        if None in nodes:
            kept = [(r, n) for r, n in zip(chunk, nodes) if n is not None]
            if not kept:
                continue
            chunk = [r for r, _ in kept]
            nodes = [n for _, n in kept]
        yield OpBatch(array("b", [codes[r.op._value_] for r in chunk]), nodes)
