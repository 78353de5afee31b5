"""Columnar op batches: the replay's windows over a trace's columns.

The replay loop reads two things per operation: its op code and its
resolved node id. :func:`op_batches` hands them out as :class:`OpBatch`
windows of :data:`DEFAULT_BATCH_OPS` operations: a slice of the trace's
``op_codes`` column and its ``path_ids`` slice mapped through a column of
node ids by path id, so no path string is hashed or rendered per op (the
window's ``path_ids`` name each op's path in the trace's own table).

The column is built once per workload (``GeneratedWorkload.node_ids``: the
generator's own ids, or the trace resolved on first use), not per replay.
Operations whose path does not resolve are skipped, and every surviving
operation appears in trace order.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Iterator, List

from repro.traces.trace import OP_CODES, OP_FROM_CODE, OpType, Trace

__all__ = [
    "OP_CODES",
    "OP_FROM_CODE",
    "OpBatch",
    "iter_op_batches",
    "op_batches",
    "DEFAULT_BATCH_OPS",
]

#: Default window size: large enough to amortise refill bookkeeping, small
#: enough that a window stays cache-friendly (4 KB of codes + one node-ref
#: list).
DEFAULT_BATCH_OPS = 4096


class OpBatch:
    """One window of operations in columnar (structure-of-arrays) form.

    ``op_codes`` is an ``array('b')`` of op-type codes (see
    :data:`OP_CODES`), ``nodes`` the index-parallel resolved node ids and
    ``path_ids`` the ops' indices into the trace's ``paths``. Operations
    whose path did not resolve are absent (skipped at build time).
    """

    __slots__ = ("op_codes", "nodes", "path_ids")

    def __init__(self, op_codes: array, nodes: List[int], path_ids: array) -> None:
        self.op_codes = op_codes
        self.nodes = nodes
        self.path_ids = path_ids

    def ops(self) -> List[OpType]:
        """Decode the op-code column back to enum members (index-parallel)."""
        decode = OP_FROM_CODE
        return [decode[code] for code in self.op_codes]


def node_column(tree, paths) -> array:
    """The node id of each of ``paths`` (``NamespaceTree.resolve``), -1 for none."""
    return array("i", [-1 if node is None else node for node in tree.resolve(paths)])


def iter_op_batches(
    trace: Trace,
    tree,
    batch_ops: int = DEFAULT_BATCH_OPS,
) -> Iterator[OpBatch]:
    """:func:`op_batches` over ``trace``'s paths resolved in ``tree``."""
    return op_batches(trace, node_column(tree, trace.paths), batch_ops)


def op_batches(trace, node_ids: array, batch_ops: int = DEFAULT_BATCH_OPS) -> Iterator[OpBatch]:
    """Yield ``trace`` as :class:`OpBatch` windows of up to ``batch_ops``
    ops each, ``node_ids[path_id]`` the node an op reads; an op whose path
    names none (-1) is skipped, so a window with skips comes out short. Read
    back to back, the windows replay the trace in order."""
    if batch_ops < 1:
        raise ValueError("batch_ops must be positive")
    node_of = node_ids.tolist().__getitem__
    unresolved = -1 in node_ids
    codes, path_ids = trace.op_codes, trace.path_ids
    for base in range(0, len(codes), batch_ops):
        stop = base + batch_ops
        window = codes[base:stop]
        ids = path_ids[base:stop]
        nodes = list(map(node_of, ids))
        if unresolved and -1 in nodes:
            kept = [node >= 0 for node in nodes]
            nodes = list(compress(nodes, kept))
            if not nodes:
                continue
            window = array("b", compress(window, kept))
            ids = array(ids.typecode, compress(ids, kept))
        yield OpBatch(window, nodes, ids)
