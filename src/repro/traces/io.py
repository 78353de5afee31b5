"""Trace (de)serialization — a simple line-oriented interchange format.

Each line is ``timestamp<TAB>op<TAB>client_id<TAB>path``; the header carries
the trace name and description. Generated workloads can be archived and
replayed across runs. Timestamps are written with six decimals and read
back rounded to six, so a timestamp the writer could not have written
(``0.0000001``) loads as the one it would write (``0.0``): every trace the
loader returns survives ``loads_trace(dumps_trace(t)) == t``, and every
file the writer emits reads back bit for bit.

A trace file is hostile input: :func:`loads_trace` reports every malformed
line as ``ValueError("line N: …")``, and both directions apply one rule
(:func:`check_row`), so nothing the writer emits can read back as a
different trace. Both directions work on the trace's columns: no
:class:`~repro.traces.trace.TraceRecord` is built per line.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Tuple, Union

from repro.traces.trace import OP_CODES, OP_VALUES, OpType, Trace

__all__ = [
    "save_trace",
    "load_trace",
    "dumps_trace",
    "loads_trace",
    "check_path",
    "check_row",
]

_HEADER_PREFIX = "#trace"

#: Characters that would break a record (or the header) across fields or
#: lines. ``\r`` is here because text-mode reads turn it into ``\n``.
_BREAKS = frozenset("\t\r\n")
_FLATTEN = str.maketrans(dict.fromkeys(_BREAKS, " "))

#: Client ids are held in a signed 32-bit column.
_CLIENT_LIMIT = 2**31


def check_path(path: object) -> None:
    """Raise ``ValueError`` unless ``path`` is an absolute path that fits on
    one tab-separated line."""
    if not isinstance(path, str) or not path.startswith("/") or not _BREAKS.isdisjoint(path):
        raise ValueError(f"path {path!r} must be absolute, without tab or newline")


def check_row(timestamp: float, client_id: int, path: str) -> None:
    """Raise ``ValueError`` unless an operation with these fields can live
    in a trace file: a finite non-negative timestamp, a client id in ``[0,
    2**31)``, and a :func:`check_path` path."""
    if not math.isfinite(timestamp) or timestamp < 0:
        raise ValueError(f"timestamp {timestamp!r} must be finite and non-negative")
    if not 0 <= client_id < _CLIENT_LIMIT:
        raise ValueError(f"client id {client_id} must be in [0, 2**31)")
    check_path(path)


def _parse_header(line: str) -> Tuple[str, str]:
    header = line.replace("\r", " ").split("\t")  # as the writer flattens it
    if header[0] != _HEADER_PREFIX or len(header) < 2:
        raise ValueError("line 1: missing or malformed trace header")
    return header[1], header[2] if len(header) > 2 else ""


def _parse_line(lineno: int, line: str) -> Tuple[float, int, int, str]:
    """One line as a ``(timestamp, op_code, client_id, path)`` row."""
    try:
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"expected 4 tab-separated fields, got {len(parts)}")
        timestamp, op, client_id, path = parts
        stamp, code, client = round(float(timestamp), 6), OP_CODES[OpType(op)], int(client_id)
        check_row(stamp, client, path)
    except ValueError as error:
        raise ValueError(f"line {lineno}: {error}") from None
    return stamp, code, client, path


def dumps_trace(trace: Trace) -> str:
    """Serialize a trace to its text form.

    An operation :func:`check_row` refuses raises ``ValueError("record N:
    …")`` rather than being written: a raw tab or newline in a path would
    read back as a different (or forged extra) record. The name and description are
    flattened onto the header line.
    """
    out = io.StringIO()
    name = trace.name.translate(_FLATTEN)
    out.write(f"{_HEADER_PREFIX}\t{name}\t{trace.description.translate(_FLATTEN)}\n")
    paths = trace.paths
    rows = zip(trace.timestamps, trace.op_codes, trace.client_ids, trace.path_ids)
    for index, (timestamp, code, client_id, path_id) in enumerate(rows):
        path = paths[path_id]
        try:
            check_row(timestamp, client_id, path)
        except ValueError as error:
            raise ValueError(f"record {index}: {error}") from None
        out.write(f"{timestamp:.6f}\t{OP_VALUES[code]}\t{client_id}\t{path}\n")
    return out.getvalue()


def loads_trace(text: str) -> Trace:
    """Parse a trace from its text form; ``ValueError("line N: …")`` on any
    malformed line."""
    lines = text.split("\n")
    name, description = _parse_header(lines[0])
    rows = (
        _parse_line(lineno, line)
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip()
    )
    return Trace.from_rows(name, rows, description)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` (nothing is written if a record is refused)."""
    Path(path).write_text(dumps_trace(trace), encoding="utf-8")


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace from ``path``."""
    return loads_trace(Path(path).read_text(encoding="utf-8"))
