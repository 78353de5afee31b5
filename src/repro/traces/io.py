"""Trace (de)serialization — a simple line-oriented interchange format.

Each line is ``timestamp<TAB>op<TAB>client_id<TAB>path``; the header carries
the trace name and description. Generated workloads can be archived and
replayed across runs (timestamps keep microsecond precision).

A trace file is hostile input: :func:`loads_trace` reports every malformed
line as ``ValueError("line N: …")``, and both directions apply one rule
(:func:`check_record`), so nothing the writer emits can read back as a
different trace.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Tuple, Union

from repro.traces.trace import OpType, Trace, TraceRecord

__all__ = [
    "save_trace",
    "load_trace",
    "dumps_trace",
    "loads_trace",
    "check_path",
    "check_record",
]

_HEADER_PREFIX = "#trace"

#: Characters that would break a record (or the header) across fields or
#: lines. ``\r`` is here because text-mode reads turn it into ``\n``.
_BREAKS = frozenset("\t\r\n")
_FLATTEN = str.maketrans(dict.fromkeys(_BREAKS, " "))


def check_path(path: object) -> None:
    """Raise ``ValueError`` unless ``path`` is an absolute path that fits on
    one tab-separated line."""
    if not isinstance(path, str) or not path.startswith("/") or not _BREAKS.isdisjoint(path):
        raise ValueError(f"path {path!r} must be absolute, without tab or newline")


def check_record(record: TraceRecord) -> None:
    """Raise ``ValueError`` unless ``record`` can live in a trace file: a
    finite non-negative timestamp and client id, and a :func:`check_path`
    path."""
    if not math.isfinite(record.timestamp) or record.timestamp < 0:
        raise ValueError(f"timestamp {record.timestamp!r} must be finite and non-negative")
    if record.client_id < 0:
        raise ValueError(f"client id {record.client_id} must be non-negative")
    check_path(record.path)


def _parse_header(line: str) -> Tuple[str, str]:
    header = line.replace("\r", " ").split("\t")  # as the writer flattens it
    if header[0] != _HEADER_PREFIX or len(header) < 2:
        raise ValueError("line 1: missing or malformed trace header")
    return header[1], header[2] if len(header) > 2 else ""


def _parse_line(lineno: int, line: str) -> TraceRecord:
    try:
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"expected 4 tab-separated fields, got {len(parts)}")
        timestamp, op, client_id, path = parts
        record = TraceRecord(float(timestamp), OpType(op), path, int(client_id))
        check_record(record)
    except ValueError as error:
        raise ValueError(f"line {lineno}: {error}") from None
    return record


def dumps_trace(trace: Trace) -> str:
    """Serialize a trace to its text form.

    A record :func:`check_record` refuses raises ``ValueError`` rather than
    being written: a raw tab or newline in a path would read back as a
    different (or forged extra) record. The name and description are
    flattened onto the header line.
    """
    out = io.StringIO()
    name = trace.name.translate(_FLATTEN)
    out.write(f"{_HEADER_PREFIX}\t{name}\t{trace.description.translate(_FLATTEN)}\n")
    for index, record in enumerate(trace):
        try:
            check_record(record)
        except ValueError as error:
            raise ValueError(f"record {index}: {error}") from None
        out.write(
            f"{record.timestamp:.6f}\t{record.op.value}\t{record.client_id}\t{record.path}\n"
        )
    return out.getvalue()


def loads_trace(text: str) -> Trace:
    """Parse a trace from its text form; ``ValueError("line N: …")`` on any
    malformed line."""
    lines = text.split("\n")
    name, description = _parse_header(lines[0])
    records = [
        _parse_line(lineno, line)
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]
    return Trace(name=name, records=records, description=description)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` (nothing is written if a record is refused)."""
    Path(path).write_text(dumps_trace(trace), encoding="utf-8")


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace from ``path``."""
    return loads_trace(Path(path).read_text(encoding="utf-8"))
