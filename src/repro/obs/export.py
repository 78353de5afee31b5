"""Telemetry exporters: JSONL, CSV and Prometheus text exposition.

The JSONL stream is the canonical machine-readable form (one JSON object
per line): a ``run`` header, then ``sample`` / ``event`` records merged in
sim-time order, optionally closed by a ``summary`` record carrying the full
:class:`~repro.simulation.stats.SimulationResult` serialization. CSV covers
the spreadsheet path, and the Prometheus text format snapshots the final
registry state for scrape-shaped tooling.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "samples_to_csv",
    "events_to_csv",
    "prometheus_text",
    "JsonlExporter",
]


def _dump(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_jsonl(
    telemetry: Telemetry,
    destination: Union[str, Path, IO[str]],
    summary: Optional[Dict[str, Any]] = None,
    append: bool = False,
) -> int:
    """Write one run's telemetry as JSONL; returns the record count.

    ``summary`` (typically ``SimulationResult.to_dict()``) is appended as a
    final ``{"kind": "summary", ...}`` record. ``append=True`` adds a run to
    an existing file (multi-scheme sweeps share one file; each run keeps its
    own header).
    """
    records = list(telemetry.iter_records())
    if summary is not None:
        records.append({"kind": "summary", **summary})
    if hasattr(destination, "write"):
        for record in records:
            destination.write(_dump(record) + "\n")
    else:
        mode = "a" if append else "w"
        with open(destination, mode, encoding="utf-8") as handle:
            for record in records:
                handle.write(_dump(record) + "\n")
    return len(records)


def read_jsonl(source: Union[str, Path, IO[str]]) -> List[Dict[str, Any]]:
    """Load a telemetry JSONL file back into a list of record dicts."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def _label_text(labels: Dict[str, Any]) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(labels.items()))


def samples_to_csv(
    records: Iterable[Dict[str, Any]], destination: Union[str, Path, IO[str]]
) -> int:
    """Write ``sample`` records as ``t,name,labels,value`` rows."""
    rows = [r for r in records if r.get("kind") == "sample"]

    def emit(handle: IO[str]) -> None:
        writer = csv.writer(handle)
        writer.writerow(["t", "name", "labels", "value"])
        for r in rows:
            writer.writerow(
                [r["t"], r["name"], _label_text(r.get("labels", {})), r["value"]]
            )

    if hasattr(destination, "write"):
        emit(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
    return len(rows)


def events_to_csv(
    records: Iterable[Dict[str, Any]], destination: Union[str, Path, IO[str]]
) -> int:
    """Write ``event`` records as ``t,event,op,fields`` rows (fields JSON)."""
    rows = [r for r in records if r.get("kind") == "event"]

    def emit(handle: IO[str]) -> None:
        writer = csv.writer(handle)
        writer.writerow(["t", "event", "op", "fields"])
        for r in rows:
            fields = {
                k: v
                for k, v in r.items()
                if k not in ("kind", "t", "event", "op")
            }
            writer.writerow(
                [r["t"], r["event"], r.get("op", ""), _dump(fields)]
            )

    if hasattr(destination, "write"):
        emit(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
    return len(rows)


# ----------------------------------------------------------------------
# Context-manager exporter
# ----------------------------------------------------------------------
class JsonlExporter:
    """Write one run's telemetry JSONL on scope exit (even on exception).

    Flushing happens in ``__exit__`` even when the body raised, so a run
    that dies mid-flight still leaves its partial telemetry on disk for
    post-mortem analysis; the exception is never suppressed.
    ``set_summary`` attaches the end-of-run summary record; a run that
    raises before reaching it simply flushes without one. ``count`` holds
    the number of records written.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        destination: Union[str, Path, IO[str]],
        append: bool = False,
    ) -> None:
        self.count = 0
        self.telemetry = telemetry
        self.destination = destination
        self.append = append
        self.summary: Optional[Dict[str, Any]] = None

    def set_summary(self, summary: Dict[str, Any]) -> None:
        self.summary = summary

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.count = write_jsonl(
            self.telemetry, self.destination, summary=self.summary,
            append=self.append,
        )
        return False


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _prom_labels(labels, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Render the registry in the Prometheus text exposition format.

    Counters get the conventional ``_total`` suffix; histograms expand into
    ``_bucket`` / ``_sum`` / ``_count`` series. The output is a *snapshot*
    of the end-of-run registry state (there is no live scrape endpoint in a
    simulated cluster).
    """
    lines: List[str] = []
    seen_names = set()
    for metric in registry.collect():
        base = prefix + metric.name
        out_name = base + ("_total" if metric.kind == "counter" else "")
        if metric.name not in seen_names:
            seen_names.add(metric.name)
            help_text = registry.help_text(metric.name)
            if help_text:
                lines.append(f"# HELP {out_name} {help_text}")
            lines.append(f"# TYPE {out_name} {metric.kind}")
        if metric.kind == "histogram":
            for bound, cumulative in metric.cumulative():
                le = "+Inf" if math.isinf(bound) else _prom_value(bound)
                le_label = 'le="%s"' % le
                lines.append(
                    f"{base}_bucket{_prom_labels(metric.labels, le_label)}"
                    f" {cumulative}"
                )
            lines.append(
                f"{base}_sum{_prom_labels(metric.labels)}"
                f" {_prom_value(metric.sum)}"
            )
            lines.append(
                f"{base}_count{_prom_labels(metric.labels)} {metric.count}"
            )
        else:
            lines.append(
                f"{out_name}{_prom_labels(metric.labels)}"
                f" {_prom_value(metric.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
