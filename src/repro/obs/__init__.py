"""Deterministic sim-time telemetry: metrics, traces, exports, dashboards.

The observability layer for the simulated cluster (the counterpart of
MIDAS-style continuous load telemetry — see PAPERS.md): a
:class:`~repro.obs.telemetry.Telemetry` instance travels with one
simulation run and collects

* registry metrics (:class:`Counter` / :class:`Gauge` / :class:`Histogram`),
* gauge time series snapshotted on the heartbeat grid
  (:class:`GaugeSampler`), and
* structured trace events: faults, detections, adjustment rounds, and the
  operation lifecycles derived from the run's op log.

Exporters turn a run into JSONL / CSV / Prometheus text; ``repro report``
renders the JSONL as an ASCII dashboard. All timestamps are simulated time,
so telemetry is bit-identical across same-seed runs.
"""

from repro.obs.critical import (
    CRITICAL_CATEGORIES,
    analyze_critical_path,
    render_critical_path,
)
from repro.obs.export import (
    JsonlExporter,
    events_to_csv,
    prometheus_text,
    read_jsonl,
    samples_to_csv,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.perfetto import to_chrome_trace, write_chrome_trace
from repro.obs.report import render_dashboard, split_runs
from repro.obs.sampler import GaugeSampler
from repro.obs.spans import SpanRecord, SpanRecorder
from repro.obs.telemetry import NULL_TELEMETRY, Sample, Telemetry, TraceEvent

__all__ = [
    "CRITICAL_CATEGORIES",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "GaugeSampler",
    "Histogram",
    "JsonlExporter",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "Sample",
    "SpanRecord",
    "SpanRecorder",
    "Telemetry",
    "TraceEvent",
    "analyze_critical_path",
    "events_to_csv",
    "prometheus_text",
    "read_jsonl",
    "render_critical_path",
    "render_dashboard",
    "samples_to_csv",
    "split_runs",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
