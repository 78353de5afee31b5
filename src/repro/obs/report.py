"""Machine-readable run reports and the ASCII telemetry dashboard.

Consumes the JSONL record stream produced by :mod:`repro.obs.export` (a run
header, ``sample`` / ``event`` records, optionally a ``summary``) and
renders a terminal dashboard: per-server load-factor sparklines, cluster
gauges, an event census and a timeline of the cluster-level events that
matter (faults, detections, rejoins, adjustment rounds).

Everything here is duck-typed on record dicts — no imports from the
simulation layer — so the dashboard works on any well-formed telemetry
file, including ones produced by future subsystems.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.viz import sparkline
from repro.numeric import ordered_sum

__all__ = ["split_runs", "render_dashboard"]

#: Cluster-level events surfaced on the dashboard timeline (op lifecycle
#: events are summarised in the census instead — they are per-operation).
TIMELINE_EVENTS = (
    "fault_crash",
    "fault_recover",
    "fault_fail_slow",
    "fault_drop_heartbeats",
    "fault_loss",
    "fault_delay",
    "fault_partition",
    "fault_heal",
    "fault_monitor_crash",
    "fault_monitor_recover",
    "monitor_crash",
    "monitor_recover",
    "monitor_failover",
    "directive_aborted",
    "rebalance_skipped",
    "failure_detected",
    "server_rejoined",
    "adjust_round",
    "op_failed",
)


def split_runs(records: Iterable[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Split a multi-run JSONL stream at its ``run`` headers."""
    runs: List[List[Dict[str, Any]]] = []
    for record in records:
        if record.get("kind") == "run" or not runs:
            runs.append([])
        runs[-1].append(record)
    return runs


def _series(
    records: Sequence[Dict[str, Any]], name: str
) -> Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, Optional[float]]]]:
    """``labels -> [(t, value)]`` for one sampled gauge name."""
    series: Dict[Tuple[Tuple[str, str], ...], List] = {}
    for record in records:
        if record.get("kind") == "sample" and record.get("name") == name:
            labels = tuple(sorted(record.get("labels", {}).items()))
            series.setdefault(labels, []).append((record["t"], record["value"]))
    return series


def _finite(points: Sequence[Tuple[float, Optional[float]]]) -> List[float]:
    return [v for _t, v in points if isinstance(v, (int, float))]


def _format_header(header: Dict[str, Any]) -> str:
    skip = {"kind", "schema"}
    parts = [f"{k}={header[k]}" for k in sorted(header) if k not in skip]
    return "run: " + (" ".join(parts) if parts else "(no run info)")


def _gauge_line(
    label: str, points: Sequence[Tuple[float, Optional[float]]], width: int
) -> Optional[str]:
    values = _finite(points)
    if not values:
        return None
    spark = sparkline(values, width=width)
    return (
        f"  {label:<16} {spark}  "
        f"min={min(values):.3g} mean={ordered_sum(values) / len(values):.3g} "
        f"max={max(values):.3g} last={values[-1]:.3g}"
    )


def render_dashboard(
    records: Sequence[Dict[str, Any]],
    width: int = 48,
    max_timeline: int = 20,
) -> str:
    """Render one run's records as a multi-section ASCII dashboard."""
    header = next(
        (r for r in records if r.get("kind") == "run"), {"kind": "run"}
    )
    events = [r for r in records if r.get("kind") == "event"]
    summary = next((r for r in records if r.get("kind") == "summary"), None)
    lines: List[str] = [_format_header(header)]

    # Per-server load-factor sparklines (the L_k/C_k trajectory).
    load = _series(records, "load_factor")
    if load:
        lines.append("")
        lines.append("per-server load factor (L_k/C_k over sim time):")
        for labels in sorted(load, key=lambda ls: dict(ls).get("server", "")):
            name = ",".join(f"{k}={v}" for k, v in labels) or "all"
            line = _gauge_line(name, load[labels], width)
            if line:
                lines.append(line)

    # Scalar cluster gauges.
    scalar_names = (
        "balance_degree",
        "pending_pool_depth",
        "global_layer_size",
        "cache_hit_rate",
    )
    gauge_lines: List[str] = []
    for name in scalar_names:
        for labels, points in sorted(_series(records, name).items()):
            suffix = ",".join(f"{k}={v}" for k, v in labels)
            label = f"{name}[{suffix}]" if suffix else name
            line = _gauge_line(label, points, width)
            if line:
                gauge_lines.append(line)
    if gauge_lines:
        lines.append("")
        lines.append("cluster gauges:")
        lines.extend(gauge_lines)

    # Event census.
    if events:
        census: Dict[str, int] = {}
        for event in events:
            census[event["event"]] = census.get(event["event"], 0) + 1
        lines.append("")
        lines.append("events: " + "  ".join(
            f"{name}={count}" for name, count in sorted(census.items())
        ))

        # Timeline of cluster-level events.
        timeline = [e for e in events if e["event"] in TIMELINE_EVENTS]
        if timeline:
            lines.append("")
            lines.append(f"timeline (first {max_timeline}):")
            for event in timeline[:max_timeline]:
                detail = "  ".join(
                    f"{k}={v}"
                    for k, v in sorted(event.items())
                    if k not in ("kind", "t", "event")
                )
                lines.append(f"  t={event['t']:9.4f}s  {event['event']:<22} {detail}")
            if len(timeline) > max_timeline:
                lines.append(f"  ... {len(timeline) - max_timeline} more")

    # End-of-run summary (the SimulationResult serialization).
    if summary is not None:
        lines.append("")
        lines.append("summary:")
        for key in sorted(summary):
            if key in ("kind", "latency", "availability", "server_visits",
                       "server_utilization"):
                continue
            lines.append(f"  {key:<18} {summary[key]}")
        latency = summary.get("latency")
        if isinstance(latency, dict):
            lines.append(
                "  latency            "
                + " ".join(
                    f"{q}={latency[q] * 1e3:.2f}ms"
                    for q in ("p50", "p95", "p99")
                    if q in latency
                )
            )
        availability = summary.get("availability")
        if isinstance(availability, dict) and any(availability.values()):
            lines.append(f"  availability       {availability}")
    return "\n".join(lines)
