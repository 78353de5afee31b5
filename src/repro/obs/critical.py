"""Critical-path analysis over span records.

Walks the span trees a run emitted (``kind == "span"`` JSONL records, see
:mod:`repro.obs.spans`) and attributes every sampled operation's end-to-end
latency to its components — queueing, service, network, retry, migration
stall — aggregated per run, per server, and per top-level subtree, plus the
cluster-lifecycle picture (failover detection and recovery windows,
adjustment rounds). The analysis is a plain JSON-able dict, so repeated runs
of the same telemetry file serialize byte-identically.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.viz import STACK_GLYPHS, stacked_bar
from repro.numeric import ordered_sum

__all__ = ["CRITICAL_CATEGORIES", "analyze_critical_path", "render_critical_path"]

#: The attribution buckets whose spans tile each op's end-to-end latency.
CRITICAL_CATEGORIES = ("queueing", "service", "network", "retry", "migration")

#: How many slowest sampled ops the analysis keeps.
SLOWEST_OPS = 5


def _top_segment(path: str) -> str:
    """First path component — the subtree bucket for attribution."""
    if not path or path == "/":
        return "/"
    parts = path.split("/")
    return "/" + parts[1] if len(parts) > 1 and parts[1] else "/"


def analyze_critical_path(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate one run's span records into a latency-attribution report.

    Pass a single run's records (``split_runs`` cuts multi-run files).
    Returns a JSON-able dict; every aggregate is a float-sum over spans in
    op-id order, so the output is deterministic for deterministic input.
    """
    roots: Dict[int, Dict[str, Any]] = {}
    children: Dict[int, List[Dict[str, Any]]] = {}
    cluster: List[Dict[str, Any]] = []
    for record in records:
        if record.get("kind") != "span":
            continue
        op = record.get("op")
        if op is None:
            cluster.append(record)
        elif record.get("parent") is None:
            roots[op] = record
        else:
            children.setdefault(op, []).append(record)

    components = {cat: 0.0 for cat in CRITICAL_CATEGORIES}
    per_server: Dict[int, Dict[str, float]] = {}
    per_subtree: Dict[str, Dict[str, Any]] = {}
    rows = []
    total = 0.0
    for op_id in sorted(roots):
        root = roots[op_id]
        e2e = root["t1"] - root["t0"]
        total += e2e
        comp = {cat: 0.0 for cat in CRITICAL_CATEGORIES}
        for child in children.get(op_id, ()):
            cat = child["cat"]
            if cat not in comp:
                continue  # async (off-critical-path) spans
            duration = child["t1"] - child["t0"]
            comp[cat] += duration
            server = child.get("server")
            if server is not None:
                bucket = per_server.setdefault(
                    server, {cat: 0.0 for cat in CRITICAL_CATEGORIES}
                )
                bucket[cat] += duration
        for cat in CRITICAL_CATEGORIES:
            components[cat] += comp[cat]
        subtree = per_subtree.setdefault(
            _top_segment(root.get("path", "/")),
            {"ops": 0, "end_to_end_seconds": 0.0},
        )
        subtree["ops"] += 1
        subtree["end_to_end_seconds"] += e2e
        rows.append((e2e, op_id, root.get("path", "/"), comp))

    rows.sort(key=lambda row: (-row[0], row[1]))
    slowest = [
        {
            "op": op_id,
            "path": path,
            "latency_seconds": e2e,
            "components_seconds": comp,
        }
        for e2e, op_id, path, comp in rows[:SLOWEST_OPS]
    ]

    detections = []
    recoveries = []
    monitor_failovers = 0
    adjust_rounds = 0
    for span in cluster:
        name = span["name"]
        if name == "heartbeat_miss":
            detections.append(
                {"server": span.get("server"), "seconds": span["t1"] - span["t0"]}
            )
        elif name == "recovery":
            recoveries.append(
                {"server": span.get("server"), "seconds": span["t1"] - span["t0"]}
            )
        elif name == "monitor_failover":
            monitor_failovers += 1
        elif name == "adjust_round":
            adjust_rounds += 1

    ops = len(roots)
    return {
        "ops": ops,
        "total_end_to_end_seconds": total,
        "mean_latency_seconds": total / ops if ops else 0.0,
        "components_seconds": components,
        "per_server": {
            str(server): per_server[server] for server in sorted(per_server)
        },
        "per_subtree": {
            path: per_subtree[path] for path in sorted(per_subtree)
        },
        "slowest_ops": slowest,
        "cluster": {
            "adjust_rounds": adjust_rounds,
            "detections": detections,
            "monitor_failovers": monitor_failovers,
            "recoveries": recoveries,
        },
    }


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _component_lines(
    components: Dict[str, float], width: int, indent: str
) -> List[str]:
    total = ordered_sum(components.values())
    lines = []
    bar = stacked_bar([components[cat] for cat in CRITICAL_CATEGORIES], width)
    if bar:
        lines.append(f"{indent}[{bar}]")
    for i, cat in enumerate(CRITICAL_CATEGORIES):
        value = components[cat]
        share = value / total * 100.0 if total > 0 else 0.0
        glyph = STACK_GLYPHS[i % len(STACK_GLYPHS)]
        lines.append(
            f"{indent}{glyph} {cat:<10} {share:6.2f}%  {value:.6f} s"
        )
    return lines


def render_critical_path(analysis: Dict[str, Any], width: int = 48) -> str:
    """ASCII flame-style view of :func:`analyze_critical_path`'s output."""
    out: List[str] = []
    ops = analysis["ops"]
    out.append(
        f"critical path — {ops} sampled op(s), "
        f"mean latency {_ms(analysis['mean_latency_seconds'])}"
    )
    out.append("")
    out.append("latency components (sum = end-to-end):")
    out.extend(_component_lines(analysis["components_seconds"], width, "  "))
    per_server = analysis["per_server"]
    if per_server:
        out.append("")
        out.append("per-server attribution:")
        for server, comp in per_server.items():
            bar = stacked_bar(
                [comp[cat] for cat in CRITICAL_CATEGORIES], max(12, width // 2)
            )
            busy = ordered_sum(comp.values())
            out.append(
                f"  server {server:>3}  [{bar}]  {busy:.6f} s"
            )
    per_subtree = analysis["per_subtree"]
    if per_subtree:
        out.append("")
        out.append("per-subtree end-to-end latency:")
        ranked = sorted(
            per_subtree.items(),
            key=lambda item: (-item[1]["end_to_end_seconds"], item[0]),
        )
        for path, info in ranked[:10]:
            mean = (
                info["end_to_end_seconds"] / info["ops"] if info["ops"] else 0.0
            )
            out.append(
                f"  {path:<24} ops={info['ops']:<6} "
                f"total={info['end_to_end_seconds']:.6f} s  mean={_ms(mean)}"
            )
    slowest = analysis["slowest_ops"]
    if slowest:
        out.append("")
        out.append("slowest sampled ops:")
        for row in slowest:
            bar = stacked_bar(
                [row["components_seconds"][cat] for cat in CRITICAL_CATEGORIES],
                max(12, width // 2),
            )
            path = row["path"]
            if len(path) > 60:
                path = path[:28] + "…" + path[-31:]
            out.append(
                f"  op {row['op']:<8} {_ms(row['latency_seconds']):>12}  "
                f"[{bar}]  {path}"
            )
    cluster = analysis["cluster"]
    if (
        cluster["detections"] or cluster["recoveries"]
        or cluster["monitor_failovers"]
    ):
        out.append("")
        out.append("cluster lifecycle:")
        for item in cluster["detections"]:
            out.append(
                f"  failover detection  server {item['server']}: "
                f"{_ms(item['seconds'])}"
            )
        for item in cluster["recoveries"]:
            out.append(
                f"  recovery window     server {item['server']}: "
                f"{_ms(item['seconds'])}"
            )
        if cluster["monitor_failovers"]:
            out.append(
                f"  monitor failovers   {cluster['monitor_failovers']}"
            )
    out.append("")
    out.append(f"adjustment rounds: {cluster['adjust_rounds']}")
    return "\n".join(out)
