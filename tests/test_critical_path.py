"""Critical-path analysis and Perfetto export."""

import dataclasses
import io
import json
import math
from collections import defaultdict

import pytest

from repro import registry
from repro.obs import (
    CRITICAL_CATEGORIES,
    Telemetry,
    analyze_critical_path,
    render_critical_path,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.simulation import SimulationConfig
from repro.simulation.runner import ClusterSimulator
from repro.traces import DatasetProfile, TraceGenerator

SAMPLE = 40


@pytest.fixture(scope="module")
def traced_records():
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=900, scale=3e-4),
        seed=21,
        create_fraction=0.08,
    )
    workload = TraceGenerator(profile, num_clients=16).generate()

    def run():
        telemetry = Telemetry(enabled=False)
        sim = ClusterSimulator(
            registry.create("d2-tree"), workload, 6,
            SimulationConfig(trace_sample=SAMPLE), telemetry=telemetry,
        )
        try:
            result = sim.run()
        finally:
            sim.close()
        buffer = io.StringIO()
        write_jsonl(telemetry, buffer, summary=result.to_dict())
        return [json.loads(line) for line in buffer.getvalue().splitlines()]

    return run(), run()


def test_analysis_components_sum_to_end_to_end(traced_records):
    records, _ = traced_records
    analysis = analyze_critical_path(records)
    assert analysis["ops"] > 0
    assert math.isclose(
        sum(analysis["components_seconds"].values()),
        analysis["total_end_to_end_seconds"],
        rel_tol=1e-9,
    )
    assert tuple(analysis["components_seconds"]) == CRITICAL_CATEGORIES
    assert sum(
        info["ops"] for info in analysis["per_subtree"].values()
    ) == analysis["ops"]
    assert len(analysis["slowest_ops"]) <= 5
    slowest = [row["latency_seconds"] for row in analysis["slowest_ops"]]
    assert slowest == sorted(slowest, reverse=True)


def test_analysis_and_render_are_byte_deterministic(traced_records):
    first, second = traced_records
    a1, a2 = analyze_critical_path(first), analyze_critical_path(second)
    assert json.dumps(a1, sort_keys=True) == json.dumps(a2, sort_keys=True)
    assert render_critical_path(a1) == render_critical_path(a2)
    rendered = render_critical_path(a1)
    assert "latency components" in rendered
    assert "queueing" in rendered


def test_chrome_trace_is_valid_and_balanced(traced_records):
    records, _ = traced_records
    document = to_chrome_trace(records)
    events = document["traceEvents"]
    assert events, "no trace events emitted"
    timestamps = [e["ts"] for e in events if e["ph"] != "M"]
    assert timestamps == sorted(timestamps)
    stacks = defaultdict(list)
    for event in events:
        key = (event["pid"], event["tid"])
        if event["ph"] == "B":
            stacks[key].append(event["name"])
        elif event["ph"] == "E":
            assert stacks[key] and stacks[key][-1] == event["name"], (
                f"unmatched E for {event['name']} on {key}"
            )
            stacks[key].pop()
    assert all(not stack for stack in stacks.values()), "unclosed B events"
    # Replica fan-out is off the critical path: async spans become instants.
    assert all(e["ph"] in ("B", "E", "i", "M") for e in events)

    buffer = io.StringIO()
    count = write_chrome_trace(records, buffer)
    assert count == len(events)
    parsed = json.loads(buffer.getvalue())
    assert len(parsed["traceEvents"]) == count


def test_analysis_of_spanless_records_is_empty():
    analysis = analyze_critical_path(
        [{"kind": "run", "schema": 2}, {"kind": "event", "t": 0.0, "event": "x"}]
    )
    assert analysis["ops"] == 0
    assert analysis["total_end_to_end_seconds"] == 0.0
    assert render_critical_path(analysis)  # renders without crashing
