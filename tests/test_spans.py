"""Causal span tracing: sampling, determinism, latency tiling.

Spans are a pure *observation* of the replay, so (a) a sampled run's
:class:`SimulationResult` must equal the unsampled run's (tracing never
perturbs the model), (b) every op's child spans must tile its end-to-end
latency exactly — the property the critical-path report's attribution rests
on — and (c) the span JSONL of a seeded run is byte-stable (its faulted
form is pinned by ``tests/test_golden.py``).
"""

import dataclasses
import io
import math

import pytest

from repro import registry
from repro.chaos import CorpusCase
from repro.chaos.history import OpHistory
from repro.obs import NULL_TELEMETRY, SpanRecorder, Telemetry, write_jsonl
from repro.simulation import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    SimulationConfig,
)
from repro.simulation.runner import ClusterSimulator
from repro.traces import DatasetProfile, TraceGenerator

SAMPLE = 40


@pytest.fixture(scope="module")
def workload():
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=900, scale=3e-4),
        seed=21,
        create_fraction=0.08,
    )
    return TraceGenerator(profile, num_clients=16).generate()


def _run(workload, trace_sample, **overrides):
    """One traced run; returns (result, span JSONL text)."""
    config = SimulationConfig(trace_sample=trace_sample, **overrides)
    telemetry = Telemetry(enabled=False)
    sim = ClusterSimulator(
        registry.create("d2-tree"), workload, 6, config, telemetry=telemetry
    )
    try:
        result = sim.run()
    finally:
        sim.close()
    buffer = io.StringIO()
    write_jsonl(telemetry, buffer, summary=result.to_dict())
    return result, buffer.getvalue()


def _spans(jsonl_text):
    import json

    return [
        r for r in (json.loads(line) for line in jsonl_text.splitlines())
        if r.get("kind") == "span"
    ]


def test_sampled_run_matches_unsampled_result(workload):
    sampled, text = _run(workload, SAMPLE)
    unsampled, _ = _run(workload, 0)
    assert sampled == unsampled
    assert _spans(text), "sampled run produced no spans"


def test_components_tile_end_to_end_latency(workload):
    _, text = _run(workload, SAMPLE)
    spans = _spans(text)
    roots = {
        s["op"]: s for s in spans
        if s.get("op") is not None and s.get("parent") is None
    }
    assert roots
    for op_id, root in roots.items():
        component_sum = sum(
            child["t1"] - child["t0"]
            for child in spans
            if child.get("op") == op_id
            and child.get("parent") is not None
            and child["cat"] != "async"
        )
        assert math.isclose(
            component_sum, root["t1"] - root["t0"],
            rel_tol=1e-9, abs_tol=1e-12,
        ), f"op {op_id}: components do not tile the end-to-end latency"


def test_every_sampled_op_is_spanned_once(workload):
    result, text = _run(workload, SAMPLE)
    recorder = SpanRecorder(SAMPLE, seed=SimulationConfig().seed)
    expected = sum(
        1 for op_id in range(result.operations) if recorder.sampled(op_id)
    )
    spans = _spans(text)
    roots = [
        s for s in spans
        if s.get("op") is not None and s.get("parent") is None
    ]
    assert len(roots) == expected
    assert len({s["op"] for s in roots}) == len(roots)


def test_faulted_run_emits_failover_lifecycle(workload):
    plan = FaultPlan([
        FaultEvent(FaultKind("crash"), 1, at_time=0.05),
        FaultEvent(FaultKind("recover"), 1, at_time=1.0),
    ])
    result, text = _run(
        workload, SAMPLE,
        fault_plan=plan,
        heartbeat_interval=0.01,
        heartbeat_timeout=0.03,
    )
    spans = _spans(text)
    by_name = {}
    for span in spans:
        if span.get("op") is None:
            by_name.setdefault(span["name"], []).append(span)
    assert "heartbeat_miss" in by_name
    assert "recovery" in by_name
    detection = by_name["heartbeat_miss"][0]
    # The span's window is the same silence the availability report counts.
    assert math.isclose(
        detection["t1"] - detection["t0"],
        result.availability.detection_latency[1],
        rel_tol=1e-9,
    )
    chain = detection["span"]
    children = {
        s["name"] for s in spans if s.get("parent") == chain
    }
    assert {"detect", "evict"} <= children
    # Re-running the identical faulted config is byte-stable.
    _, text2 = _run(
        workload, SAMPLE,
        fault_plan=plan,
        heartbeat_interval=0.01,
        heartbeat_timeout=0.03,
    )
    assert text2 == text


def test_spanrecorder_rejects_bad_sample_rate():
    with pytest.raises(ValueError):
        SpanRecorder(0)


def test_null_telemetry_refuses_spans():
    with pytest.raises(ValueError):
        NULL_TELEMETRY.attach_spans(SpanRecorder(2))


def test_cluster_span_clamps_inverted_window():
    recorder = SpanRecorder(2)
    recorder.cluster("heartbeat_miss", 2.0, 1.5)
    span = recorder.spans[-1]
    assert span.t0 == span.t1 == 1.5


def _case_spans(case, mode):
    """The span records of ``case`` sampled 1 in 10, recorded with nothing
    else listening (``spans``), beside an op log (``log``) or beside the
    full metrics hub (``telemetry``)."""
    sim = ClusterSimulator(
        registry.create(case.scheme), case.workload(), case.num_servers,
        case.sim_config(trace_sample=10),
        telemetry=Telemetry(enabled=mode == "telemetry"),
    )
    if mode == "log":
        sim.control.history = OpHistory()
    try:
        sim.run()
    finally:
        sim.close()
    return sim.spans.spans


@pytest.mark.parametrize("faults", [[], ["crash:1@ops=500", "recover:1@ops=1500"]],
                         ids=["fault-free", "faulted"])
def test_spans_are_the_same_whoever_else_listens(faults):
    """The replay feeds the span recorder itself: an op log or telemetry
    beside it changes no span (and the faulted case's retries reach it)."""
    case = CorpusCase(
        scheme="d2-tree", trace="dtr", nodes=2000, scale=3e-4, seed=7,
        num_servers=5, num_monitors=3, ops=3000, faults=faults,
    )
    alone = _case_spans(case, "spans")
    assert alone
    assert _case_spans(case, "log") == alone
    assert _case_spans(case, "telemetry") == alone
    retries = sum(1 for span in alone if span.name == "retry")
    assert (len(alone), retries) == ((2140, 24) if faults else (2124, 0))
