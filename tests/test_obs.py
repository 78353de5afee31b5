"""Tests for the telemetry subsystem (repro.obs)."""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_TELEMETRY,
    GaugeSampler,
    MetricsRegistry,
    Telemetry,
    events_to_csv,
    prometheus_text,
    read_jsonl,
    render_dashboard,
    samples_to_csv,
    split_runs,
    write_jsonl,
)
from repro.viz import sparkline


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_counter_increments_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("ops", help="operations")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert registry.help_text("ops") == "operations"


def test_gauge_set_keeps_the_last_value():
    gauge = MetricsRegistry().gauge("depth")
    gauge.set(4)
    gauge.set(2.5)
    assert gauge.value == 2.5


def test_histogram_buckets_cumulate():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == pytest.approx(6.05)
    assert hist.cumulative() == [(0.1, 1), (1.0, 3), (float("inf"), 4)]


def test_registry_caches_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("retries", server=3)
    b = registry.counter("retries", server=3)
    c = registry.counter("retries", server=4)
    assert a is b
    assert a is not c
    assert len(list(registry.collect())) == 2


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_collect_is_sorted():
    registry = MetricsRegistry()
    registry.gauge("zeta")
    registry.gauge("alpha", server=1)
    registry.gauge("alpha", server=0)
    names = [(m.name, m.labels) for m in registry.collect()]
    assert names == sorted(names)


# ----------------------------------------------------------------------
# Telemetry hub
# ----------------------------------------------------------------------
def test_event_stamps_with_pushed_clock():
    telemetry = Telemetry()
    telemetry.set_time(1.5)
    telemetry.event("fault_crash", server=2)
    telemetry.event("late", t=9.0)
    assert telemetry.events[0].t == 1.5
    assert telemetry.events[0].to_record() == {
        "kind": "event", "t": 1.5, "event": "fault_crash", "server": 2,
    }
    assert telemetry.events[1].t == 9.0


_SMALL_FAULTED = [
    "simulate", "--trace", "dtr", "--nodes", "600", "--scale", "1e-4",
    "--scheme", "d2-tree", "--seed", "3", "--servers", "4",
    "--fault", "crash:1@ops=100", "--fault", "loss:2@ops=200:p0.5",
    "--fault", "recover:2@ops=500", "--max-retries", "2",
]


def test_no_op_events_only_drops_the_op_lines(tmp_path, capsys):
    """``--no-op-events`` filters the export: the file is the default one
    minus its ``op_*`` event lines, byte for byte."""
    from repro.cli import main

    full, quiet = tmp_path / "full.jsonl", tmp_path / "quiet.jsonl"
    assert main([*_SMALL_FAULTED, "--metrics-out", str(full)]) == 0
    assert main([
        *_SMALL_FAULTED, "--metrics-out", str(quiet), "--no-op-events",
    ]) == 0
    lines = full.read_text().splitlines()
    kept = [
        line for line in lines
        if not json.loads(line).get("event", "").startswith("op_")
    ]
    names = {json.loads(line).get("event") for line in lines}
    assert {"op_start", "op_retry", "op_complete", "op_failed"} <= names
    assert len(kept) < len(lines)
    assert quiet.read_text().splitlines() == kept


def test_record_sample_nullifies_non_finite():
    telemetry = Telemetry()
    telemetry.record_sample(0.1, "balance", float("inf"))
    telemetry.record_sample(0.2, "balance", float("nan"))
    telemetry.record_sample(0.3, "balance", 2.0, server=1)
    values = [s.value for s in telemetry.samples]
    assert values == [None, None, 2.0]
    assert telemetry.samples[2].labels == (("server", "1"),)


def test_iter_records_header_and_merge_order():
    telemetry = Telemetry(run_info={"scheme": "d2-tree", "seed": 7})
    telemetry.set_time(0.5)
    telemetry.event("b")
    telemetry.record_sample(0.2, "g", 1.0)
    telemetry.event("a", t=0.2)  # same t as the sample, later seq
    records = list(telemetry.iter_records())
    assert records[0] == {"kind": "run", "schema": 2,
                          "scheme": "d2-tree", "seed": 7}
    assert [(r["kind"], r["t"]) for r in records[1:]] == [
        ("sample", 0.2), ("event", 0.2), ("event", 0.5),
    ]


def series(telemetry, name, labels=()):
    """``[(t, value), ...]`` of one gauge's samples under one label set."""
    return [(s.t, s.value) for s in telemetry.samples if s.name == name and s.labels == labels]


def test_sample_series_groups_by_labels():
    telemetry = Telemetry()
    telemetry.record_sample(0.1, "load", 1.0, server=0)
    telemetry.record_sample(0.1, "load", 2.0, server=1)
    telemetry.record_sample(0.2, "load", 3.0, server=0)
    assert series(telemetry, "load", (("server", "0"),)) == [(0.1, 1.0), (0.2, 3.0)]
    assert series(telemetry, "load", (("server", "1"),)) == [(0.1, 2.0)]


def test_null_telemetry_is_inert():
    NULL_TELEMETRY.event("anything", server=1)
    NULL_TELEMETRY.record_sample(0.0, "g", 1.0)
    assert NULL_TELEMETRY.events == []
    assert NULL_TELEMETRY.samples == []
    assert not NULL_TELEMETRY.enabled


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
def test_sampler_scalar_and_vector_probes():
    telemetry = Telemetry()
    sampler = GaugeSampler(telemetry)
    sampler.add("balance", lambda: 0.5)
    sampler.add_vector("load", lambda: [1.0, 2.0], "server")
    sampler.snapshot(0.1)
    sampler.snapshot(0.2)
    assert sampler.snapshots == 2
    assert series(telemetry, "balance") == [(0.1, 0.5), (0.2, 0.5)]
    assert series(telemetry, "load", (("server", "1"),)) == [(0.1, 2.0), (0.2, 2.0)]
    # The registry mirror holds the latest grid value.
    assert telemetry.registry.gauge("load", server=0).value == 1.0


def test_sampler_disabled_registers_nothing():
    sampler = GaugeSampler(NULL_TELEMETRY)
    sampler.add("balance", lambda: 1 / 0)  # would raise if ever called
    sampler.snapshot(0.1)
    assert sampler.snapshots == 0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _tiny_telemetry():
    telemetry = Telemetry(run_info={"scheme": "t"})
    telemetry.set_time(0.1)
    telemetry.event("fault_crash", server=2)
    telemetry.record_sample(0.2, "load", 1.5, server=0)
    return telemetry


def test_jsonl_round_trip_with_summary(tmp_path):
    path = tmp_path / "run.jsonl"
    count = write_jsonl(_tiny_telemetry(), path, summary={"throughput": 9.0})
    records = read_jsonl(path)
    assert count == len(records) == 4
    assert [r["kind"] for r in records] == ["run", "event", "sample", "summary"]
    assert records[3]["throughput"] == 9.0


def test_jsonl_append_keeps_both_runs(tmp_path):
    path = tmp_path / "runs.jsonl"
    write_jsonl(_tiny_telemetry(), path)
    write_jsonl(_tiny_telemetry(), path, append=True)
    runs = split_runs(read_jsonl(path))
    assert len(runs) == 2
    assert all(run[0]["kind"] == "run" for run in runs)


def test_jsonl_lines_are_sorted_key_json():
    buffer = io.StringIO()
    write_jsonl(_tiny_telemetry(), buffer)
    for line in buffer.getvalue().splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))


def test_csv_exports():
    records = list(_tiny_telemetry().iter_records())
    samples = io.StringIO()
    events = io.StringIO()
    assert samples_to_csv(records, samples) == 1
    assert events_to_csv(records, events) == 1
    sample_lines = samples.getvalue().splitlines()
    assert sample_lines[0] == "t,name,labels,value"
    assert sample_lines[1] == "0.2,load,server=0,1.5"
    event_lines = events.getvalue().splitlines()
    assert event_lines[0] == "t,event,op,fields"
    assert event_lines[1].startswith("0.1,fault_crash,")


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.counter("ops", help="completed ops").inc(3)
    registry.gauge("load", server=0).set(1.5)
    hist = registry.histogram("lat", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(5.0)
    text = prometheus_text(registry)
    assert "# HELP repro_ops_total completed ops" in text
    assert "# TYPE repro_ops_total counter" in text
    assert "repro_ops_total 3" in text
    assert 'repro_load{server="0"} 1.5' in text
    assert 'repro_lat_bucket{le="0.1"} 1' in text
    assert 'repro_lat_bucket{le="+Inf"} 2' in text
    assert "repro_lat_sum 5.05" in text
    assert "repro_lat_count 2" in text


def test_prometheus_empty_registry():
    assert prometheus_text(MetricsRegistry()) == ""


def test_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
def test_split_runs_handles_headerless_stream():
    records = [{"kind": "sample", "t": 0.0, "name": "g", "value": 1.0}]
    runs = split_runs(records)
    assert len(runs) == 1 and runs[0] == records


def test_render_dashboard_sections():
    telemetry = Telemetry(run_info={"scheme": "d2-tree"})
    telemetry.set_time(0.1)
    telemetry.event("fault_crash", server=2)
    for i, t in enumerate((0.1, 0.2, 0.3)):
        telemetry.record_sample(t, "load_factor", float(i), server=0)
        telemetry.record_sample(t, "balance_degree", 0.5)
    records = list(telemetry.iter_records())
    records.append({"kind": "summary", "throughput": 100.0,
                    "latency": {"p50": 0.01, "p95": 0.02, "p99": 0.03}})
    text = render_dashboard(records)
    assert "run: scheme=d2-tree" in text
    assert "per-server load factor" in text
    assert "server=0" in text
    assert "balance_degree" in text
    assert "fault_crash=1" in text
    assert "timeline" in text
    assert "p50=10.00ms" in text


def test_render_dashboard_truncates_timeline():
    telemetry = Telemetry()
    for i in range(30):
        telemetry.event("fault_crash", t=float(i), server=i)
    text = render_dashboard(list(telemetry.iter_records()), max_timeline=5)
    assert "... 25 more" in text


# ----------------------------------------------------------------------
# Sparkline
# ----------------------------------------------------------------------
def test_sparkline_ramp_and_flat():
    ramp = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
    assert len(ramp) == 4
    assert ramp[0] == "▁" and ramp[-1] == "█"
    flat = sparkline([5.0, 5.0, 5.0], width=3)
    assert flat == "▁▁▁"
    assert sparkline([], width=4) == ""


def test_sparkline_resamples_long_series():
    values = [float(i) for i in range(100)]
    spark = sparkline(values, width=10)
    assert len(spark) == 10
    assert spark[0] == "▁" and spark[-1] == "█"


# ----------------------------------------------------------------------
# End-to-end determinism: same seed -> identical telemetry bytes
# ----------------------------------------------------------------------
def _replay_telemetry():
    from repro.core import D2TreeScheme
    from repro.simulation import FaultPlan, SimulationConfig, simulate
    from repro.traces import DatasetProfile, load_workload

    workload = load_workload(DatasetProfile.dtr(num_nodes=600, scale=1e-5))
    config = SimulationConfig(fault_plan=FaultPlan.parse(["crash:1@ops=50"]))
    telemetry = Telemetry(run_info={"scheme": "d2-tree", "seed": 0})
    simulate(D2TreeScheme(), workload, 4, config, telemetry=telemetry)
    buffer = io.StringIO()
    write_jsonl(telemetry, buffer)
    return buffer.getvalue()


def test_telemetry_is_deterministic_across_runs():
    assert _replay_telemetry() == _replay_telemetry()


def test_telemetry_bytes_do_not_depend_on_the_allocator(tmp_path):
    """Two processes whose objects sit at different addresses (pymalloc vs
    the C allocator) write the same JSONL, samples and ``mu`` included: no
    float in it is summed in the order of an address-hashed set."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    outputs = []
    for name, malloc in (("pymalloc.jsonl", None), ("malloc.jsonl", "malloc")):
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        env.pop("PYTHONMALLOC", None)
        if malloc:
            env["PYTHONMALLOC"] = malloc
        subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "--trace", "ra",
             "--nodes", "1500", "--scale", "3e-5", "--scheme", "d2-tree",
             "--seed", "7", "--store", "wal", "--trace-sample", "10",
             "--metrics-out", str(tmp_path / name)],
            check=True, env=env, capture_output=True,
        )
        outputs.append((tmp_path / name).read_bytes())
    assert b'"adjust_round"' in outputs[0] and b'"load_factor"' in outputs[0]
    assert outputs[0] == outputs[1]


def test_replay_emits_fault_lifecycle_events():
    stream = _replay_telemetry()
    events = [json.loads(line) for line in stream.splitlines()]
    names = {e.get("event") for e in events if e["kind"] == "event"}
    assert "fault_crash" in names
    assert "failure_detected" in names
    assert "heartbeat_round" in names
    crash = next(e for e in events if e.get("event") == "fault_crash")
    detected = next(e for e in events if e.get("event") == "failure_detected")
    assert detected["t"] > crash["t"]
    assert detected["latency"] == pytest.approx(detected["t"] - crash["t"])
    # load_factor series exists for every server
    servers = {
        e["labels"]["server"]
        for e in events
        if e["kind"] == "sample" and e["name"] == "load_factor"
    }
    assert servers == {"0", "1", "2", "3"}


def test_disabled_telemetry_matches_untraced_run():
    from repro.core import D2TreeScheme
    from repro.simulation import simulate
    from repro.traces import DatasetProfile, load_workload

    workload = load_workload(DatasetProfile.dtr(num_nodes=600, scale=1e-5))
    plain = simulate(D2TreeScheme(), workload, 4)
    traced = simulate(D2TreeScheme(), workload, 4, telemetry=Telemetry())
    assert plain.throughput == traced.throughput
    assert plain.latency == traced.latency
    assert plain.server_visits == traced.server_visits


# ----------------------------------------------------------------------
# Context-manager exporters
# ----------------------------------------------------------------------
def test_jsonl_exporter_flushes_on_exception(tmp_path):
    from repro.obs import JsonlExporter

    telemetry = Telemetry()
    telemetry.event("fault_crash", t=0.5, server=1)
    path = tmp_path / "partial.jsonl"
    with pytest.raises(RuntimeError):
        with JsonlExporter(telemetry, str(path)) as exporter:
            raise RuntimeError("mid-run crash")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["kind"] == "run"
    assert any(r.get("event") == "fault_crash" for r in records)
    # The summary was never reached, so no summary record was written.
    assert all(r["kind"] != "summary" for r in records)
    assert exporter.count == len(records)


def test_jsonl_exporter_writes_summary_and_appends(tmp_path):
    from repro.obs import JsonlExporter

    path = tmp_path / "runs.jsonl"
    for run_index in range(2):
        telemetry = Telemetry()
        with JsonlExporter(
            telemetry, str(path), append=run_index > 0
        ) as exporter:
            exporter.set_summary({"throughput": float(run_index)})
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["kind"] for r in records].count("run") == 2
    assert [r["kind"] for r in records].count("summary") == 2
