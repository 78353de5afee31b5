"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_generate_writes_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.tsv"
    code, out = run(
        capsys, "generate", "--trace", "lmbe", "--nodes", "600",
        "--scale", "1e-5", str(out_file),
    )
    assert code == 0
    assert out_file.exists()
    assert "operations" in out
    from repro.traces import load_trace

    trace = load_trace(out_file)
    assert len(trace) > 0


def test_evaluate_single_scheme(capsys):
    code, out = run(
        capsys, "evaluate", "--trace", "ra", "--nodes", "600",
        "--scale", "1e-5", "--servers", "4", "--scheme", "d2-tree",
    )
    assert code == 0
    assert "d2-tree" in out
    assert "balance=" in out


def test_evaluate_all_schemes(capsys):
    code, out = run(
        capsys, "evaluate", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--servers", "4",
    )
    assert code == 0
    for name in ("d2-tree", "static-subtree", "drop", "anglecut", "static-hash"):
        assert name in out


def test_simulate_scheme(capsys):
    code, out = run(
        capsys, "simulate", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--servers", "4", "--scheme", "d2-tree",
    )
    assert code == 0
    assert "ops/s" in out


def test_figure_csv_output(capsys):
    code, out = run(
        capsys, "figure", "fig6", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--sizes", "2", "4",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines[0] == "scheme,M=2,M=4"
    assert len(lines) == 1 + 6  # header + six schemes
    for line in lines[1:]:
        assert len(line.split(",")) == 3


def test_figure_fig7_runs(capsys):
    code, out = run(
        capsys, "figure", "fig7", "--trace", "lmbe", "--nodes", "600",
        "--scale", "1e-5", "--sizes", "3",
    )
    assert code == 0
    assert "d2-tree," in out


def test_stats_command(capsys):
    code, out = run(
        capsys, "stats", "--trace", "dtr", "--nodes", "600", "--scale", "1e-5",
    )
    assert code == 0
    assert "operations=" in out
    assert "zipf" in out


def test_stats_from_file(tmp_path, capsys):
    trace_file = tmp_path / "t.tsv"
    run(capsys, "generate", "--trace", "lmbe", "--nodes", "600",
        "--scale", "1e-5", str(trace_file))
    code, out = run(capsys, "stats", "--input", str(trace_file))
    assert code == 0
    assert "LMBE" in out


def test_stats_malformed_file_exits_2(tmp_path, capsys):
    """A bad trace file is a one-line error naming the line, not a traceback."""
    trace_file = tmp_path / "bad.tsv"
    trace_file.write_text("#trace\tx\t\n1.0\tread\t0\t/a\n2.0\tbogus\t0\t/a\n")
    code = main(["stats", "--input", str(trace_file)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 3: ")
    assert main(["stats", "--input", str(tmp_path / "absent.tsv")]) == 2


def test_figure_chart_mode(capsys):
    code, out = run(
        capsys, "figure", "fig6", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--sizes", "2", "4", "--chart",
    )
    assert code == 0
    assert "legend:" in out
    assert "d2-tree" in out


def test_invalid_scheme_rejected():
    with pytest.raises(SystemExit):
        main(["evaluate", "--scheme", "nonsense"])


def test_seed_changes_generated_trace(tmp_path, capsys):
    outputs = []
    for seed in ("1", "2"):
        out_file = tmp_path / f"t{seed}.tsv"
        run(capsys, "generate", "--trace", "dtr", "--nodes", "600",
            "--scale", "1e-5", "--seed", seed, str(out_file))
        outputs.append(out_file.read_text())
    assert outputs[0] != outputs[1]
    # Same seed reproduces the same bytes.
    repeat = tmp_path / "t1b.tsv"
    run(capsys, "generate", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--seed", "1", str(repeat))
    assert repeat.read_text() == outputs[0]


def test_evaluate_json_mode(capsys):
    import json

    code, out = run(
        capsys, "evaluate", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--servers", "4", "--scheme", "d2-tree", "--json",
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["scheme"] == "d2-tree"
    assert reports[0]["num_servers"] == 4
    assert len(reports[0]["loads"]) == 4


def test_simulate_json_mode(capsys):
    import json

    code, out = run(
        capsys, "simulate", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--servers", "4", "--scheme", "d2-tree", "--json",
    )
    assert code == 0
    results = json.loads(out)
    assert results[0]["scheme"] == "d2-tree"
    assert results[0]["throughput"] > 0
    assert set(results[0]["latency"]) == {
        "count", "mean", "p50", "p95", "p99", "max",
    }


def test_simulate_metrics_out_and_report(tmp_path, capsys):
    import json

    metrics = tmp_path / "run.jsonl"
    prom = tmp_path / "metrics.prom"
    code, _out = run(
        capsys, "simulate", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--servers", "4", "--scheme", "d2-tree",
        "--fault", "crash:1@ops=50", "--seed", "5",
        "--metrics-out", str(metrics), "--metrics-prom", str(prom),
    )
    assert code == 0
    records = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert records[0]["kind"] == "run"
    assert records[0]["seed"] == 5
    assert records[-1]["kind"] == "summary"
    names = {r.get("event") for r in records if r["kind"] == "event"}
    assert "fault_crash" in names and "failure_detected" in names
    assert "repro_ops_completed_total" in prom.read_text()

    code, out = run(capsys, "report", str(metrics),
                    "--csv", str(tmp_path / "rep"))
    assert code == 0
    assert "per-server load factor" in out
    assert "fault_crash" in out
    assert (tmp_path / "rep.samples.csv").exists()
    assert (tmp_path / "rep.events.csv").exists()


def test_report_missing_file(tmp_path, capsys):
    code = main(["report", str(tmp_path / "absent.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


_HEADER = '{"kind":"run","schema":2}'
_ROOT = ('{"kind":"span","span":"0","name":"client_submit","cat":"op",'
         '"op":0,"t0":0.0,"t1":0.002,"path":"/a"}')


@pytest.mark.parametrize("line", [
    "{not json",
    "[1,2]",
    '{"kind":"span","span":"0.1","name":"serve","cat":"service","op":0,'
    '"parent":"0"}',
    '{"kind":"event","event":"fault_crash","server":1}',
], ids=["not-json", "not-an-object", "span-without-times", "event-without-t"])
@pytest.mark.parametrize("output", [
    [], ["--critical-path"], ["--perfetto", "TRACE"],
], ids=["dashboard", "critical-path", "perfetto"])
def test_report_rejects_a_malformed_line(tmp_path, capsys, line, output):
    """Telemetry files are hostile input: a bad third line is an ``error:
    line 3: ...`` and exit 2 on every output, never a traceback."""
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([_HEADER, _ROOT, line]) + "\n")
    argv = [str(tmp_path / "t.json") if a == "TRACE" else a for a in output]
    code = main(["report", str(path), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: line 3: ")
    assert not (tmp_path / "t.json").exists()


def test_chaos_command_clean_run(capsys):
    code, out = run(
        capsys, "chaos", "--trace", "lmbe", "--nodes", "600",
        "--scale", "5e-5", "--servers", "4", "--seeds", "2", "--ops", "120",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("seed=0") and lines[1].startswith("seed=1")
    assert lines[-1].endswith("2/2 seeds clean")


def test_chaos_command_json(capsys):
    import json

    code, out = run(
        capsys, "chaos", "--trace", "lmbe", "--nodes", "600",
        "--scale", "5e-5", "--servers", "4", "--seeds", "1", "--ops", "120",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["seeds"] == 1
    case = payload["cases"][0]
    assert case["faults"] and case["violations"] == []
    # Every dumped fault spec round-trips through the --fault grammar.
    from repro.simulation import FaultPlan

    assert FaultPlan.parse(case["faults"]).to_specs() == case["faults"]


def test_simulate_partition_and_monitors_flags(capsys):
    import json

    code, out = run(
        capsys, "simulate", "--trace", "dtr", "--nodes", "600",
        "--scale", "1e-5", "--servers", "4", "--scheme", "d2-tree",
        "--monitors", "3", "--max-ops", "80", "--seed", "2",
        "--heartbeat-interval", "0.01", "--heartbeat-timeout", "0.03",
        "--monitor-lease-timeout", "0.05",
        "--fault", "partition:{0,1}|{2,3,m0}@ops=20",
        "--fault", "heal:*@ops=60", "--json",
    )
    assert code == 0
    results = json.loads(out)
    result = results[0] if isinstance(results, list) else results
    # 80 sliced ops, all accounted for despite the partition window.
    total = result["operations"] + result["availability"]["failed_operations"]
    assert total == 80


def test_simulate_rejects_invalid_fault_target(capsys):
    code = main([
        "simulate", "--trace", "dtr", "--nodes", "600", "--scale", "1e-5",
        "--servers", "4", "--scheme", "d2-tree",
        "--fault", "crash:9@ops=50",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "crash:9@ops=50" in err


def test_simulate_trace_sample_and_critical_path_report(tmp_path, capsys):
    import json

    metrics = tmp_path / "spans.jsonl"
    argv = (
        "simulate", "--trace", "dtr", "--nodes", "600", "--scale", "1e-5",
        "--servers", "4", "--scheme", "d2-tree", "--seed", "5",
        "--trace-sample", "10", "--metrics-out", str(metrics),
    )
    code, _out = run(capsys, *argv)
    assert code == 0
    records = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert records[0]["kind"] == "run"
    assert records[0]["trace_sample"] == 10
    assert any(r["kind"] == "span" for r in records)

    perfetto = tmp_path / "trace.json"
    critical = tmp_path / "critical.json"
    code, out = run(
        capsys, "report", str(metrics), "--critical-path",
        "--critical-json", str(critical), "--perfetto", str(perfetto),
    )
    assert code == 0
    assert "latency components" in out
    analysis = json.loads(critical.read_text())
    assert analysis["ops"] > 0
    assert sum(analysis["components_seconds"].values()) == pytest.approx(
        analysis["total_end_to_end_seconds"]
    )
    trace = json.loads(perfetto.read_text())
    phases = [e["ph"] for e in trace["traceEvents"]]
    assert phases.count("B") == phases.count("E") > 0

    # Identical invocation -> byte-identical span stream and report.
    rerun_metrics = tmp_path / "spans2.jsonl"
    argv2 = argv[:-1] + (str(rerun_metrics),)
    code, _out = run(capsys, *argv2)
    assert code == 0
    assert rerun_metrics.read_text() == metrics.read_text()
    code, out2 = run(capsys, "report", str(rerun_metrics), "--critical-path")
    assert code == 0
    assert out2 == out


def test_simulate_trace_sample_keeps_columnar_output_identical(
    tmp_path, capsys
):
    base = (
        "simulate", "--trace", "dtr", "--nodes", "600", "--scale", "1e-5",
        "--servers", "4", "--scheme", "d2-tree", "--seed", "5", "--json",
    )
    code, plain = run(capsys, *base)
    assert code == 0
    code, sampled = run(
        capsys, *base, "--trace-sample", "25",
        "--metrics-out", str(tmp_path / "tel.jsonl"),
    )
    assert code == 0
    assert sampled == plain


@pytest.mark.parametrize("verb", [["chaos"], ["hunt", "--no-shrink"]],
                         ids=["chaos", "hunt"])
def test_replay_line_reproduces_the_verdict(verb, monkeypatch, capsys):
    """Every verdict prints one `repro chaos ...` line, and running that
    line reproduces it: same exit code, same violation text. The planted
    violation fingerprints the run, so a replay that rebuilt a different
    workload or schedule would report a different string."""
    import shlex

    from repro.chaos import harness

    def fingerprint(control, ops, ledgers=None):
        return [
            f"planted: ops={ops} acked={control.history.counts()['ok']} "
            f"retries={control.availability.retries} "
            f"epoch={control.monitor.epoch} "
            f"dropped={control.network.messages_dropped}"
        ]

    monkeypatch.setattr(harness, "check_run", fingerprint)

    def verdict(argv):
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        planted = [line for line in err if "planted: " in line]
        replays = [l.split("replay: ", 1)[1] for l in err if "replay: " in l]
        return code, planted, replays

    code, planted, replays = verdict([
        *verb, "--trace", "lmbe", "--nodes", "600", "--scale", "5e-5",
        "--servers", "4", "--seeds", "1", "--seed-base", "3", "--ops", "120",
        "--store", "wal",
    ])
    assert code == 1 and len(planted) == 1 and len(replays) == 1
    argv = shlex.split(replays[0])
    assert argv[:2] == ["repro", "chaos"]
    args = build_parser().parse_args(argv[1:])  # SystemExit on a stale flag
    assert (args.seed_base, args.seeds, args.ops) == (3, 1, 120)
    assert (args.servers, args.monitors, args.store) == (4, 3, "wal")
    assert len(args.fault) == argv.count("--fault") > 0
    assert verdict(argv[1:]) == (1, planted, replays)


@pytest.mark.parametrize("argv", [
    ["bench"],
    ["simulate", "--routing-engine", "fast"],
    ["chaos", "--routing-engine", "fast"],
    ["hunt", "--trends", "trends.jsonl"],
    ["simulate", "--store", "sqlite"],
    ["simulate", "--simulate-engine", "perop"],
    ["simulate", "--batch-size", "1"],
    ["chaos", "--history"],
])
def test_retired_verbs_and_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--max-ops", "-5"], "--max-ops must be at least 1, not -5"),
    (["serve", "--max-ops", "0"], "--max-ops must be at least 1, not 0"),
    (["validate", "--max-ops", "-5"], "--max-ops must be at least 1, not -5"),
    (["chaos", "--ops", "-5"], "--ops must be at least 1, not -5"),
    (["hunt", "--ops", "0"], "--ops must be at least 1, not 0"),
    (["serve", "--rate", "-5"], "--rate must be positive, not -5.0"),
    (["validate", "--rate", "0"], "--rate must be positive, not 0.0"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_an_op_count_or_rate_no_run_can_have_exits_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--trace-sample", "-1"],
     "--trace-sample must be at least 0, not -1"),
    (["chaos", "--trace-sample", "-1"],
     "--trace-sample must be at least 0, not -1"),
    (["chaos", "--seeds", "-2"], "--seeds must be at least 1, not -2"),
    (["chaos", "--seeds", "0"], "--seeds must be at least 1, not 0"),
    (["hunt", "--seeds", "-2"], "--seeds must be at least 1, not -2"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_a_negative_trace_sample_or_seed_count_exits_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ----------------------------------------------------------------------
# The flag surface: no flag added, removed, renamed or re-defaulted
# ----------------------------------------------------------------------
#: Every verb's flags as (option strings, dest, default), sorted.
FLAG_SURFACE = {
    'chaos': [
        ('--fault', 'fault', []),
        ('--json', 'json', False),
        ('--monitors', 'monitors', 3),
        ('--nodes', 'nodes', 8000),
        ('--ops', 'ops', None),
        ('--scale', 'scale', 0.0001),
        ('--scheme', 'scheme', 'd2-tree'),
        ('--seed', 'seed', None),
        ('--seed-base', 'seed_base', 0),
        ('--seeds', 'seeds', 20),
        ('--servers', 'servers', 6),
        ('--store', 'store', 'memory'),
        ('--store-dir', 'store_dir', None),
        ('--trace', 'trace', 'dtr'),
        ('--trace-sample', 'trace_sample', 0),
    ],
    'evaluate': [
        ('--json', 'json', False),
        ('--nodes', 'nodes', 8000),
        ('--rebalance-rounds', 'rebalance_rounds', 0),
        ('--scale', 'scale', 0.0001),
        ('--scheme', 'scheme', None),
        ('--seed', 'seed', None),
        ('--servers', 'servers', 8),
        ('--trace', 'trace', 'dtr'),
    ],
    'figure': [
        ('--chart', 'chart', False),
        ('--nodes', 'nodes', 8000),
        ('--scale', 'scale', 0.0001),
        ('--seed', 'seed', None),
        ('--sizes', 'sizes', [5, 10, 20, 30]),
        ('--trace', 'trace', 'dtr'),
        ('name', 'name', None),
    ],
    'generate': [
        ('--nodes', 'nodes', 8000),
        ('--scale', 'scale', 0.0001),
        ('--seed', 'seed', None),
        ('--trace', 'trace', 'dtr'),
        ('output', 'output', None),
    ],
    'hunt': [
        ('--json', 'json', False),
        ('--live', 'live', False),
        ('--max-probes', 'max_probes', 200),
        ('--monitors', 'monitors', 3),
        ('--no-shrink', 'no_shrink', False),
        ('--nodes', 'nodes', 8000),
        ('--ops', 'ops', None),
        ('--promote', 'promote', None),
        ('--scale', 'scale', 0.0001),
        ('--scheme', 'scheme', 'd2-tree'),
        ('--seed', 'seed', None),
        ('--seed-base', 'seed_base', 0),
        ('--seeds', 'seeds', 20),
        ('--servers', 'servers', 6),
        ('--socket-dir', 'socket_dir', None),
        ('--store', 'store', 'memory'),
        ('--store-dir', 'store_dir', None),
        ('--trace', 'trace', 'dtr'),
    ],
    'report': [
        ('--critical-json', 'critical_json', None),
        ('--critical-path', 'critical_path', False),
        ('--csv', 'csv', None),
        ('--events', 'events', 20),
        ('--perfetto', 'perfetto', None),
        ('--width', 'width', 48),
        ('input', 'input', None),
    ],
    'serve': [
        ('--fault', 'fault', []),
        ('--heartbeat-interval', 'heartbeat_interval', None),
        ('--heartbeat-timeout', 'heartbeat_timeout', None),
        ('--json', 'json', False),
        ('--max-ops', 'max_ops', None),
        ('--max-retries', 'max_retries', None),
        ('--monitors', 'monitors', 3),
        ('--nodes', 'nodes', 8000),
        ('--rate', 'rate', 2000.0),
        ('--request-timeout', 'request_timeout', None),
        ('--scale', 'scale', 0.0001),
        ('--scheme', 'scheme', 'd2-tree'),
        ('--seed', 'seed', None),
        ('--servers', 'servers', 3),
        ('--socket-dir', 'socket_dir', None),
        ('--trace', 'trace', 'dtr'),
        ('--transport', 'transport', 'unix'),
    ],
    'simulate': [
        ('--fault', 'fault', []),
        ('--heartbeat-interval', 'heartbeat_interval', None),
        ('--heartbeat-timeout', 'heartbeat_timeout', None),
        ('--json', 'json', False),
        ('--max-ops', 'max_ops', None),
        ('--max-retries', 'max_retries', None),
        ('--metrics-out', 'metrics_out', None),
        ('--metrics-prom', 'metrics_prom', None),
        ('--monitor-lease-timeout', 'monitor_lease_timeout', None),
        ('--monitors', 'monitors', None),
        ('--no-op-events', 'cluster_only', False),
        ('--nodes', 'nodes', 8000),
        ('--scale', 'scale', 0.0001),
        ('--scheme', 'scheme', None),
        ('--seed', 'seed', None),
        ('--servers', 'servers', 8),
        ('--store', 'store', None),
        ('--store-dir', 'store_dir', None),
        ('--trace', 'trace', 'dtr'),
        ('--trace-sample', 'trace_sample', None),
    ],
    'stats': [
        ('--input', 'input', None),
        ('--nodes', 'nodes', 8000),
        ('--scale', 'scale', 0.0001),
        ('--seed', 'seed', None),
        ('--trace', 'trace', 'dtr'),
    ],
    'validate': [
        ('--fault', 'fault', []),
        ('--heartbeat-interval', 'heartbeat_interval', None),
        ('--heartbeat-timeout', 'heartbeat_timeout', None),
        ('--max-ops', 'max_ops', None),
        ('--max-retries', 'max_retries', None),
        ('--monitors', 'monitors', 3),
        ('--nodes', 'nodes', 8000),
        ('--out', 'out', None),
        ('--rate', 'rate', 2000.0),
        ('--request-timeout', 'request_timeout', None),
        ('--scale', 'scale', 0.0001),
        ('--scheme', 'scheme', 'd2-tree'),
        ('--seed', 'seed', None),
        ('--servers', 'servers', 3),
        ('--socket-dir', 'socket_dir', None),
        ('--trace', 'trace', 'dtr'),
        ('--transport', 'transport', 'unix'),
    ],
}


def flag_surface():
    import argparse

    parser = build_parser()
    verbs = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    return {
        verb: sorted(
            (" ".join(action.option_strings) or action.dest, action.dest,
             action.default)
            for action in verbs[verb]._actions
            if not isinstance(action, argparse._HelpAction)
        )
        for verb in sorted(verbs)
    }


def test_every_verbs_flag_surface_is_pinned():
    assert flag_surface() == FLAG_SURFACE
