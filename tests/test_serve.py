"""The one-call entry points: ``serve_workload`` and ``validate_transports``.

Two contracts of the glue around the cluster and the load generator: the
acked-set check of ``repro validate`` compares like with like when the
simulation fails operations, and a fault plan stops with the load however
the load ended.
"""

import asyncio
import dataclasses
import json
import types

import pytest

from repro import registry
from repro.chaos import CorpusCase
from repro.cli import main
from repro.simulation.faults import FaultPlan
from repro.traces import DatasetProfile, load_workload
from repro.transport import serve
from repro.transport.live import LiveCluster, LiveConfig, ServeReport
from repro.transport.loadgen import LoadConfig, LoadGenerator
from tests.history_sink import HistorySink


RECIPE = CorpusCase(
    scheme="d2-tree", trace="dtr", nodes=300, scale=1e-5, seed=7,
    num_servers=4, num_monitors=3, faults=[],
)


def _live(acked):
    return ServeReport(
        scheme="d2-tree", trace="dtr", num_servers=4, num_monitors=3,
        transport="unix", operations=100, acked=acked, failed=100 - acked,
        retries=0, redirects=0, duration=1.0, throughput=float(acked),
        latency={"mean": 1e-4, "p50": 1e-4, "p95": 2e-4, "p99": 3e-4},
        per_server_served=[acked, 0, 0, 0], epoch=1, failovers=0,
        fenced_directives=0, aborted_directives=0, journal_entries=1,
        messages_dropped=0, messages_delayed=0,
    )


def _simulated(completed, failed):
    """A simulation result of 100 ops, ``failed`` of them failed:
    ``operations`` counts the completed ones only."""
    return types.SimpleNamespace(
        operations=completed, failed_operations=failed, mean_jumps=0.1,
        throughput=1000.0, makespan=0.1,
        latency=types.SimpleNamespace(mean=1e-3),
    )


@pytest.mark.parametrize("live_acked, matches", [(95, True), (90, False)])
def test_a_failed_simulated_op_is_not_subtracted_twice(
    monkeypatch, live_acked, matches
):
    monkeypatch.setattr(serve, "serve_workload", lambda *args: _live(live_acked))
    monkeypatch.setattr(serve, "simulate", lambda *args: _simulated(95, 5))
    comparison = serve.validate_transports(RECIPE)
    assert comparison["simulated"]["operations"] == 95
    assert comparison["simulated"]["failed"] == 5
    assert comparison["delta"]["acked_matches"] is matches


def test_validate_reports_a_mismatch_against_the_completed_simulated_ops(
    monkeypatch, capsys
):
    comparison = {
        "scheme": "d2-tree", "trace": "dtr", "num_servers": 4,
        "num_monitors": 3, "operations": 100, "faults": [],
        "live": _live(90).to_dict(),
        "simulated": {
            "operations": 95, "failed": 5, "throughput": 1000.0,
            "latency_mean": 1e-3, "makespan": 0.1,
        },
        "delta": {
            "throughput_ratio": 0.09, "latency_ratio": 0.1,
            "hops_per_op": {"live": 1.0, "simulated": 1.1},
            "hops_ratio": 0.91, "acked_matches": False,
        },
        "ok": True, "violations": [],
    }
    monkeypatch.setattr(serve, "validate_transports", lambda *args: comparison)
    code = main([
        "validate", "--trace", "dtr", "--nodes", "600", "--scale", "1e-5",
        "--servers", "4",
    ])
    assert code == 1
    assert "live acked 90 vs simulated 95" in capsys.readouterr().err


def _spy_legs(monkeypatch):
    """Record the configs each leg of ``validate_transports`` runs."""
    legs = {}

    def live(scheme, workload, live_cfg, load_cfg, plan):
        legs.update(live=live_cfg, load=load_cfg, live_plan=plan)
        return _live(100)

    def simulated(scheme, workload, num_servers, config):
        legs.update(sim=config, sim_servers=num_servers)
        return _simulated(100, 0)

    monkeypatch.setattr(serve, "serve_workload", live)
    monkeypatch.setattr(serve, "simulate", simulated)
    return legs


def test_validate_runs_both_legs_on_one_recipe(monkeypatch):
    legs = _spy_legs(monkeypatch)
    recipe = dataclasses.replace(
        RECIPE, seed=11, num_monitors=5, heartbeat_interval=0.02,
        heartbeat_timeout=0.09, lease_timeout=0.2, max_retries=4,
        faults=["crash:1@ops=10", "recover:1@ops=50"],
    )
    comparison = serve.validate_transports(recipe)
    live, load, sim = legs["live"], legs["load"], legs["sim"]
    assert live.seed == load.seed == sim.seed == 11
    assert live.num_monitors == sim.num_monitors == 5
    assert live.num_servers == legs["sim_servers"] == 4
    assert (live.heartbeat_interval, live.heartbeat_timeout,
            live.lease_timeout) == (0.02, 0.09, 0.2)
    assert (sim.heartbeat_interval, sim.heartbeat_timeout,
            sim.monitor_lease_timeout) == (0.02, 0.09, 0.2)
    assert load.max_retries == sim.max_retries == 4
    assert legs["live_plan"].to_specs() == sim.fault_plan.to_specs()
    assert sim.fault_plan.to_specs() == recipe.faults
    assert sim.adjust_every_ops == 0  # live mode does not rebalance mid-run
    assert CorpusCase.from_dict(comparison["recipe"]) == recipe
    # The recipe's live-only defaults are the live configs' own.
    assert (RECIPE.request_timeout, RECIPE.transport) == (
        LoadConfig.request_timeout, LiveConfig.transport,
    )


@pytest.mark.parametrize("flags, clocks, retries", [
    ([], (0.05, 0.25), 16),
    (["--heartbeat-interval", "0.02", "--heartbeat-timeout", "0.09",
      "--max-retries", "4"], (0.02, 0.09), 4),
], ids=["defaults", "flags"])
def test_validate_flags_reach_both_legs(
    monkeypatch, tmp_path, capsys, flags, clocks, retries
):
    legs = _spy_legs(monkeypatch)
    out = tmp_path / "validate.json"
    assert main([
        "validate", "--trace", "dtr", "--nodes", "300", "--scale", "1e-5",
        "--servers", "4", "--seed", "11", *flags, "--out", str(out),
    ]) == 0
    live, load, sim = legs["live"], legs["load"], legs["sim"]
    assert live.seed == load.seed == sim.seed == 11
    assert live.num_monitors == sim.num_monitors == 3
    assert (live.heartbeat_interval, live.heartbeat_timeout) == clocks
    assert (sim.heartbeat_interval, sim.heartbeat_timeout) == clocks
    assert load.max_retries == sim.max_retries == retries
    recipe = CorpusCase.from_dict(json.loads(out.read_text())["recipe"])
    assert (recipe.seed, recipe.max_retries) == (11, retries)
    assert f"max-retries {retries}" in capsys.readouterr().out


def test_a_fault_plan_stops_when_the_load_raises(monkeypatch):
    """The load generator fails while the plan still has an event to
    fire: the plan is cancelled and awaited before the cluster stops."""
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=600, scale=1e-4), seed=7
    )
    bundle = load_workload(profile.scaled(num_operations=200))
    workload = dataclasses.replace(bundle, trace=bundle.trace.slice(0, 200))
    plans_at_stop = []
    stop = LiveCluster.stop

    async def failing_run(generator):
        await asyncio.sleep(0.05)  # the plan is polling by now
        raise RuntimeError("load failed")

    async def recording_stop(cluster):
        plans_at_stop.extend(
            task for task in asyncio.all_tasks()
            if task.get_coro().__qualname__ == "LiveCluster.run_fault_plan"
            and not task.done()
        )
        await stop(cluster)

    monkeypatch.setattr(LoadGenerator, "run", failing_run)
    monkeypatch.setattr(LiveCluster, "stop", recording_stop)
    with pytest.raises(RuntimeError, match="load failed"):
        serve.serve_workload(
            registry.create("d2-tree"), workload,
            LiveConfig(num_servers=4, num_monitors=3, seed=7),
            LoadConfig(rate=1e6, seed=7),
            FaultPlan.parse(["crash:1@ops=100000"]),
        )
    assert plans_at_stop == []


def test_load_report_outcomes_are_views_of_the_history(monkeypatch):
    """After a faulted serve, the load report's acked and indeterminate
    ids, latencies (ok.t - invoke.t, in ack order), failures, retries and
    redirects — read off the op log's fold — are exactly what a
    keep-everything sink heard, and so are the numbers the serve report
    prints."""
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=600, scale=1e-4), seed=7
    )
    bundle = load_workload(profile.scaled(num_operations=600))
    workload = dataclasses.replace(bundle, trace=bundle.trace.slice(0, 600))
    loads, sinks = [], []
    run = LoadGenerator.run

    async def capturing_run(generator):
        sinks.append(HistorySink())
        generator.history.listen(sinks[-1])
        loads.append(await run(generator))
        return loads[-1]

    monkeypatch.setattr(LoadGenerator, "run", capturing_run)
    report = serve.serve_workload(
        registry.create("d2-tree"), workload,
        LiveConfig(num_servers=4, num_monitors=3, seed=7),
        LoadConfig(rate=4000.0, seed=7, request_timeout=0.05),
        FaultPlan.parse(["crash:1@ops=150", "recover:1@ops=400"]),
    )
    assert report.ok and len(report.faults) == 2
    (load,), (sink,) = loads, sinks
    records = sink.events
    invoked = {r.op_id: r for r in records if r.kind == "invoke"}
    acks = [r for r in records if r.kind == "ok"]

    def count(kind):
        return sum(1 for r in records if r.kind == kind)

    assert (load.acked, load.indeterminate) == (len(acks), count("indeterminate"))
    assert list(load.latencies) == [r.t - invoked[r.op_id].t for r in acks]
    assert load.redirects == sum(r.jumps for r in records if r.kind != "invoke")
    assert (load.failed, load.retries) == (count("fail"), count("retry"))
    assert load.retries > 0  # the crash reached the clients
    # Each invoke names its trace record.
    assert sorted(
        (r.op_id, r.path, r.op) for r in invoked.values()
    ) == [(i, r.path, r.op.value) for i, r in enumerate(workload.trace)]
    assert (report.acked, report.failed, report.indeterminate) == (
        len(acks), count("fail"), count("indeterminate"),
    )
    assert report.retries == count("retry")


def test_a_live_heartbeat_timeout_under_two_intervals_is_refused():
    """A Monitor round that lands just before a beat sees every server
    silent for almost one interval past its last beat, so a timeout under
    two intervals can evict the whole live cluster: refused, naming both
    values. Two intervals and up pass, and so does any timeout with
    heartbeats off."""
    for timeout in (0.04, 0.099):
        with pytest.raises(ValueError, match=f"timeout {timeout:g} s .* interval 0.05 s"):
            LiveConfig(heartbeat_interval=0.05, heartbeat_timeout=timeout)
    for interval, timeout in ((0.05, 0.1), (0.05, 0.25), (0.01, 0.03), (0.0, 0.01)):
        LiveConfig(heartbeat_interval=interval, heartbeat_timeout=timeout)
