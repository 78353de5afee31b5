"""The one-call entry points: ``serve_workload`` and ``validate_transports``.

Two contracts of the glue around the cluster and the load generator: the
acked-set check of ``repro validate`` compares like with like when the
simulation fails operations, and a fault plan stops with the load however
the load ended.
"""

import asyncio
import dataclasses
import types

import pytest

from repro import registry
from repro.cli import main
from repro.simulation.faults import FaultPlan
from repro.traces import DatasetProfile, load_workload
from repro.transport import serve
from repro.transport.live import LiveCluster, LiveConfig, ServeReport
from repro.transport.loadgen import LoadConfig, LoadGenerator


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
    workload = types.SimpleNamespace(profile=types.SimpleNamespace(name="dtr"))
    comparison = serve.validate_transports(registry.create("d2-tree"), workload)
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
    ids, latencies (ok.t - invoke.t, in ack order), failures and retries
    are exactly what the op log's records give — and so are the numbers
    the serve report prints."""
    from repro.transport.loadgen import trace_ops

    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=600, scale=1e-4), seed=7
    )
    bundle = load_workload(profile.scaled(num_operations=600))
    workload = dataclasses.replace(bundle, trace=bundle.trace.slice(0, 600))
    loads = []
    check = serve.check_invariants

    def capturing_check(cluster, load):
        loads.append(load)
        return check(cluster, load)

    monkeypatch.setattr(serve, "check_invariants", capturing_check)
    report = serve.serve_workload(
        registry.create("d2-tree"), workload,
        LiveConfig(num_servers=4, num_monitors=3, seed=7),
        LoadConfig(rate=4000.0, seed=7, request_timeout=0.05),
        FaultPlan.parse(["crash:1@ops=150", "recover:1@ops=400"]),
    )
    assert report.ok and len(report.faults) == 2
    (load,) = loads
    records = load.history.events
    invoked = {r.op_id: r for r in records if r.kind == "invoke"}
    acks = [r for r in records if r.kind == "ok"]

    def count(kind):
        return sum(1 for r in records if r.kind == kind)

    assert load.acked_ids == {r.op_id for r in acks}
    assert load.indeterminate_ids == {
        r.op_id for r in records if r.kind == "indeterminate"
    }
    assert load.latencies == [r.t - invoked[r.op_id].t for r in acks]
    assert (load.failed, load.retries) == (count("fail"), count("retry"))
    assert load.retries > 0  # the crash reached the clients
    # Each invoke names its trace record.
    assert sorted(
        (r.op_id, r.path, r.op) for r in invoked.values()
    ) == trace_ops(workload.trace)
    assert (report.acked, report.failed, report.indeterminate) == (
        len(acks), count("fail"), count("indeterminate"),
    )
    assert report.retries == count("retry")
