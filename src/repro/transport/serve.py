"""One-call entry points: run a live cluster, or validate it against sim.

:func:`serve_workload` is what ``repro serve`` (and perfbench's serve
workloads) calls: boot a :class:`~repro.transport.live.LiveCluster`, drive the
workload's trace through the load generator, fire any fault
plan, quiesce, audit the run with :func:`repro.chaos.harness.check_run`
(the chaos harness's audit) and return a
:class:`~repro.transport.live.ServeReport`.

:func:`validate_transports` is ``repro validate``: one recipe
(:class:`~repro.chaos.corpus.CorpusCase`) replays through the discrete-event
simulator and through ``AsyncioTransport`` (real sockets), so both legs run
the same workload, seed, monitors, clocks, retry budget and fault plan, and
the report pairs the measured numbers with the simulated ones. The
simulated run disables dynamic adjustment (the live mode does not
rebalance mid-run) so the two placements stay directly comparable; the
deltas quantify how far the simulator's latency model sits from a real
asyncio cluster on this machine.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
from typing import TYPE_CHECKING, Dict, Optional

from repro import registry
from repro.chaos.harness import check_run
from repro.placement import MetadataScheme
from repro.simulation.faults import FaultPlan
from repro.simulation.runner import simulate
from repro.transport.live import LiveCluster, LiveConfig, ServeReport
from repro.transport.loadgen import LoadConfig, LoadGenerator, latency_summary

if TYPE_CHECKING:
    from repro.chaos.corpus import CorpusCase

__all__ = ["serve_workload", "validate_transports"]


async def _serve_async(
    scheme: MetadataScheme,
    workload,
    live_cfg: LiveConfig,
    load_cfg: LoadConfig,
    plan: Optional[FaultPlan],
) -> ServeReport:
    cluster = LiveCluster(scheme, workload, live_cfg)
    if plan:
        plan.validate(live_cfg.num_servers, live_cfg.num_monitors)
    await cluster.start()
    try:
        generator = LoadGenerator(
            cluster.transport,
            live_cfg.num_servers,
            workload.trace,
            load_cfg,
        )
        cluster.control.history = generator.history
        fault_task = None
        if plan:
            fault_task = asyncio.create_task(
                cluster.run_fault_plan(plan, lambda: generator.completed)
            )
        try:
            load = await generator.run()
        finally:
            # Stopped however the load ended: a plan left running would go
            # on faulting and reconciling endpoints that stop() tears down.
            if fault_task is not None:
                fault_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await fault_task
        if fault_task is not None:
            await cluster.quiesce()
        violations = check_run(
            cluster.control, len(workload.trace),
            ledgers={mds.server_id: mds.acked for mds in cluster.servers},
        )
        return ServeReport(
            scheme=getattr(scheme, "name", type(scheme).__name__),
            trace=workload.profile.name,
            num_servers=live_cfg.num_servers,
            num_monitors=live_cfg.num_monitors,
            transport=live_cfg.transport,
            operations=load.issued,
            acked=load.acked,
            failed=load.failed,
            indeterminate=load.indeterminate,
            retries=load.retries,
            redirects=load.redirects,
            index_cache_hits=load.index_cache_hits,
            index_cache_misses=load.index_cache_misses,
            duration=load.duration,
            throughput=load.throughput,
            latency=latency_summary(load.latencies),
            per_server_served=[s.served for s in cluster.servers],
            epoch=cluster.group.epoch,
            failovers=cluster.group.failovers,
            fenced_directives=sum(
                s.state.fenced_directives for s in cluster.servers
            ),
            aborted_directives=cluster.group.aborted_directives,
            journal_entries=len(cluster.group.journal),
            messages_dropped=cluster.transport.messages_dropped,
            messages_delayed=cluster.transport.messages_delayed,
            faults=list(cluster.applied_faults),
            violations=violations,
        )
    finally:
        await cluster.stop()


def serve_workload(
    scheme: MetadataScheme,
    workload,
    live_cfg: Optional[LiveConfig] = None,
    load_cfg: Optional[LoadConfig] = None,
    plan: Optional[FaultPlan] = None,
) -> ServeReport:
    """Run one workload through a live asyncio cluster; audit and report."""
    return asyncio.run(
        _serve_async(
            scheme,
            workload,
            live_cfg or LiveConfig(),
            load_cfg or LoadConfig(),
            plan,
        )
    )


def validate_transports(
    case: CorpusCase, socket_dir: Optional[str] = None
) -> Dict[str, object]:
    """Replay one recipe through both transports and diff them.

    Returns a JSON-ready dict with the recipe, the live report, the
    simulated result, and measured-vs-simulated deltas for throughput, mean
    latency and locality (hops per op). The simulated run uses
    ``adjust_every_ops=0`` to match live mode's static placement between
    failures.
    """
    live = case.run_live(socket_dir)
    workload = case.workload()
    sim = simulate(
        registry.create(case.scheme), workload, case.num_servers,
        dataclasses.replace(case.sim_config(), adjust_every_ops=0),
    )

    sim_latency = sim.latency.mean if sim.operations else 0.0
    live_latency = live.latency["mean"]
    # Locality, both sides: requests a server handled per completed op.
    live_hops = 1 + live.redirects / live.acked if live.acked else None
    sim_hops = 1 + sim.mean_jumps if sim.operations else None
    return {
        "recipe": case.to_dict(),
        "scheme": live.scheme,
        "trace": workload.profile.name,
        "num_servers": case.num_servers,
        "num_monitors": case.num_monitors,
        "operations": live.operations,
        "faults": live.faults,
        "live": live.to_dict(),
        "simulated": {
            "operations": sim.operations,
            "failed": sim.failed_operations,
            "throughput": sim.throughput,
            "latency_mean": sim_latency,
            "makespan": sim.makespan,
        },
        "delta": {
            # live / simulated ratios (None when a side is degenerate):
            # how much faster/slower the real asyncio cluster ran than the
            # discrete-event model predicted.
            "throughput_ratio": (
                live.throughput / sim.throughput if sim.throughput else None
            ),
            "latency_ratio": (
                live_latency / sim_latency if sim_latency else None
            ),
            "hops_per_op": {"live": live_hops, "simulated": sim_hops},
            "hops_ratio": live_hops / sim_hops if live_hops and sim_hops else None,
            # ``sim.operations`` counts completed ops only: failed ones are
            # in ``sim.failed_operations`` and never in it.
            "acked_matches": live.acked == sim.operations,
        },
        "ok": live.ok,
        "violations": live.violations,
    }
