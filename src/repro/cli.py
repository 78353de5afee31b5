"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate   synthesise a trace (Table I profile) and write it to a file
evaluate   partition a generated workload and print the paper metrics
simulate   replay a workload through the cluster simulator (Fig. 5 style)
chaos      randomized fault schedules, each run audited (invariants + op log)
hunt       adversarial chaos search: fuzz, audit, shrink
serve      run a real asyncio cluster (sockets, tasks) under client load
validate   replay one seeded workload through both transports and diff
figure     regenerate one figure's data series (CSV, or --chart for ASCII)
stats      characterise a trace (mix, depth, skew, drift)
report     render a telemetry JSONL file as an ASCII dashboard

``generate``/``evaluate``/``simulate``/``figure`` accept ``--seed`` to
override the profile's generator seed; ``evaluate``/``simulate`` accept
``--json`` for machine-readable output, and ``simulate --metrics-out``
records the full telemetry stream (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro import registry
from repro.metrics import evaluate_scheme
from repro.placement import MetadataScheme
from repro.simulation import replay_rounds, simulate
from repro.storage import STORE_BACKENDS
from repro.traces import PROFILES, TraceGenerator, load_workload, save_trace

__all__ = ["main", "build_parser", "add_fault_args", "parse_fault_plan"]


def add_fault_args(p: argparse.ArgumentParser) -> None:
    """Install the shared ``--fault`` flag.

    Every verb that injects faults (``simulate``, ``serve``, ``validate``)
    gets the identical grammar from this one place, so the flag surface
    cannot drift between the simulated and live transports.
    """
    p.add_argument("--fault", action="append", default=[], metavar="SPEC",
                   help="inject a fault: kind:target@ops=N or "
                        "kind:target@t=SEC, kind one of crash, recover, "
                        "fail_slow (:xF slowdown factor), "
                        "drop_heartbeats, loss (:pP drop probability), "
                        "delay (:dS mean extra seconds), "
                        "partition / heal (target is the group spec, "
                        "e.g. 'partition:{0,1}|{2,3,m0}@t=2.0'; 'heal:*' "
                        "removes every partition), monitor_crash / "
                        "monitor_recover (target is a Monitor replica); "
                        "repeatable (e.g. --fault crash:2@ops=1000); "
                        "see docs/CHAOS.md for the full grammar")


def parse_fault_plan(args):
    """Parse the ``--fault`` specs into a FaultPlan (None when absent).

    Raises ``ValueError`` with the offending spec, exactly as
    ``FaultPlan.parse`` reports it — callers turn that into exit code 2.
    """
    from repro.simulation import FaultPlan

    if not getattr(args, "fault", None):
        return None
    return FaultPlan.parse(args.fault)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D2-Tree (ICDCS 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", choices=sorted(PROFILES), default="dtr")
        p.add_argument("--nodes", type=int, default=8000,
                       help="namespace tree size (default 8000)")
        p.add_argument("--scale", type=float, default=1e-4,
                       help="fraction of the paper's record count (default 1e-4)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the profile's generator seed "
                            "(recorded in telemetry output)")

    gen = sub.add_parser("generate", help="synthesise a trace and save it")
    add_workload_args(gen)
    gen.add_argument("output", help="path for the trace file")
    gen.add_argument("--bundle", action="store_true",
                     help="write a full workload bundle (tree + trace) "
                          "instead of a bare trace file")

    ev = sub.add_parser("evaluate", help="partition and print paper metrics")
    add_workload_args(ev)
    ev.add_argument("--servers", type=int, default=8)
    ev.add_argument("--scheme", choices=registry.available(), default=None,
                    help="one scheme (default: all)")
    ev.add_argument("--rebalance-rounds", type=int, default=0)
    ev.add_argument("--json", action="store_true",
                    help="emit a JSON array of full metric reports instead "
                         "of formatted rows")

    sim = sub.add_parser("simulate", help="replay through the cluster simulator")
    add_workload_args(sim)
    sim.add_argument("--servers", type=int, default=8)
    sim.add_argument("--scheme", choices=registry.available(), default=None)
    sim.add_argument("--max-ops", type=int, default=None,
                     help="truncate the trace to this many operations "
                          "(what `repro chaos --ops` replays)")
    add_fault_args(sim)
    sim.add_argument("--monitors", type=int, default=None,
                     help="Monitor group size: 1 leader + N-1 standbys with "
                          "lease failover and epoch fencing (default 1, the "
                          "singleton Monitor)")
    sim.add_argument("--max-retries", type=int, default=None,
                     help="client retry budget before an op counts as failed")
    sim.add_argument("--heartbeat-interval", type=float, default=None,
                     help="liveness heartbeat cadence in simulated seconds "
                          "(<= 0 disables failure detection)")
    sim.add_argument("--heartbeat-timeout", type=float, default=None,
                     help="heartbeat silence before the Monitor declares a "
                          "server dead (simulated seconds)")
    sim.add_argument("--monitor-lease-timeout", type=float, default=None,
                     help="leadership lease: a standby takes over after the "
                          "leader has been dead or quorumless this long "
                          "(simulated seconds; default 2x heartbeat-timeout)")
    sim.add_argument("--store", choices=list(STORE_BACKENDS), default=None,
                     help="metadata persistence backend (default memory, "
                          "a zero-cost no-op; wal journals acks, fences "
                          "and subtree moves and replays them when a "
                          "kill9'd server rejoins — see "
                          "docs/DURABILITY.md)")
    sim.add_argument("--store-dir", metavar="DIR", default=None,
                     help="directory for the durable store "
                          "(default: a self-cleaning temp dir)")
    sim.add_argument("--json", action="store_true",
                     help="emit a JSON array of full SimulationResult "
                          "serializations instead of formatted rows")
    sim.add_argument("--metrics-out", metavar="FILE", default=None,
                     help="record telemetry (sim-time gauge series + trace "
                          "events + run summary) to FILE as JSONL; "
                          "multi-scheme runs append, one header per run")
    sim.add_argument("--metrics-prom", metavar="FILE", default=None,
                     help="write an end-of-run Prometheus text-format "
                          "metrics snapshot to FILE")
    sim.add_argument("--no-op-events", dest="cluster_only", action="store_true",
                     help="with --metrics-out: skip per-operation lifecycle "
                          "events (keep cluster events and gauge series)")
    sim.add_argument("--trace-sample", type=int, default=None, metavar="N",
                     help="record causal span trees for every Nth operation "
                          "(deterministic head sampling keyed off the op "
                          "id; spans land in --metrics-out and feed "
                          "`repro report --critical-path` / --perfetto "
                          "— see docs/OBSERVABILITY.md)")

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault schedules + safety invariant checks",
    )
    add_workload_args(chaos)
    chaos.add_argument("--servers", type=int, default=6)
    chaos.add_argument("--scheme", choices=registry.available(),
                       default="d2-tree",
                       help="scheme under test (default d2-tree)")
    chaos.add_argument("--seeds", type=int, default=20,
                       help="number of seeded chaos cases (default 20)")
    chaos.add_argument("--seed-base", type=int, default=0,
                       help="first case seed; cases use seed-base..+seeds-1")
    chaos.add_argument("--monitors", type=int, default=3,
                       help="Monitor group size (default 3: leader + 2 "
                            "standbys, so leader loss exercises failover)")
    chaos.add_argument("--ops", type=int, default=None,
                       help="truncate the trace to this many operations")
    chaos.add_argument("--store", choices=list(STORE_BACKENDS),
                       default="memory",
                       help="metadata persistence backend; wal turns "
                            "on the kill9/torn_write/corrupt_record fault "
                            "family and the durability invariant "
                            "(default memory)")
    chaos.add_argument("--store-dir", metavar="DIR", default=None,
                       help="directory for the durable store "
                            "(default: a self-cleaning temp dir)")
    chaos.add_argument("--trace-sample", type=int, default=0, metavar="N",
                       help="record causal spans for every Nth op in each "
                            "case (the failover/recovery lifecycle is "
                            "always spanned when sampling is on)")
    add_fault_args(chaos)
    chaos.add_argument("--json", action="store_true",
                       help="emit the full ChaosReport as JSON")

    hunt = sub.add_parser(
        "hunt",
        help="adversarial chaos search: fuzz fault schedules, audit "
             "operation histories, shrink counterexamples",
    )
    add_workload_args(hunt)
    hunt.add_argument("--servers", type=int, default=6)
    hunt.add_argument("--scheme", choices=registry.available(),
                      default="d2-tree",
                      help="scheme under test (default d2-tree)")
    hunt.add_argument("--monitors", type=int, default=3,
                      help="Monitor group size (default 3)")
    hunt.add_argument("--seeds", type=int, default=20,
                      help="number of fuzzed case seeds (default 20)")
    hunt.add_argument("--seed-base", type=int, default=0,
                      help="first case seed; cases use seed-base..+seeds-1")
    hunt.add_argument("--ops", type=int, default=None,
                      help="truncate the trace to this many operations")
    hunt.add_argument("--store", choices=list(STORE_BACKENDS),
                      default="memory",
                      help="persistence backend; wal turns on the "
                           "kill9 fault family and the durability audits "
                           "(default memory)")
    hunt.add_argument("--store-dir", metavar="DIR", default=None,
                      help="directory for the durable store "
                           "(default: a self-cleaning temp dir)")
    hunt.add_argument("--no-shrink", action="store_true",
                      help="report findings without minimizing them")
    hunt.add_argument("--max-probes", type=int, default=200,
                      help="shrink budget: extra chaos runs per finding "
                           "(default 200)")
    hunt.add_argument("--live", action="store_true",
                      help="also replay every schedule through the live "
                           "asyncio transport (informational; only the "
                           "deterministic simulator drives shrinking)")
    hunt.add_argument("--socket-dir", metavar="DIR", default=None,
                      help="unix socket directory for --live runs")
    hunt.add_argument("--promote", metavar="DIR", default=None,
                      help="write minimized counterexamples into DIR as "
                           "corpus JSON files (see tests/corpus/)")
    hunt.add_argument("--json", action="store_true",
                      help="emit the full HuntReport as JSON")

    def add_serve_args(p: argparse.ArgumentParser) -> None:
        add_workload_args(p)
        p.add_argument("--servers", type=int, default=3,
                       help="live MDS processes (default 3)")
        p.add_argument("--scheme", choices=registry.available(),
                       default="d2-tree",
                       help="scheme under load (default d2-tree)")
        p.add_argument("--monitors", type=int, default=3,
                       help="Monitor replicas (default 3)")
        p.add_argument("--max-ops", type=int, default=None,
                       help="truncate the trace to this many operations")
        p.add_argument("--rate", type=float, default=2000.0,
                       help="offered load in ops/sec: open-loop Poisson "
                            "arrivals, so a slow cluster builds a backlog "
                            "instead of throttling the client (default 2000)")
        p.add_argument("--transport", choices=["unix", "tcp"],
                       default="unix",
                       help="socket flavour: unix (default, one socket "
                            "file per endpoint) or tcp on localhost")
        p.add_argument("--socket-dir", metavar="DIR", default=None,
                       help="directory for the unix sockets "
                            "(default: a self-cleaning temp dir)")
        p.add_argument("--heartbeat-interval", type=float, default=None,
                       help="MDS->Monitor heartbeat cadence in wall-clock "
                            "seconds (default 0.05)")
        p.add_argument("--heartbeat-timeout", type=float, default=None,
                       help="heartbeat silence before the Monitor declares "
                            "a server dead (default 0.25)")
        p.add_argument("--request-timeout", type=float, default=None,
                       help="per-attempt client reply timeout (default 0.25)")
        p.add_argument("--max-retries", type=int, default=None,
                       help="client attempts per op before it counts as "
                            "failed (default 16)")
        add_fault_args(p)

    srv = sub.add_parser(
        "serve",
        help="run a live asyncio cluster (real sockets) under client load",
    )
    add_serve_args(srv)
    srv.add_argument("--json", action="store_true",
                     help="emit the full ServeReport as JSON")

    val = sub.add_parser(
        "validate",
        help="replay one seeded workload through both transports "
             "(simulator + AsyncioTransport) and diff the results",
    )
    add_serve_args(val)
    val.add_argument("--out", metavar="FILE", default=None,
                     help="also write the comparison report as JSON to FILE")

    fig = sub.add_parser("figure", help="regenerate a figure's data as CSV")
    fig.add_argument("name", choices=["fig5", "fig6", "fig7"],
                     help="which figure series to produce")
    add_workload_args(fig)
    fig.add_argument("--sizes", type=int, nargs="+", default=[5, 10, 20, 30])
    fig.add_argument("--chart", action="store_true",
                     help="render an ASCII chart instead of CSV")

    stats = sub.add_parser("stats", help="characterise a trace")
    stats_src = stats.add_mutually_exclusive_group()
    stats_src.add_argument("--input", default=None,
                           help="analyse a saved trace file instead of "
                                "generating one")
    add_workload_args(stats)

    rep = sub.add_parser("report",
                         help="render a telemetry JSONL file (simulate "
                              "--metrics-out) as an ASCII dashboard")
    rep.add_argument("input", help="telemetry JSONL file")
    rep.add_argument("--width", type=int, default=48,
                     help="sparkline width in characters (default 48)")
    rep.add_argument("--events", type=int, default=20,
                     help="timeline rows per run (default 20)")
    rep.add_argument("--csv", metavar="PREFIX", default=None,
                     help="also export PREFIX.samples.csv and "
                          "PREFIX.events.csv")
    rep.add_argument("--critical-path", action="store_true",
                     help="render the critical-path latency attribution "
                          "report (from span records; see simulate "
                          "--trace-sample) instead of the dashboard")
    rep.add_argument("--critical-json", metavar="FILE", default=None,
                     help="write the critical-path analysis as JSON "
                          "(an array when the input holds several runs)")
    rep.add_argument("--perfetto", metavar="FILE", default=None,
                     help="export span records as a Chrome trace-event "
                          "file loadable in ui.perfetto.dev / "
                          "chrome://tracing")
    return parser


def _schemes(choice: Optional[str]) -> List[MetadataScheme]:
    if choice is not None:
        return [registry.create(choice)]
    return registry.make_all()


def _profile(args):
    profile = PROFILES[args.trace](num_nodes=args.nodes, scale=args.scale)
    if getattr(args, "seed", None) is not None:
        profile = dataclasses.replace(profile, seed=args.seed)
    return profile


def _workload(args):
    return load_workload(_profile(args))


def cmd_generate(args) -> int:
    profile = _profile(args)
    workload = TraceGenerator(profile).generate()
    if args.bundle:
        from repro.traces import save_workload

        save_workload(workload, args.output)
        kind = "workload bundle"
    else:
        save_trace(workload.trace, args.output)
        kind = "trace"
    print(f"wrote {len(workload.trace)} operations over "
          f"{len(workload.tree)} nodes to {args.output} ({kind})")
    return 0


def cmd_evaluate(args) -> int:
    workload = _workload(args)
    reports = []
    for scheme in _schemes(args.scheme):
        report = evaluate_scheme(
            scheme, workload.tree, args.servers,
            rebalance_rounds=args.rebalance_rounds,
        )
        if args.json:
            payload = report.to_dict()
            payload["scheme_params"] = scheme.params()
            reports.append(payload)
        else:
            print(report.row())
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    from repro.simulation import SimulationConfig

    workload = _workload(args).truncated(args.max_ops)
    overrides = {}
    try:
        plan = parse_fault_plan(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if plan is not None:
        overrides["fault_plan"] = plan
    if args.monitors is not None:
        overrides["num_monitors"] = args.monitors
    if args.max_retries is not None:
        overrides["max_retries"] = args.max_retries
    if args.heartbeat_interval is not None:
        overrides["heartbeat_interval"] = args.heartbeat_interval
    if args.heartbeat_timeout is not None:
        overrides["heartbeat_timeout"] = args.heartbeat_timeout
    if args.monitor_lease_timeout is not None:
        overrides["monitor_lease_timeout"] = args.monitor_lease_timeout
    if args.store is not None:
        overrides["store"] = args.store
    if args.store_dir is not None:
        overrides["store_dir"] = args.store_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    trace_sample = args.trace_sample or 0
    if trace_sample < 0:
        print("error: --trace-sample must be positive", file=sys.stderr)
        return 2
    if trace_sample:
        overrides["trace_sample"] = trace_sample
        if not args.metrics_out:
            print("note: --trace-sample spans are only visible via "
                  "--metrics-out", file=sys.stderr)
    config = SimulationConfig(**overrides) if overrides else None
    want_telemetry = bool(args.metrics_out or args.metrics_prom)
    # Sampled tracing does not need full telemetry: a disabled Telemetry
    # shell still carries the span stream, without the cost of the metrics
    # hub and the per-op events.
    span_only = (
        trace_sample > 0
        and not args.fault
        and args.store in (None, "memory")
        and not args.metrics_prom
    )
    results_json: List[dict] = []
    for index, scheme in enumerate(_schemes(args.scheme)):
        telemetry = None
        if want_telemetry:
            from repro.obs import Telemetry

            if span_only:
                telemetry = Telemetry(enabled=False)
            else:
                telemetry = Telemetry()
        with contextlib.ExitStack() as stack:
            exporter = None
            if args.metrics_out:
                from repro.obs import JsonlExporter

                # Context-managed: flushes whatever telemetry exists even
                # when the run below raises, so partial runs stay debuggable.
                exporter = stack.enter_context(
                    JsonlExporter(telemetry, args.metrics_out, append=index > 0,
                                  per_op=not args.cluster_only)
                )
            try:
                result = simulate(
                    scheme, workload, args.servers, config, telemetry=telemetry
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            if exporter is not None:
                exporter.set_summary(result.to_dict())
        if exporter is not None:
            print(f"wrote {exporter.count} telemetry records to "
                  f"{args.metrics_out}", file=sys.stderr)
        if args.metrics_prom:
            from repro.obs import prometheus_text

            mode = "a" if index > 0 else "w"
            with open(args.metrics_prom, mode, encoding="utf-8") as handle:
                handle.write(prometheus_text(telemetry.registry))
        if args.json:
            payload = result.to_dict()
            # Record the exact scheme configuration so a run's JSON is
            # self-describing (reconstruct via registry.create(name, **params)).
            payload["scheme_params"] = scheme.params()
            results_json.append(payload)
        else:
            print(result.row())
            if result.availability is not None and result.availability.impacted:
                print(result.availability.describe())
    if args.json:
        print(json.dumps(results_json, indent=2, sort_keys=True))
    return 0


def _chaos_recipe(args):
    """The ``chaos``/``hunt`` flags as the one description of a chaos run;
    each case is this recipe with its own seed."""
    from repro.chaos import CorpusCase

    return CorpusCase(
        scheme=args.scheme, trace=args.trace, nodes=args.nodes,
        scale=args.scale, seed=args.seed_base, num_servers=args.servers,
        num_monitors=args.monitors, faults=list(getattr(args, "fault", ())),
        ops=args.ops, store=args.store,
    )


def cmd_chaos(args) -> int:
    from repro.chaos import ChaosReport

    # An explicit --fault plan replaces the generated schedule for every
    # seed — this is how the printed replay commands (and minimized corpus
    # counterexamples) re-run deterministically.
    recipe = _chaos_recipe(args)
    report = ChaosReport(recipe)
    try:
        for seed in range(args.seed_base, args.seed_base + args.seeds):
            report.cases.append(
                dataclasses.replace(recipe, seed=seed).run_sim(
                    args.store_dir, trace_sample=args.trace_sample
                )
            )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for case in report.cases:
            status = "ok " if case.ok else "FAIL"
            print(
                f"seed={case.seed:<4d} {status} "
                f"faults={len(case.specs):<2d} ops={case.operations} "
                f"failed={case.failed_operations} retries={case.retries} "
                f"epoch={case.epoch} failovers={case.failovers} "
                f"dropped={case.messages_dropped}"
            )
        print(
            f"{recipe.scheme} {recipe.trace} M={recipe.num_servers} "
            f"monitors={recipe.num_monitors}: "
            f"{len(report.cases) - len(report.violations)}/"
            f"{len(report.cases)} seeds clean"
        )
    if not report.ok:
        # Dump exact replay commands so every violation reproduces
        # deterministically outside the harness.
        for case in report.violations:
            print(f"\nseed {case.seed} violated invariants:", file=sys.stderr)
            for violation in case.violations:
                print(f"  - {violation}", file=sys.stderr)
            replay = dataclasses.replace(
                recipe, seed=case.seed, faults=case.specs
            ).replay_command()
            print(f"  replay: {replay}", file=sys.stderr)
        return 1
    return 0


def cmd_hunt(args) -> int:
    from repro.chaos import promote_findings, run_hunt

    try:
        report = run_hunt(
            _chaos_recipe(args),
            range(args.seed_base, args.seed_base + args.seeds),
            store_dir=args.store_dir,
            shrink=not args.no_shrink,
            max_probes=args.max_probes,
            live=args.live,
            socket_dir=args.socket_dir,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for case in report.cases:
            status = "ok " if case.ok else "FAIL"
            hist = case.history
            line = (
                f"seed={case.seed:<4d} {status} "
                f"faults={len(case.specs):<2d} ops={case.operations} "
                f"acked={hist.get('ok', 0)} "
                f"failed={hist.get('failed', 0)} "
                f"indeterminate={hist.get('indeterminate', 0)}"
            )
            if case.live_violations is not None:
                live_ok = "ok" if not case.live_violations else "FAIL"
                line += f" live={live_ok}"
            print(line)
        recipe = report.recipe
        coverage = " ".join(
            f"{kind}={report.coverage[kind]}"
            for kind in sorted(report.coverage)
        )
        print(
            f"{recipe.scheme} {recipe.trace} M={recipe.num_servers} "
            f"monitors={recipe.num_monitors} store={recipe.store}: "
            f"{len(report.cases) - len(report.findings)}/"
            f"{len(report.cases)} seeds clean"
            + (f", {report.probes} shrink probes" if report.probes else "")
        )
        print(f"coverage: {coverage}")
    if args.promote:
        paths = promote_findings(report, args.promote)
        for path in paths:
            print(f"promoted {path}", file=sys.stderr)
        if not paths:
            print(f"no minimized findings to promote into {args.promote}",
                  file=sys.stderr)
    if not report.ok:
        for case in report.findings:
            print(f"\nseed {case.seed} violated invariants:", file=sys.stderr)
            for violation in case.violations:
                print(f"  - {violation}", file=sys.stderr)
            for violation in case.live_violations or ():
                print(f"  - [live] {violation}", file=sys.stderr)
            if case.shrink is not None:
                print(
                    f"  shrink: {'; '.join(case.shrink.steps) or 'no-op'} "
                    f"({case.shrink.probes} probes"
                    + (", budget exhausted" if case.shrink.truncated else "")
                    + ")",
                    file=sys.stderr,
                )
            print(f"  replay: {case.replay}", file=sys.stderr)
        return 1
    return 0


def _live_configs(args):
    """Map serve/validate flags onto (LiveConfig, LoadConfig)."""
    from repro.transport.live import LiveConfig
    from repro.transport.loadgen import LoadConfig

    live_kwargs = {
        "num_servers": args.servers,
        "num_monitors": args.monitors,
        "transport": args.transport,
        "socket_dir": args.socket_dir,
    }
    if args.heartbeat_interval is not None:
        live_kwargs["heartbeat_interval"] = args.heartbeat_interval
    if args.heartbeat_timeout is not None:
        live_kwargs["heartbeat_timeout"] = args.heartbeat_timeout
    if args.seed is not None:
        live_kwargs["seed"] = args.seed
    load_kwargs = {"rate": args.rate}
    if args.request_timeout is not None:
        load_kwargs["request_timeout"] = args.request_timeout
    if args.max_retries is not None:
        load_kwargs["max_retries"] = args.max_retries
    if args.seed is not None:
        load_kwargs["seed"] = args.seed
    return LiveConfig(**live_kwargs), LoadConfig(**load_kwargs)


def _print_serve_report(report) -> None:
    lat = report.latency
    print(
        f"{report.scheme} {report.trace} M={report.num_servers} "
        f"monitors={report.num_monitors} transport={report.transport}"
    )
    print(
        f"  acked {report.acked}/{report.operations}"
        f"  failed {report.failed}  retries {report.retries}"
        f"  redirects {report.redirects}"
        f"  index cache {report.index_cache_hits} hit"
        f" / {report.index_cache_misses} miss"
    )
    print(
        f"  throughput {report.throughput:,.0f} op/s"
        f"  latency mean {lat['mean'] * 1e3:.2f} ms"
        f"  p99 {lat['p99'] * 1e3:.2f} ms"
    )
    print(
        f"  epoch {report.epoch}  failovers {report.failovers}"
        f"  dropped {report.messages_dropped}"
        f"  faults {len(report.faults)}"
        f"  {'ok' if report.ok else 'INVARIANT VIOLATIONS'}"
    )


def cmd_serve(args) -> int:
    from repro.transport.serve import serve_workload

    try:
        plan = parse_fault_plan(args)
        live_cfg, load_cfg = _live_configs(args)
        report = serve_workload(
            registry.create(args.scheme), _workload(args).truncated(args.max_ops),
            live_cfg, load_cfg, plan,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _print_serve_report(report)
    if not report.ok:
        for violation in report.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    return 0


def _ratio(value, suffix: str = "x") -> str:
    return "n/a" if value is None else f"{value:.3f}{suffix}"


def cmd_validate(args) -> int:
    from repro.transport.serve import validate_transports

    try:
        plan = parse_fault_plan(args)
        live_cfg, load_cfg = _live_configs(args)
        comparison = validate_transports(
            registry.create(args.scheme), _workload(args).truncated(args.max_ops),
            live_cfg, load_cfg, plan,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(comparison, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote transport comparison to {args.out}", file=sys.stderr)
    live = comparison["live"]
    sim = comparison["simulated"]
    delta = comparison["delta"]
    print(
        f"{comparison['scheme']} {comparison['trace']} "
        f"M={comparison['num_servers']} "
        f"monitors={comparison['num_monitors']} "
        f"ops={comparison['operations']}"
    )
    print(
        f"  live       {live['throughput']:>12,.0f} op/s"
        f"  latency {live['latency']['mean'] * 1e3:>8.3f} ms"
        f"  failed {live['failed']}"
        f"  hops/op {_ratio(delta['hops_per_op']['live'], '')}"
    )
    print(
        f"  simulated  {sim['throughput']:>12,.0f} op/s"
        f"  latency {sim['latency_mean'] * 1e3:>8.3f} ms"
        f"  failed {sim['failed']}"
        f"  hops/op {_ratio(delta['hops_per_op']['simulated'], '')}"
    )
    print(
        f"  live/sim   {_ratio(delta['throughput_ratio']):>12}"
        f"  latency {_ratio(delta['latency_ratio']):>8}"
        f"  hops/op {_ratio(delta['hops_ratio'])}"
        f"  acked_matches={delta['acked_matches']}"
    )
    if not comparison["ok"]:
        for violation in comparison["violations"]:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    if not delta["acked_matches"]:
        # The two transports acknowledged different operation sets: a
        # divergence even when each side individually passed its audit.
        print(
            f"  - acked mismatch: live acked {live['acked']} vs simulated "
            f"{sim['operations']}",
            file=sys.stderr,
        )
        return 1
    return 0


FIGURE_LABELS = {
    "fig5": "throughput (ops/s)",
    "fig6": "locality (E-9)",
    "fig7": "balance degree",
}


def cmd_figure(args) -> int:
    workload = _workload(args)
    series: Dict[str, List[float]] = {}
    for scheme in _schemes(None):
        values: List[float] = []
        for m in args.sizes:
            # Each sweep point needs an unshared scheme (adjusters and RNGs
            # carry state); scheme.fresh() clones through the params surface
            # so configured (non-default) schemes keep their configuration.
            if args.name == "fig5":
                values.append(simulate(scheme.fresh(), workload, m).throughput)
            elif args.name == "fig6":
                report = evaluate_scheme(scheme.fresh(), workload.tree, m)
                values.append((report.locality_e9 or 0.0))
            else:
                trajectory = replay_rounds(scheme.fresh(), workload, m, rounds=10)
                values.append(min(trajectory.final_balance, 1e6))
        series[scheme.name] = values
    if args.chart:
        from repro.viz import render_series

        print(render_series(
            f"{args.name} ({workload.trace.name})",
            args.sizes,
            series,
            logy=args.name in ("fig6", "fig7"),
            ylabel=FIGURE_LABELS[args.name],
        ))
    else:
        print("scheme," + ",".join(f"M={m}" for m in args.sizes))
        for name, values in series.items():
            print(name + "," + ",".join(f"{v:.2f}" for v in values))
    return 0


def cmd_stats(args) -> int:
    from repro.traces.stats import analyze_trace

    if args.input:
        from repro.traces import load_trace

        try:
            trace = load_trace(args.input)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        trace = _workload(args).trace
    print(f"trace: {trace.name}")
    print(analyze_trace(trace).describe())
    return 0


def cmd_report(args) -> int:
    from repro.obs import (
        events_to_csv,
        read_jsonl,
        render_dashboard,
        samples_to_csv,
        split_runs,
    )

    try:
        records = read_jsonl(args.input)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not records:
        print(f"error: {args.input} holds no telemetry records", file=sys.stderr)
        return 2
    runs = split_runs(records)
    want_critical = args.critical_path or args.critical_json
    analyses = None
    if want_critical:
        from repro.obs import analyze_critical_path, render_critical_path

        analyses = [analyze_critical_path(run) for run in runs]
        if not any(a["ops"] or a["cluster"]["detections"] for a in analyses):
            print(f"note: {args.input} holds no span records — rerun "
                  "simulate with --trace-sample", file=sys.stderr)
    if args.critical_path:
        for index, analysis in enumerate(analyses):
            if index:
                print()
            print(render_critical_path(analysis, width=args.width))
    else:
        for index, run in enumerate(runs):
            if index:
                print()
            print(render_dashboard(run, width=args.width,
                                   max_timeline=args.events))
    if args.critical_json:
        payload = analyses if len(analyses) > 1 else analyses[0]
        with open(args.critical_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote critical-path analysis to {args.critical_json}",
              file=sys.stderr)
    if args.perfetto:
        from repro.obs import write_chrome_trace

        source = runs[0]
        if len(runs) > 1:
            print("note: --perfetto exports the first run of a multi-run "
                  "file", file=sys.stderr)
        count = write_chrome_trace(source, args.perfetto)
        print(f"wrote {count} trace events to {args.perfetto} "
              "(load in ui.perfetto.dev)", file=sys.stderr)
    if args.csv:
        samples_path = f"{args.csv}.samples.csv"
        events_path = f"{args.csv}.events.csv"
        samples_to_csv(records, samples_path)
        events_to_csv(records, events_path)
        print(f"wrote {samples_path} and {events_path}", file=sys.stderr)
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "serve": cmd_serve,
    "validate": cmd_validate,
    "chaos": cmd_chaos,
    "hunt": cmd_hunt,
    "figure": cmd_figure,
    "stats": cmd_stats,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
