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
from repro.chaos import CorpusCase
from repro.metrics import evaluate_scheme
from repro.placement import MetadataScheme
from repro.simulation import SimulationConfig, replay_rounds, simulate
from repro.storage import STORE_BACKENDS
from repro.traces import PROFILES, TraceGenerator, load_workload, save_trace

__all__ = ["main", "build_parser", "add_cluster_args", "recipe_from"]


def add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", choices=sorted(PROFILES), default="dtr")
    p.add_argument("--nodes", type=int, default=8000,
                   help="namespace tree size (default 8000)")
    p.add_argument("--scale", type=float, default=1e-4,
                   help="fraction of the paper's record count (default 1e-4)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the profile's generator seed "
                        "(recorded in telemetry output)")


_OPS = ("ops", dict(type=int, help="truncate the trace to N operations"))
#: The cluster flags, declared once: flag -> (the recipe field it sets,
#: argparse keywords). A verb takes the subset VERB_FLAGS names.
CLUSTER_FLAGS = {
    "--servers": ("num_servers", dict(type=int, help="metadata servers")),
    "--scheme": (None, dict(choices=registry.available(),
                            help="scheme under test (simulate: default all)")),
    "--monitors": ("num_monitors", dict(
        type=int, help="Monitor group size: a leader + standbys with lease "
                       "failover and epoch fencing (simulate: default 1)")),
    "--max-ops": _OPS,
    "--ops": _OPS,
    "--seeds": (None, dict(type=int, help="number of seeded cases")),
    "--seed-base": (None, dict(type=int, help="first case seed")),
    "--store": ("store", dict(
        choices=list(STORE_BACKENDS),
        help="persistence (default memory: none); wal journals acks, fences "
             "and moves, and unlocks the kill9 faults and the durability "
             "audit (docs/DURABILITY.md)")),
    "--store-dir": (None, dict(metavar="DIR", help="durable store directory "
                                                   "(default: a temp dir)")),
    "--trace-sample": (None, dict(
        type=int, metavar="N", help="record causal span trees for every Nth "
                                    "op (docs/OBSERVABILITY.md)")),
    "--rate": ("rate", dict(type=float, help="offered load, ops/s: open-loop "
                                             "Poisson arrivals (default "
                                             "%(default)s)")),
    "--transport": ("transport", dict(choices=["unix", "tcp"],
                                      help="socket flavour (default unix)")),
    "--socket-dir": (None, dict(metavar="DIR", help="unix socket directory "
                                                    "(default: a temp dir)")),
    "--heartbeat-interval": ("heartbeat_interval", dict(
        type=float, help="MDS heartbeat cadence, s (default 0.05; <= 0 "
                         "turns the simulator's failure detection off)")),
    "--heartbeat-timeout": ("heartbeat_timeout", dict(
        type=float, help="heartbeat silence before a server is declared "
                         "dead, s (default 0.15 simulated, 0.25 live)")),
    "--monitor-lease-timeout": ("lease_timeout", dict(
        type=float, help="standby takeover after the leader is dead or "
                         "quorumless this long (default 2x the timeout)")),
    "--request-timeout": ("request_timeout", dict(
        type=float, help="per-attempt client reply timeout (default 0.25)")),
    "--max-retries": ("max_retries", dict(
        type=int, help="client attempts per op before it fails (default 16)")),
    "--fault": (None, dict(
        action="append", metavar="SPEC",
        help="inject a fault, kind:target@ops=N or kind:target@t=SEC "
             "(crash, recover, fail_slow :xF, drop_heartbeats, loss :pP, "
             "delay :dS, partition / heal, monitor_crash / monitor_recover; "
             "repeatable; grammar in docs/CHAOS.md)")),
}
_CHAOS = {"--servers": 6, "--scheme": "d2-tree", "--monitors": 3,
          "--seeds": 20, "--seed-base": 0, "--ops": None,
          "--store": "memory", "--store-dir": None}
_LIVE = {"--servers": 3, "--scheme": "d2-tree", "--monitors": 3,
         "--max-ops": None, "--rate": CorpusCase.rate, "--transport": "unix",
         "--socket-dir": None, "--heartbeat-interval": None,
         "--heartbeat-timeout": None, "--request-timeout": None,
         "--max-retries": None, "--fault": []}
#: Each cluster verb's flags and their defaults. A knob flag left at None
#: takes its mode's default (recipe_from).
VERB_FLAGS = {
    "simulate": {"--servers": 8, "--scheme": None, "--max-ops": None,
                 "--fault": [], "--monitors": None, "--max-retries": None,
                 "--heartbeat-interval": None, "--heartbeat-timeout": None,
                 "--monitor-lease-timeout": None, "--store": None,
                 "--store-dir": None, "--trace-sample": None},
    "chaos": {**_CHAOS, "--trace-sample": 0, "--fault": []},
    "hunt": {**_CHAOS, "--socket-dir": None},
    "serve": _LIVE,
    "validate": _LIVE,
}


def add_cluster_args(p: argparse.ArgumentParser, verb: str) -> None:
    """Install ``verb``'s workload and cluster flags with its defaults."""
    add_workload_args(p)
    for flag, default in VERB_FLAGS[verb].items():
        p.add_argument(flag, default=default, **CLUSTER_FLAGS[flag][1])


def _mode_defaults(verb: str) -> dict:
    """What the knob flags ``verb`` leaves unset mean: the simulator's
    defaults for ``simulate``, the live cluster's for ``serve`` /
    ``validate`` (why their heartbeat timeouts differ: ``LiveConfig``), and
    the recipe's own — the chaos clocks — for ``chaos`` / ``hunt``."""
    if verb == "simulate":
        sim = SimulationConfig
        return {"num_monitors": sim.num_monitors, "max_retries": sim.max_retries,
                "heartbeat_interval": sim.heartbeat_interval,
                "heartbeat_timeout": sim.heartbeat_timeout,
                "lease_timeout": sim.monitor_lease_timeout}
    if verb in ("serve", "validate"):
        from repro.transport.live import LiveConfig as live
        from repro.transport.loadgen import LoadConfig as load

        return {"max_retries": load.max_retries,
                "request_timeout": load.request_timeout,
                "heartbeat_interval": live.heartbeat_interval,
                "heartbeat_timeout": live.heartbeat_timeout,
                "lease_timeout": live.lease_timeout}
    return {}


def recipe_from(args) -> CorpusCase:
    """The one description of the run a cluster verb's flags ask for.

    Raises ``ValueError`` (exit 2) on an op count or seed count below 1, a
    negative trace sample or a rate that is not positive, for every verb
    that takes the flag.
    """
    flags = {flag: getattr(args, flag[2:].replace("-", "_"))
             for flag in VERB_FLAGS[args.command]}
    values = _mode_defaults(args.command)
    values.update((CLUSTER_FLAGS[flag][0], value)
                  for flag, value in flags.items()
                  if CLUSTER_FLAGS[flag][0] and value is not None)
    for flag, least in (("--ops", 1), ("--max-ops", 1), ("--seeds", 1),
                        ("--trace-sample", 0)):
        value = flags.get(flag)
        if value is not None and value < least:
            raise ValueError(f"{flag} must be at least {least}, not {value}")
    if not values.get("rate", 1) > 0:  # NaN too
        raise ValueError(f"--rate must be positive, not {values['rate']}")
    chaos = args.command in ("chaos", "hunt")
    return CorpusCase(
        scheme=args.scheme, trace=args.trace, nodes=args.nodes,
        scale=args.scale, seed=args.seed_base if chaos else args.seed,
        # chaos and hunt generate a schedule from each seed unless given one.
        faults=flags.get("--fault") or (None if chaos else []),
        **values,
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D2-Tree (ICDCS 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a trace and save it")
    add_workload_args(gen)
    gen.add_argument("output", help="path for the trace file")

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
    add_cluster_args(sim, "simulate")
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

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault schedules + safety invariant checks",
    )
    add_cluster_args(chaos, "chaos")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full ChaosReport as JSON")

    hunt = sub.add_parser(
        "hunt",
        help="adversarial chaos search: fuzz fault schedules, audit "
             "operation histories, shrink counterexamples",
    )
    add_cluster_args(hunt, "hunt")
    hunt.add_argument("--no-shrink", action="store_true",
                      help="report findings without minimizing them")
    hunt.add_argument("--max-probes", type=int, default=200,
                      help="shrink budget: extra chaos runs per finding "
                           "(default 200)")
    hunt.add_argument("--live", action="store_true",
                      help="also replay every schedule through the live "
                           "asyncio transport (informational; only the "
                           "deterministic simulator drives shrinking)")
    hunt.add_argument("--promote", metavar="DIR", default=None,
                      help="write minimized counterexamples into DIR as "
                           "corpus JSON files (see tests/corpus/)")
    hunt.add_argument("--json", action="store_true",
                      help="emit the full HuntReport as JSON")

    srv = sub.add_parser(
        "serve",
        help="run a live asyncio cluster (real sockets) under client load",
    )
    add_cluster_args(srv, "serve")
    srv.add_argument("--json", action="store_true",
                     help="emit the full ServeReport as JSON")

    val = sub.add_parser(
        "validate",
        help="replay one seeded workload through both transports "
             "(simulator + AsyncioTransport) and diff the results",
    )
    add_cluster_args(val, "validate")
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


def cmd_generate(args) -> int:
    profile = _profile(args)
    workload = TraceGenerator(profile).generate()
    save_trace(workload.trace, args.output)
    print(f"wrote {len(workload.trace)} operations over "
          f"{len(workload.tree)} nodes to {args.output} (trace)")
    return 0


def cmd_evaluate(args) -> int:
    workload = load_workload(_profile(args))
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
    from repro.obs import JsonlExporter, Telemetry, prometheus_text

    recipe = recipe_from(args)
    config = recipe.sim_config(args.store_dir, args.trace_sample or 0)
    if config.trace_sample and not args.metrics_out:
        print("note: --trace-sample spans are only visible via "
              "--metrics-out", file=sys.stderr)
    workload = recipe.workload()
    want_telemetry = bool(args.metrics_out or args.metrics_prom)
    # Sampled tracing does not need full telemetry: a disabled Telemetry
    # shell still carries the span stream, without the cost of the metrics
    # hub and the per-op events.
    span_only = (config.trace_sample > 0 and not recipe.faults
                 and recipe.store == "memory" and not args.metrics_prom)
    results_json: List[dict] = []
    for index, scheme in enumerate(_schemes(recipe.scheme)):
        telemetry = Telemetry(enabled=not span_only) if want_telemetry else None
        with contextlib.ExitStack() as stack:
            exporter = None
            if args.metrics_out:
                # Context-managed: flushes whatever telemetry exists even
                # when the run below raises, so partial runs stay debuggable.
                exporter = stack.enter_context(
                    JsonlExporter(telemetry, args.metrics_out, append=index > 0,
                                  per_op=not args.cluster_only)
                )
            result = simulate(
                scheme, workload, recipe.num_servers, config,
                telemetry=telemetry,
            )
            if exporter is not None:
                exporter.set_summary(result.to_dict())
        if exporter is not None:
            print(f"wrote {exporter.count} telemetry records to "
                  f"{args.metrics_out}", file=sys.stderr)
        if args.metrics_prom:
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


def _print_finding(seed: int, violations: List[str], *notes: str) -> None:
    """A failing seed on stderr: its violations, then ``notes``."""
    print(f"\nseed {seed} violated invariants:", file=sys.stderr)
    for line in [f"- {violation}" for violation in violations] + list(notes):
        print(f"  {line}", file=sys.stderr)


def cmd_chaos(args) -> int:
    from repro.chaos import ChaosReport

    # An explicit --fault plan replaces the generated schedule for every
    # seed — this is how the printed replay lines (and minimized corpus
    # counterexamples) re-run deterministically.
    recipe = recipe_from(args)
    report = ChaosReport(recipe)
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        report.cases.append(
            dataclasses.replace(recipe, seed=seed).run_sim(
                args.store_dir, trace_sample=args.trace_sample
            )
        )
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
    # Dump exact replay lines so every violation reproduces
    # deterministically outside the harness.
    for case in report.violations:
        replay = dataclasses.replace(
            recipe, seed=case.seed, faults=case.specs
        ).to_argv()
        _print_finding(case.seed, case.violations,
                       f"replay: repro {' '.join(replay)}")
    return 0 if report.ok else 1


def cmd_hunt(args) -> int:
    from repro.chaos import promote_findings, run_hunt

    report = run_hunt(
        recipe_from(args),
        range(args.seed_base, args.seed_base + args.seeds),
        store_dir=args.store_dir,
        shrink=not args.no_shrink,
        max_probes=args.max_probes,
        live=args.live,
        socket_dir=args.socket_dir,
    )
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
    for case in report.findings:
        shrink = case.shrink
        _print_finding(
            case.seed,
            case.violations
            + [f"[live] {v}" for v in case.live_violations or ()],
            *([] if shrink is None else [
                f"shrink: {'; '.join(shrink.steps) or 'no-op'} "
                f"({shrink.probes} probes"
                + (", budget exhausted" if shrink.truncated else "") + ")"
            ]),
            f"replay: {case.replay}",
        )
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    report = recipe_from(args).run_live(args.socket_dir)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        lat = report.latency
        print(f"{report.scheme} {report.trace} M={report.num_servers} "
              f"monitors={report.num_monitors} transport={report.transport}")
        print(f"  acked {report.acked}/{report.operations}"
              f"  failed {report.failed}  retries {report.retries}"
              f"  redirects {report.redirects}"
              f"  index cache {report.index_cache_hits} hit"
              f" / {report.index_cache_misses} miss")
        print(f"  throughput {report.throughput:,.0f} op/s"
              f"  latency mean {lat['mean'] * 1e3:.2f} ms"
              f"  p99 {lat['p99'] * 1e3:.2f} ms")
        print(f"  epoch {report.epoch}  failovers {report.failovers}"
              f"  dropped {report.messages_dropped}"
              f"  faults {len(report.faults)}"
              f"  {'ok' if report.ok else 'INVARIANT VIOLATIONS'}")
    for violation in report.violations:
        print(f"  - {violation}", file=sys.stderr)
    return 0 if report.ok else 1


def _ratio(value, suffix: str = "x") -> str:
    return "n/a" if value is None else f"{value:.3f}{suffix}"


def cmd_validate(args) -> int:
    from repro.transport.serve import validate_transports

    recipe = recipe_from(args)
    comparison = validate_transports(recipe, args.socket_dir)
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
    # What both legs ran: one recipe.
    print(
        f"  recipe     seed {recipe.seed}  heartbeat "
        f"{recipe.heartbeat_interval:g}/{recipe.heartbeat_timeout:g} s"
        f"  lease {recipe.lease_timeout or '2x timeout'}"
        f"  max-retries {recipe.max_retries}  faults {len(recipe.faults)}"
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
    for violation in comparison["violations"]:
        print(f"  - {violation}", file=sys.stderr)
    if comparison["ok"] and not delta["acked_matches"]:
        # The two transports acknowledged different operation sets: a
        # divergence even when each side individually passed its audit.
        print(f"  - acked mismatch: live acked {live['acked']} vs "
              f"simulated {sim['operations']}", file=sys.stderr)
    return 0 if comparison["ok"] and delta["acked_matches"] else 1


FIGURE_LABELS = {
    "fig5": "throughput (ops/s)",
    "fig6": "locality (E-9)",
    "fig7": "balance degree",
}


def cmd_figure(args) -> int:
    workload = load_workload(_profile(args))
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

        trace = load_trace(args.input)
    else:
        trace = load_workload(_profile(args)).trace
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

    records = read_jsonl(args.input)
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
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
