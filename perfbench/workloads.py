"""The six workloads: inputs from a seed, the timed region, output checks.

Everything here drives ``repro`` through its public entry points only
(``TraceGenerator.generate``, ``ClusterSimulator(...).run()``,
``serve_workload``); nothing under ``src/`` knows it is being measured.
Why each workload exists is recorded once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import registry
from repro.cluster.cache import LRUCache
from repro.simulation.faults import FaultPlan
from repro.simulation.runner import ClusterSimulator, SimulationConfig, simulate
from repro.traces import DatasetProfile, TraceGenerator
from repro.transport.live import LiveConfig
from repro.transport.loadgen import LoadConfig
from repro.transport.serve import serve_workload

from pace import Pace, Timing

#: Scratch space (WAL directories, unix sockets). Relative on purpose:
#: ``run.py`` changes into the repo root, and a unix socket path must fit
#: in ~108 bytes however deep the checkout sits.
OUT = os.path.join("perfbench", "out")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Timed repeats per run at least, however short ``--seconds`` is.
MIN_REPEATS = 3
#: Every timed region has the pace kernel run directly before and after it,
#: and every time reported is the region's corrected time (see ``pace.py``).
#: This is the weight of the kernel's cache-missing loop, by kind of
#: workload. Over ten minutes of back-to-back repeats of one workload the
#: spread between 20-repeat medians was narrowest at these weights (tried:
#: 0, 1/4, 1/2, 3/4, 1). The simulator chases pointers through trees and
#: arenas larger than a core's caches; the live cluster's working set is a
#: few sockets and a ledger, and with any weight on the walk its corrected
#: times spread wider than its uncorrected ones.
WALK_WEIGHT = {"sim": 0.5, "serve": 0.0}
#: Un-timed live warm-up, so the first timed repeat does not pay for
#: lazy imports and cold allocator pools in its latency percentiles.
WARMUP_OPS = 1000

_scratch_ids = itertools.count()


@dataclass(frozen=True)
class Spec:
    """One workload's shape. ``ops`` is per scheme (sim) or per repeat (serve)."""

    name: str
    kind: str  # "sim" | "serve"
    profile: str  # DatasetProfile constructor: "dtr" | "lmbe" | "ra"
    nodes: int
    ops: int
    servers: int
    schemes: Tuple[str, ...] = ("d2-tree",)
    #: ``(kind:target, fraction of ops, suffix)``, resolved against ``ops``.
    faults: Tuple[Tuple[str, float, str], ...] = ()
    durable: bool = False
    #: Differenced ``run()`` variants of the traced run (see ``sim_config``).
    variants: Tuple[str, ...] = ("default", "adjust_off")
    #: serve: requests outstanding. The load generator is an open-loop
    #: Poisson source whose in-flight cap, once hit, makes it a closed loop;
    #: ``CLOSED_LOOP_RATE`` keeps it on the cap from the first request.
    inflight: int = 0


BASELINES = ("static-subtree", "dynamic-subtree", "drop", "anglecut", "static-hash")

SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("sim_replay", "sim", "dtr", 8_000, 120_000, 8,
             variants=("default", "adjust_off", "spans")),
        Spec("sim_rebalance", "sim", "lmbe", 50_000, 100_000, 16),
        Spec("sim_schemes", "sim", "dtr", 8_000, 40_000, 8, schemes=BASELINES),
        Spec("sim_faulted_durable", "sim", "ra", 20_000, 40_000, 8,
             faults=(
                 ("kill9:1", 0.10, ""),
                 ("recover:1", 0.40, ""),
                 ("fail_slow:2", 0.50, ":x4"),
                 ("crash:3", 0.60, ""),
                 ("recover:3", 0.80, ""),
             ),
             durable=True,
             variants=("default", "faults_only", "perop")),
        Spec("serve_serial", "serve", "dtr", 8_000, 3_000, 4, inflight=1),
        # 8 outstanding, not 32: at 32 a fault-free sizing run starved the
        # heartbeats and the Monitor evicted all four live servers.
        Spec("serve_saturated", "serve", "ra", 8_000, 4_000, 4, inflight=8),
    )
}

NUM_MONITORS = 3
CLOSED_LOOP_RATE = 1e6
#: Appends per server between WAL snapshots: about ten snapshots a run. At
#: the default 512 there are ~85, and each one's rename-over and truncate
#: makes ext4 flush synchronously - the WAL has to live in the checkout,
#: on disk, and those stalls swung identical runs by up to 2.5x.
SNAPSHOT_EVERY = 4096


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def summary(samples: Sequence[float]) -> Dict[str, object]:
    """Median with min/max and the samples themselves (``compare.py`` reads them)."""
    values = [float(v) for v in samples]
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": values,
    }


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scratch_dir(prefix: str) -> str:
    path = os.path.join(OUT, f"{prefix}-{os.getpid()}-{next(_scratch_ids)}")
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def generate(spec: Spec, seed: int):
    """The workload's tree and trace; the same seed gives the same inputs.

    ``TraceGenerator.generate`` is ``load_workload`` without its process
    cache, so every call pays the full generation cost ``setup_s`` reports.
    """
    profile = getattr(DatasetProfile, spec.profile)(spec.nodes)
    profile = replace(
        profile.scaled(num_operations=spec.ops), seed=profile.seed + seed
    )
    return TraceGenerator(profile).generate()


def fault_plan(spec: Spec) -> FaultPlan:
    return FaultPlan.parse([
        f"{head}@ops={int(spec.ops * fraction)}{suffix}"
        for head, fraction, suffix in spec.faults
    ])


def sim_config(spec: Spec, seed: int, variant: str, store_dir: Optional[str]) -> SimulationConfig:
    """``default`` is the workload as specified; the other variants differ
    from it in one input each, so a difference of two runs prices a layer."""
    cfg: Dict[str, object] = {"seed": seed}
    if spec.faults and variant != "perop":
        cfg.update(num_monitors=NUM_MONITORS, fault_plan=fault_plan(spec))
    if store_dir is not None:
        cfg.update(store="wal", store_dir=store_dir, snapshot_every=SNAPSHOT_EVERY)
    if variant == "adjust_off":
        cfg["adjust_every_ops"] = 0
    elif variant == "spans":
        cfg["trace_sample"] = 100
    elif variant == "perop":
        cfg["simulate_engine"] = "perop"
    elif variant not in ("default", "faults_only"):
        raise ValueError(f"unknown variant {variant!r}")
    return SimulationConfig(**cfg)


# ----------------------------------------------------------------------
# sim: construct, replay, check
# ----------------------------------------------------------------------
@dataclass
class Replay:
    """One timed pass: ``run()`` of every scheme of the workload, each call
    timed on its own with the pace kernel on both sides of it."""

    timings: List[Timing]
    results: list
    #: Useful / attempts of the owner index and the client caches, averaged
    #: over the schemes (read off the simulators, which are not kept: a
    #: run's peak RSS must not grow with its number of repeats).
    hit_rates: Dict[str, float]

    @property
    def wall(self) -> float:
        """Corrected seconds of the pass."""
        return sum(t.corrected for t in self.timings)

    @property
    def operations(self) -> int:
        return sum(r.operations for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.failed_operations for r in self.results)


def build_sims(spec: Spec, inputs, seed: int, variant: str = "default"):
    """Partition and construct one simulator per scheme (set-up, un-timed)."""
    durable = spec.durable and variant == "default"
    sims, dirs = [], []
    for scheme in spec.schemes:
        store_dir = scratch_dir("wal") if durable else None
        if store_dir:
            dirs.append(store_dir)
        sims.append(ClusterSimulator(
            registry.create(scheme), inputs, spec.servers,
            sim_config(spec, seed, variant, store_dir),
        ))
    return sims, dirs


def close_sims(sims, dirs) -> None:
    for sim in sims:
        sim.close()
    for path in dirs:
        shutil.rmtree(path, ignore_errors=True)


def timed_replay(spec: Spec, inputs, seed: int, pace: Pace, variant: str = "default") -> Replay:
    sims, dirs = build_sims(spec, inputs, seed, variant)
    gc.collect()
    gc.disable()  # collector pauses stay out of the timed region
    timings, results = [], []
    try:
        for sim in sims:
            with pace.timed() as timing:
                results.append(sim.run())
            timings.append(timing)
    finally:
        gc.enable()
        close_sims(sims, dirs)
    hit_rates = {
        "routing.owner_index_hit_rate": statistics.mean(sim.engine.hit_rate for sim in sims),
        "cluster.index_cache_hit_rate": statistics.mean(
            LRUCache.merged_hit_rate(c.index_cache for c in sim.clients) for sim in sims
        ),
        "cluster.prefix_cache_hit_rate": statistics.mean(
            LRUCache.merged_hit_rate(c.prefix_cache for c in sim.clients) for sim in sims
        ),
    }
    return Replay(timings, results, hit_rates)


def digest_of(results) -> str:
    """Hash of every scheme's full result: any model change moves it."""
    blob = json.dumps([r.to_dict() for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_sim(spec: Spec, inputs, replays: Sequence[Replay]) -> Tuple[List[str], str]:
    """Output checks over every repeat; returns ``(failures, digest)``."""
    failures: List[str] = []
    expected_ops = len(inputs.trace)
    digests = set()
    for index, replay in enumerate(replays):
        digests.add(digest_of(replay.results))
        for result in replay.results:
            where = f"repeat {index} {result.scheme}"
            if result.operations != expected_ops:
                failures.append(
                    f"{where}: operations {result.operations} != trace {expected_ops}"
                )
            if result.failed_operations:
                failures.append(f"{where}: {result.failed_operations} operations failed")
            if spec.durable:
                failures.extend(
                    f"{where}: {problem}" for problem in _durability_problems(result)
                )
    if len(digests) != 1:
        failures.append(f"result digest differs between repeats: {sorted(digests)}")
    return failures, sorted(digests)[0]


def _durability_problems(result) -> List[str]:
    """fsync-before-ack, as far as counters can show it. The simulator's
    store runs with ``fsync=False``: a "fsync" is a flush to the OS."""
    stats = result.durability
    if stats is None:
        return ["durable run reported no durability block"]
    problems = []
    acked = result.operations - result.failed_operations
    if stats["acked_ops"] != acked:
        problems.append(f"ledger acked_ops {stats['acked_ops']} != completed {acked}")
    if stats["fsyncs"] < stats["acked_ops"]:
        problems.append(f"fsyncs {stats['fsyncs']} < acked_ops {stats['acked_ops']}")
    if stats["violations"]:
        problems.append(f"durability violations {stats['violations']}")
    return problems


def measure_sim(spec: Spec, seed: int, seconds: float) -> Dict[str, object]:
    pace = Pace(WALK_WEIGHT[spec.kind])
    setups: List[float] = []
    inputs = None
    for _ in range(SETUPS):
        inputs = None  # drop the previous copy first: peak RSS holds one
        with pace.timed() as timing:
            inputs = generate(spec, seed)
            close_sims(*build_sims(spec, inputs, seed))
        setups.append(timing.corrected)

    replays: List[Replay] = []
    began = time.perf_counter()
    while len(replays) < MIN_REPEATS or time.perf_counter() - began < seconds:
        replays.append(timed_replay(spec, inputs, seed, pace))
    failures, digest = check_sim(spec, inputs, replays)

    results = replays[0].results
    total_ops = replays[0].operations
    return {
        "checks": failures,
        "digest": digest,
        "attempted": sum(r.operations for r in replays),
        "failed": sum(r.failed for r in replays),
        "host_speed": pace.host_speed(),
        "metrics": {
            "setup_s": summary(setups),
            "ops_per_s": summary([r.operations / r.wall for r in replays]),
            # The request a simulator user waits for is one run().
            "latency_p50_ms": summary([r.wall * 1e3 for r in replays]),
            "hops_per_op": summary([1.0 + sum(r.jumps_total for r in results) / total_ops]),
            "model_ops_per_s": summary([geomean([r.throughput for r in results])]),
            "peak_rss_mb": summary([peak_rss_mb()]),
        },
    }


# ----------------------------------------------------------------------
# serve: boot, load, check
# ----------------------------------------------------------------------
@dataclass
class Served:
    """One ``serve_workload`` call, the wall clock and the pace around it."""

    timing: Timing
    report: object

    @property
    def loaded(self) -> float:
        """Corrected seconds of the loaded part of the call."""
        return self.report.duration / self.timing.slowness

    @property
    def boot_stop(self) -> float:
        """Boot, quiesce and stop: the call's wall minus the loaded part."""
        return self.timing.corrected - self.loaded

    def latency_ms(self, percentile: str) -> float:
        return self.report.latency[percentile] / self.timing.slowness * 1e3


def timed_serve(
    spec: Spec, inputs, seed: int, load_seed: int, socket_dir: str, pace: Pace
) -> Served:
    live_cfg = LiveConfig(
        num_servers=spec.servers, num_monitors=NUM_MONITORS,
        transport="unix", socket_dir=socket_dir, seed=seed,
    )
    load_cfg = LoadConfig(rate=CLOSED_LOOP_RATE, max_inflight=spec.inflight, seed=load_seed)
    with pace.timed() as timing:
        report = serve_workload(registry.create(spec.schemes[0]), inputs, live_cfg, load_cfg)
    return Served(timing, report)


def warm_up(spec: Spec, inputs, seed: int, socket_dir: str, pace: Pace) -> None:
    warm = replace(inputs, trace=inputs.trace.slice(0, WARMUP_OPS))
    timed_serve(spec, warm, seed, seed, socket_dir, pace)


def check_serve(spec: Spec, serves: Sequence[Served]) -> List[str]:
    failures: List[str] = []
    for index, served in enumerate(serves):
        report = served.report
        where = f"repeat {index}"
        if report.violations:
            failures.append(f"{where}: invariant violations {report.violations}")
        settled = report.acked + report.failed + report.indeterminate
        if report.operations != settled:
            failures.append(f"{where}: issued {report.operations} != settled {settled}")
        if report.failed or report.indeterminate:
            failures.append(
                f"{where}: {report.failed} failed, {report.indeterminate} indeterminate"
            )
        if report.failovers:
            failures.append(f"{where}: {report.failovers} monitor failovers in a fault-free run")
    return failures


def simulated_counterpart(spec: Spec, inputs, seed: int) -> float:
    """Model throughput of the same workload and cluster shape, the pairing
    ``repro validate`` makes (placement static, as live mode's is)."""
    live = LiveConfig()
    result = simulate(
        registry.create(spec.schemes[0]), inputs, spec.servers,
        SimulationConfig(
            adjust_every_ops=0, num_monitors=NUM_MONITORS, seed=seed,
            heartbeat_interval=live.heartbeat_interval,
            heartbeat_timeout=live.heartbeat_timeout,
        ),
    )
    return result.throughput


def measure_serve(spec: Spec, seed: int, seconds: float) -> Dict[str, object]:
    pace = Pace(WALK_WEIGHT[spec.kind])
    generations: List[float] = []
    inputs = None
    for _ in range(SETUPS):
        inputs = None
        with pace.timed() as timing:
            inputs = generate(spec, seed)
        generations.append(timing.corrected)
    model = simulated_counterpart(spec, inputs, seed)

    socket_dir = scratch_dir("sock")
    serves: List[Served] = []
    try:
        warm_up(spec, inputs, seed, socket_dir, pace)
        began = time.perf_counter()
        while len(serves) < MIN_REPEATS or time.perf_counter() - began < seconds:
            # Fresh entry-server draws per repeat, so repeats are samples.
            serves.append(timed_serve(
                spec, inputs, seed, seed * 1009 + len(serves), socket_dir, pace
            ))
    finally:
        shutil.rmtree(socket_dir, ignore_errors=True)
    failures = check_serve(spec, serves)

    reports = [s.report for s in serves]
    acked = sum(r.acked for r in reports)
    generation = statistics.median(generations)
    return {
        "checks": failures,
        "digest": "",  # wall-clock runs have no exact result to hash
        "attempted": sum(r.operations for r in reports),
        "failed": sum(r.failed + r.indeterminate for r in reports),
        "host_speed": pace.host_speed(),
        "metrics": {
            "setup_s": summary([generation + s.boot_stop for s in serves]),
            "ops_per_s": summary([s.report.acked / s.loaded for s in serves]),
            "latency_p50_ms": summary([s.latency_ms("p50") for s in serves]),
            "hops_per_op": summary([1.0 + sum(r.redirects for r in reports) / acked]),
            "model_ops_per_s": summary([model]),
            "peak_rss_mb": summary([peak_rss_mb()]),
        },
    }


def measure(spec: Spec, seed: int, seconds: float) -> Dict[str, object]:
    """The untraced run: every end-to-end metric of one workload."""
    os.makedirs(OUT, exist_ok=True)
    run = measure_sim if spec.kind == "sim" else measure_serve
    return run(spec, seed, seconds)
