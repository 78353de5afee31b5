"""The traced run: per-layer metrics, measured from outside ``src/repro``.

A layer is priced in one of two ways, both on the workload's own inputs:
by timing calls into its public functions (trace decode, route planning,
partitioning, the WAL store, the wire codec, the socket transport), or by
differencing two ``run()`` calls that differ in one input (adjustment
rounds, the fault plan, the durable store, span sampling). Every timed
call is a span of the benchmark's own recorder; the spans are written to
``perfbench/out/trace_<workload>.jsonl`` when the run ends.

Each traced run returns the metrics its workload exercises; ``run.py``
reports the others as 0 - the layer did no work there. Spans and the layer
times read off them are wall clock as it passed, not pace-corrected as the
end-to-end metrics are: a trace records what happened. The run's
``host_speed`` is printed beside them for rescaling.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro import registry
from repro.cluster.client import SimClient
from repro.cluster.messages import ClientReply, ClientRequest, from_wire, to_wire
from repro.simulation.routing import make_engine
from repro.simulation.runner import SimulationConfig
from repro.storage import make_store
from repro.traces import iter_op_batches
from repro.transport.asyncio_net import AsyncioTransport
from repro.transport.base import CLIENT_ADDR, mds_addr
from repro.transport.wire import decode_payload, encode_frame

import workloads
from pace import Pace
from workloads import Spec

#: Plan-only replay window, the simulator's dispatch prefetch default.
PLAN_WINDOW = SimulationConfig().batch_size
#: Round trips per echo measurement, and the pipelined depth (the
#: in-flight cap of ``serve_saturated``).
ECHO_ROUND_TRIPS = 3000
ECHO_PIPELINE = 8
MIN_PASSES = 2


class Spans:
    """In-memory span recorder: name, start, end, parent, workload, counts."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: List[Dict[str, object]] = []
        self._open: List[int] = []

    def add(self, name: str, start: float, end: float, **counts) -> Dict[str, object]:
        record = {
            "id": len(self.records),
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "name": name,
            "start": start,
            "end": end,
            **counts,
        }
        self.records.append(record)
        return record

    @contextmanager
    def span(self, name: str, **counts) -> Iterator[Dict[str, object]]:
        record = self.add(name, time.perf_counter(), 0.0, **counts)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self, record: Dict[str, object]) -> float:
        """Duration minus the part child spans cover (children never overlap)."""
        children = sum(
            r["end"] - r["start"] for r in self.records if r["parent"] == record["id"]
        )
        return record["end"] - record["start"] - children

    def select(self, name: str, **match) -> List[Dict[str, object]]:
        return [
            r for r in self.records
            if r["name"] == name and all(r.get(k) == v for k, v in match.items())
        ]

    def median(self, name: str, self_time: bool = False, **match) -> float:
        """Median seconds of the matching spans (0 when there are none)."""
        records = self.select(name, **match)
        if not records:
            return 0.0
        if self_time:
            return statistics.median(self.self_seconds(r) for r in records)
        return statistics.median(r["end"] - r["start"] for r in records)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Direct calls into one layer
# ----------------------------------------------------------------------
def plan_replay(spec: Spec, inputs, spans: Spans) -> None:
    """Plan every op once per scheme, with nothing else of the simulator.

    The ``routing.plan`` span holds the decode and the harness's own window
    building as children, so its self time is the ``plan_batch`` calls alone.
    """
    tree = inputs.tree
    num_clients = SimulationConfig().num_clients
    for scheme in spec.schemes:
        placement = registry.create(scheme).partition(tree, spec.servers)
        engine = make_engine("fast", tree, placement)
        clients = [SimClient(cid, spec.servers) for cid in range(num_clients)]
        with spans.span("routing.plan", scheme=scheme, ops=len(inputs.trace)):
            with spans.span("traces.decode", ops=len(inputs.trace)):
                batches = list(iter_op_batches(inputs.trace, tree))
            with spans.span("harness.windows"):
                triples = [
                    (clients[index % num_clients], node, op)
                    for index, (node, op) in enumerate(
                        pair
                        for batch in batches
                        for pair in zip(batch.nodes, batch.ops())
                    )
                ]
                windows = [
                    triples[base:base + PLAN_WINDOW]
                    for base in range(0, len(triples), PLAN_WINDOW)
                ]
            for window in windows:
                engine.plan_batch(window)


def storage_direct(inputs, spans: Spans) -> None:
    """One ack per op of the trace into a fresh WAL, then a full replay of it.

    ``snapshot_every=0`` keeps the whole log, so the append cost is the
    append and its flush alone and the recovery replays every record.
    """
    directory = workloads.scratch_dir("wal-direct")
    store = make_store("wal", directory=directory, snapshot_every=0)
    try:
        records = inputs.trace.records
        with spans.span("storage.append", appends=len(records)) as span:
            for op_id, record in enumerate(records):
                store.append_ack(0, op_id, record.path, record.timestamp)
        span["wal_bytes"] = store.stats()["wal_bytes"]
        with spans.span("storage.recover") as span:
            recovered = store.recover_server(0)
        span["replayed_records"] = recovered.replayed_records
    finally:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)


def wire_codec(inputs, spans: Spans) -> None:
    """Encode and decode one request and one reply per op of the trace."""
    request_bytes = reply_bytes = 0
    with spans.span("wire.codec", hops=len(inputs.trace)) as span:
        for op_id, record in enumerate(inputs.trace):
            request = encode_frame(to_wire(ClientRequest(op_id, record.path, record.op.value)))
            from_wire(decode_payload(request[4:]))
            reply = encode_frame(to_wire(ClientReply(op_id, "ack", 0, owner=0, epoch=1)))
            from_wire(decode_payload(reply[4:]))
            request_bytes += len(request)
            reply_bytes += len(reply)
    span["request_bytes"] = request_bytes
    span["reply_bytes"] = reply_bytes


async def _echo(frame: bytes, outstanding: int, socket_dir: str) -> float:
    """Seconds for ``ECHO_ROUND_TRIPS`` frames to go to an echo endpoint and
    back with ``outstanding`` in flight. Raw bytes both ways: the JSON codec
    is ``wire.codec``'s cost, not the socket's."""
    transport = AsyncioTransport(mode="unix", socket_dir=socket_dir)
    server = mds_addr(0)
    size = len(frame)

    async def handler(reader, writer) -> None:
        while True:
            data = await reader.readexactly(size)
            await transport.send_data(server, CLIENT_ADDR, writer, data)

    await transport.start_endpoint(server, handler)
    try:
        reader, writer = await transport.connect(server)
        try:
            start = time.perf_counter()
            sent = received = 0
            while received < ECHO_ROUND_TRIPS:
                while sent < ECHO_ROUND_TRIPS and sent - received < outstanding:
                    await transport.send_data(CLIENT_ADDR, server, writer, frame)
                    sent += 1
                await reader.readexactly(size)
                received += 1
            return time.perf_counter() - start
        finally:
            writer.close()
    finally:
        await transport.close()


def socket_echo(inputs, spans: Spans, socket_dir: str) -> None:
    record = inputs.trace.records[0]
    frame = encode_frame(to_wire(ClientRequest(0, record.path, record.op.value)))
    for outstanding in (1, ECHO_PIPELINE):
        seconds = asyncio.run(_echo(frame, outstanding, socket_dir))
        end = time.perf_counter()
        spans.add(
            "asyncio_net.echo", end - seconds, end,
            outstanding=outstanding, round_trips=ECHO_ROUND_TRIPS,
        )


# ----------------------------------------------------------------------
# The traced run of a sim workload
# ----------------------------------------------------------------------
def trace_sim(spec: Spec, seed: int, seconds: float, spans: Spans) -> Dict[str, object]:
    pace = Pace(workloads.WALK_WEIGHT[spec.kind])
    with spans.span("setup"):
        with spans.span("traces.generate", ops=spec.ops):
            inputs = workloads.generate(spec, seed)
        with spans.span("core.partition", schemes=len(spec.schemes)):
            for scheme in spec.schemes:
                registry.create(scheme).partition(inputs.tree, spec.servers)

    replays = []
    began = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - began < seconds:
        passes += 1
        with spans.span("pass"):
            for variant in spec.variants:
                replay = workloads.timed_replay(spec, inputs, seed, pace, variant)
                for scheme, timing, result in zip(spec.schemes, replay.timings, replay.results):
                    spans.add(
                        "runner.run", timing.start, timing.end,
                        variant=variant, scheme=scheme, cpu=timing.cpu, ops=result.operations,
                    )
                if variant == "default":
                    replays.append(replay)
            plan_replay(spec, inputs, spans)
            if spec.durable:
                storage_direct(inputs, spans)
    failures, digest = workloads.check_sim(spec, inputs, replays)

    replay = replays[0]
    results = replay.results
    ops = replay.operations

    def run_us(variant: str) -> float:
        """Median microseconds per op of one variant's ``run()`` calls, a pass's
        schemes summed."""
        return sum(
            spans.median("runner.run", variant=variant, scheme=scheme)
            for scheme in spec.schemes
        ) * 1e6 / ops

    total = run_us("default")
    cpu = sum(
        statistics.median(
            r["cpu"] for r in spans.select("runner.run", variant="default", scheme=scheme)
        )
        for scheme in spec.schemes
    )
    decode = spans.median("traces.decode") * 1e6 / len(inputs.trace)
    plan = spans.median("routing.plan", self_time=True) * 1e6 / len(inputs.trace)
    layers = {
        "traces.generate_us_per_op": spans.median("traces.generate") * 1e6 / spec.ops,
        "traces.decode_us_per_op": decode,
        "core.partition_ms": spans.median("core.partition") * 1e3 / len(spec.schemes),
        "core.migrations": sum(r.migrations for r in results),
        "routing.plan_us_per_op": plan,
        **replay.hit_rates,
        "runner.us_per_op": total,
        "runner.cpu_us_per_op": cpu * 1e6 / ops,
        "runner.jumps_per_op": sum(r.jumps_total for r in results) / ops,
        "runner.redirects_per_op": sum(r.redirects for r in results) / ops,
        "runner.lock_wait_model_s": sum(r.lock_waits for r in results),
        "runner.util_max": max(max(r.server_utilization) for r in results),
        "runner.retries": sum(r.retries for r in results),
        "runner.latency_model_p99_ms": max(r.latency.p99 for r in results) * 1e3,
    }

    # Without an adjust_off variant (the faulted workload prices its run
    # another way) adjustment and the loop's self time are not measured.
    adjusted = "adjust_off" in spec.variants
    adjust = total - run_us("adjust_off") if adjusted else 0.0
    rounds = sum(r.operations // SimulationConfig().adjust_every_ops for r in results)
    layers.update({
        "core.adjust_round_ms": adjust * ops / 1e3 / rounds if rounds else 0.0,
        "core.adjust_share": adjust / total,
        # Self time of run(): what is left once the separately priced layers
        # are taken out - the event heap, the service/lock model, the stats.
        "runner.loop_us_per_op": total - decode - plan - adjust if adjusted else 0.0,
        "obs.span_overhead_share": (
            (run_us("spans") - total) / total if "spans" in spec.variants else 0.0
        ),
    })

    if spec.durable:
        perop, faulted = run_us("perop"), run_us("faults_only")
        stats = results[0].durability
        append = spans.select("storage.append")[-1]
        layers.update({
            "runner.perop_us_per_op": perop,
            "faults.us_per_op": faulted - perop,
            "storage.us_per_op": total - faulted,
            "storage.share": (total - faulted) / total,
            "storage.append_us": spans.median("storage.append") * 1e6 / append["appends"],
            "storage.recover_ms": spans.median("storage.recover") * 1e3,
            "storage.appends": stats["appends"],
            "storage.fsyncs": stats["fsyncs"],
            "storage.snapshots": stats["snapshots"],
            "storage.wal_bytes_per_op": append["wal_bytes"] / append["appends"],
            "storage.replayed_records": stats["replayed_records"],
        })

    return {
        "checks": failures,
        "digest": digest,
        "attempted": sum(r.operations for r in replays),
        "failed": sum(r.failed for r in replays),
        "host_speed": pace.host_speed(),
        "layers": layers,
    }


# ----------------------------------------------------------------------
# The traced run of a serve workload
# ----------------------------------------------------------------------
def trace_serve(spec: Spec, seed: int, seconds: float, spans: Spans) -> Dict[str, object]:
    pace = Pace(workloads.WALK_WEIGHT[spec.kind])
    with spans.span("setup"):
        with spans.span("traces.generate", ops=spec.ops):
            inputs = workloads.generate(spec, seed)

    socket_dir = workloads.scratch_dir("sock")
    serves = []
    began = time.perf_counter()
    try:
        workloads.warm_up(spec, inputs, seed, socket_dir, pace)
        while len(serves) < MIN_PASSES or time.perf_counter() - began < seconds:
            with spans.span("pass"):
                served = workloads.timed_serve(
                    spec, inputs, seed, seed * 1009 + len(serves), socket_dir, pace
                )
                report = served.report
                spans.add(
                    "live.serve", served.timing.start, served.timing.end,
                    loaded=report.duration, acked=report.acked, redirects=report.redirects,
                )
                serves.append(served)
                wire_codec(inputs, spans)
                socket_echo(inputs, spans, socket_dir)
    finally:
        shutil.rmtree(socket_dir, ignore_errors=True)
    failures = workloads.check_serve(spec, serves)

    reports = [s.report for s in serves]
    acked = sum(r.acked for r in reports)
    redirects_per_op = sum(r.redirects for r in reports) / acked
    codec_span = spans.select("wire.codec")[-1]
    hops = codec_span["hops"]
    codec = spans.median("wire.codec") * 1e6 / hops
    rtt = spans.median("asyncio_net.echo", outstanding=1) * 1e6 / ECHO_ROUND_TRIPS
    # One hop is two messages: the request out and the reply back.
    per_message = (
        spans.median("asyncio_net.echo", outstanding=ECHO_PIPELINE) * 1e6
        / (2 * ECHO_ROUND_TRIPS)
    )
    # Serially, a hop waits out a whole round trip; pipelined, it costs the
    # loop two message handlings.
    socket_per_hop = rtt if spec.inflight == 1 else 2 * per_message
    per_op = statistics.median(r.duration / r.acked for r in reports) * 1e6
    per_hop = per_op / (1.0 + redirects_per_op)
    served_counts = [sum(column) for column in zip(*(r.per_server_served for r in reports))]

    layers = {
        "traces.generate_us_per_op": spans.median("traces.generate") * 1e6 / spec.ops,
        "wire.codec_us_per_hop": codec,
        "wire.request_bytes": codec_span["request_bytes"] / hops,
        "wire.reply_bytes": codec_span["reply_bytes"] / hops,
        "asyncio_net.rtt_us": rtt,
        "asyncio_net.pipelined_us_per_msg": per_message,
        "live.redirects_per_op": redirects_per_op,
        # What one hop costs beyond codec and socket: the MDS handler, the
        # load generator and asyncio's task switching.
        "live.residual_us_per_hop": per_hop - codec - socket_per_hop,
        "live.served_imbalance": max(served_counts) / statistics.mean(served_counts),
        "live.boot_quiesce_ms": statistics.median(
            s.timing.wall - s.report.duration for s in serves
        ) * 1e3,
        "live.failovers": sum(r.failovers for r in reports),
        "live.messages_dropped": sum(r.messages_dropped for r in reports),
        "loadgen.retries": sum(r.retries for r in reports),
        "loadgen.indeterminate": sum(r.indeterminate for r in reports),
        "loadgen.latency_p95_ms": statistics.median(r.latency["p95"] for r in reports) * 1e3,
        "loadgen.latency_p99_ms": statistics.median(r.latency["p99"] for r in reports) * 1e3,
    }
    return {
        "checks": failures,
        "digest": "",
        "attempted": sum(r.operations for r in reports),
        "failed": sum(r.failed + r.indeterminate for r in reports),
        "host_speed": pace.host_speed(),
        "layers": layers,
    }


def trace(spec: Spec, seed: int, seconds: float) -> Dict[str, object]:
    """The traced run: every per-layer metric of one workload."""
    os.makedirs(workloads.OUT, exist_ok=True)
    spans = Spans(spec.name)
    run = trace_sim if spec.kind == "sim" else trace_serve
    try:
        return run(spec, seed, seconds, spans)
    finally:
        spans.write(os.path.join(workloads.OUT, f"trace_{spec.name}.jsonl"))
