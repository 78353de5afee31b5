"""The live data path routes like the paper (Sec. IV-A2).

Global-layer reads are served by whichever replica receives them, a
local-layer op goes straight to its subtree owner through the client's
cached inter-node index, and both sides hold state sized by the index
(global layer + subtree roots), never by the namespace.
"""

import asyncio
import dataclasses
import types

import pytest

from repro import registry
from repro.cluster.index import RoutingIndex, covering_entry
from repro.cluster.client import INDEX_CACHE_SIZE
from repro.cluster.messages import ClientReply, ClientRequest, Directive
from repro.traces import DatasetProfile, OpType, load_workload
from repro.transport.asyncio_net import AsyncioTransport
from repro.transport.live import LiveCluster, LiveConfig, LiveMDS
from repro.transport.base import mds_addr
from repro.transport.loadgen import LoadConfig, LoadGenerator, _Op
from tests.conftest import index_size, live_audit, ops_trace
from repro.transport.serve import serve_workload
from repro.transport.wire import encode_frame
from tests.history_sink import HistorySink

NUM_SERVERS = 4
SEED = 7


def _workload(num_nodes, num_ops):
    profile = dataclasses.replace(
        DatasetProfile.dtr(num_nodes=num_nodes, scale=1e-4), seed=SEED
    )
    bundle = load_workload(profile.scaled(num_operations=num_ops))
    return dataclasses.replace(bundle, trace=bundle.trace.slice(0, num_ops))


@pytest.fixture(scope="module")
def workload():
    return _workload(600, 1500)


def _live_cfg():
    return LiveConfig(num_servers=NUM_SERVERS, num_monitors=3, seed=SEED)


def _with_cluster(workload, body, scheme="d2-tree"):
    """Boot a cluster, run ``await body(cluster)``, stop it."""

    async def go():
        cluster = LiveCluster(registry.create(scheme), workload, _live_cfg())
        await cluster.start()
        try:
            # start() returns once the boot broadcast is sent, not applied.
            for _ in range(500):
                if all(index_size(mds.index) for mds in cluster.servers):
                    break
                await asyncio.sleep(0.01)
            return await body(cluster)
        finally:
            await cluster.stop()

    return asyncio.run(go())


# ----------------------------------------------------------------------
# The shared prefix walk
# ----------------------------------------------------------------------
def test_covering_entry_is_the_longest_indexed_prefix():
    index = {"/": 0, "/a": 1, "/a/b/c": 2}.get
    assert covering_entry("/a/b/c/d", index) == ("/a/b/c", 2)
    assert covering_entry("/a/b", index) == ("/a", 1)
    assert covering_entry("/ab", index) == ("/", 0)
    assert covering_entry("/", index) == ("/", 0)
    assert covering_entry("/x/y", {"/a": 1}.get) is None
    assert covering_entry("", {}.get) is None


def test_routing_index_round_trips_through_a_directive():
    index = RoutingIndex([("/", (0, 1)), ("/g", (1, 0))], [("/g/r", 1)])
    directive = Directive(epoch=3, kind="rehome", info=index.to_info())
    rebuilt = RoutingIndex.from_info(
        Directive.from_wire(directive.to_wire()).info
    )
    assert rebuilt.global_layer == index.global_layer
    assert rebuilt.roots == index.roots
    mds = LiveMDS(0, AsyncioTransport(mode="tcp"), LiveConfig(num_servers=2, num_monitors=0))
    mds.index = rebuilt
    assert mds.route(ClientRequest(1, "/g", "read")) == ("ack", 0, "")
    assert mds.route(ClientRequest(1, "/g", "update")) == ("redirect", 1, "")
    assert mds.route(ClientRequest(1, "/g/r/x/y", "read")) == ("redirect", 1, "/g/r")
    assert mds.route(ClientRequest(1, "/elsewhere", "read")) == ("error", -1, "")


@pytest.mark.parametrize("info", [
    (),
    (("roots", [["/a", 0]]),),
    (("global_layer", 5), ("roots", [])),
    (("global_layer", []), ("roots", [["/a"]])),
    (("global_layer", [["/", ["x"]]]), ("roots", [])),
    (("global_layer", [["/", []]]), ("roots", [])),
])
def test_a_malformed_index_payload_is_a_value_error(info):
    with pytest.raises(ValueError, match="malformed routing index"):
        RoutingIndex.from_info(info)


# ----------------------------------------------------------------------
# (b) locality of a fault-free D2 serve
# ----------------------------------------------------------------------
def test_fault_free_d2_serve_is_mostly_single_hop(workload):
    report = serve_workload(
        registry.create("d2-tree"), workload, _live_cfg(),
        LoadConfig(rate=1e6, max_inflight=4, seed=SEED),
    )
    assert report.violations == []
    assert report.acked == len(workload.trace)
    assert report.redirects / report.acked <= 0.25
    # Every op was routed once: by a cached entry or by a random draw.
    assert (
        report.index_cache_hits + report.index_cache_misses
        == report.operations
    )
    assert report.index_cache_hits > 0
    assert report.to_dict()["index_cache_hits"] == report.index_cache_hits


def test_global_layer_reads_are_acked_by_any_replica(workload):
    placement = registry.create("d2-tree").partition(workload.tree, NUM_SERVERS)
    tree = workload.tree
    global_paths = {tree.path(node) for node in placement.split.global_layer}
    reads = ops_trace(
        (r.path, r.op.value) for r in workload.trace
        if r.path in global_paths and r.op is not OpType.UPDATE
    )
    assert len(reads) > 50

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, reads,
            LoadConfig(rate=1e6, max_inflight=4, seed=SEED),
        )
        sink = HistorySink()
        generator.history.listen(sink)
        load = await generator.run()
        return load, sink, live_audit(cluster, generator)

    load, sink, violations = _with_cluster(workload, body)
    assert violations == []
    assert load.acked == len(reads)
    # Fully replicated: no global-layer read pays a second hop, and the
    # acks come from more than one server.
    assert load.redirects == 0
    ackers = {event.server for event in sink.events if event.kind == "ok"}
    assert len(ackers) > 1


def test_global_layer_updates_are_acked_by_the_primary_only(workload):
    async def body(cluster):
        index = RoutingIndex.of(cluster.placement)
        path, replicas = next(iter(sorted(index.global_layer.items())))
        assert len(replicas) == NUM_SERVERS
        verdicts = {
            (op, mds.server_id): mds.route(ClientRequest(1, path, op))
            for mds in cluster.servers for op in ("read", "update")
        }
        return replicas[0], verdicts

    primary, verdicts = _with_cluster(workload, body)
    for (op, server), (status, owner, root) in verdicts.items():
        assert root == ""  # no index entry to learn for a global path
        if op == "read" or server == primary:
            assert (status, owner) == ("ack", server)
        else:
            assert (status, owner) == ("redirect", primary)


# ----------------------------------------------------------------------
# (c) a stale client entry costs exactly one redirect
# ----------------------------------------------------------------------
def test_a_stale_client_entry_costs_one_redirect_then_is_corrected(workload):
    placement = registry.create("d2-tree").partition(workload.tree, NUM_SERVERS)
    tree = workload.tree
    root, owner = max(
        placement.subtree_owner.items(), key=lambda item: len(tree.children(item[0]))
    )
    below = [root] + list(tree.descendants(root))
    ops = ops_trace((tree.path(node), "read") for node in (below * 3)[:12])
    wrong = (owner + 1) % NUM_SERVERS

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
        )
        generator.index_cache.put(tree.path(root), (wrong, 0))
        load = await generator.run()
        return load, generator.index_cache.peek(tree.path(root))

    load, entry = _with_cluster(workload, body)
    assert load.acked == len(ops)
    assert load.retries == 0
    # The first op bounces off the wrong server once; every later op goes
    # straight to the owner. No ping-pong.
    assert load.redirects == 1
    assert entry is not None and entry[0] == owner
    assert load.index_cache_hits == len(ops)


def test_the_redirect_of_an_op_that_then_fails_is_counted(workload):
    """One attempt only: the op the stale entry sends to the wrong server
    is redirected, and its budget is spent before it can follow. The
    redirect is on record with its ``fail``, so the report counts it."""
    tree = workload.tree
    placement = registry.create("d2-tree").partition(tree, NUM_SERVERS)
    root, owner = next(iter(placement.subtree_owner.items()))
    wrong = (owner + 1) % NUM_SERVERS

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops_trace([(tree.path(root), "read")]),
            LoadConfig(rate=1e6, max_inflight=1, max_retries=1, seed=SEED),
        )
        generator.index_cache.put(tree.path(root), (wrong, 0))
        sink = HistorySink()
        generator.history.listen(sink)
        return await generator.run(), sink

    load, sink = _with_cluster(workload, body)
    assert (load.acked, load.failed, load.redirects) == (0, 1, 1)
    assert [(e.kind, e.jumps) for e in sink.events] == [("invoke", 0), ("fail", 1)]


def test_fault_free_redirects_are_the_servers_redirects(workload):
    """Update-heavy and fault-free: every redirect a server sent was
    followed, so the clients' log and the servers' counters agree."""
    ops = ops_trace((r.path, "update") for r in workload.trace.slice(0, 400))

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=4, seed=SEED),
        )
        load = await generator.run()
        return load, sum(mds.redirects for mds in cluster.servers)

    load, redirects = _with_cluster(workload, body)
    assert load.acked == len(ops) and load.failed == load.indeterminate == 0
    assert load.redirects == redirects > 0


def test_an_unreachable_cached_owner_is_forgotten_not_retried_per_op(workload):
    tree = workload.tree
    placement = registry.create("d2-tree").partition(tree, NUM_SERVERS)
    root, owner = next(iter(placement.subtree_owner.items()))
    tree = workload.tree
    ops = ops_trace([(tree.path(root), "read")] * 6)

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
        )
        # A server id nobody listens on: the connect is refused.
        generator.index_cache.put(tree.path(root), (NUM_SERVERS + 3, 0))
        load = await generator.run()
        return load, generator.index_cache.peek(tree.path(root))

    load, entry = _with_cluster(workload, body)
    assert load.acked == len(ops)
    assert load.retries == 1  # the dead entry was tried exactly once
    assert entry is not None and entry[0] == owner


# ----------------------------------------------------------------------
# (d) a global-layer update's primary, learned from its redirect
# ----------------------------------------------------------------------
def _global_paths(workload):
    """The global layer's ``(path, replicas)``, in path order."""
    placement = registry.create("d2-tree").partition(workload.tree, NUM_SERVERS)
    return sorted(RoutingIndex.of(placement).global_layer.items())


def _acks_and_retries(sink):
    ok = {e.op_id: e for e in sink.events if e.kind == "ok"}
    return ok, [e for e in sink.events if e.kind == "retry"]


def test_a_second_update_on_a_global_path_goes_straight_to_its_primary(workload):
    """Three updates on each of eight global-layer paths, one at a time:
    the first redirect on a path teaches its primary, so a path takes at
    most one redirect, and every later update on it none."""
    layer = _global_paths(workload)[:8]
    ops = ops_trace((path, "update") for path, _ in layer for _ in range(3))

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
        )
        sink = HistorySink()
        generator.history.listen(sink)
        load = await generator.run()
        learned = {path: generator.primaries.peek(path) for path, _ in layer}
        return load, sink, learned, live_audit(cluster, generator)

    load, sink, learned, violations = _with_cluster(workload, body)
    assert violations == [] and load.acked == len(ops) and load.retries == 0
    ok, _ = _acks_and_retries(sink)
    taught = 0
    for index, (path, replicas) in enumerate(layer):
        jumps = [ok[3 * index + k].jumps for k in range(3)]
        assert all(ok[3 * index + k].server == replicas[0] for k in range(3))
        assert sum(jumps) <= 1
        if sum(jumps):
            taught += 1
            assert learned[path][0] == replicas[0]
            assert jumps[jumps.index(1) + 1:] == [0] * (2 - jumps.index(1))
    assert taught > 0 and load.redirects == taught


def test_global_reads_and_writes_are_never_routed_by_a_learned_primary(workload):
    """Every global-layer path's learned primary names a server nobody
    listens on: reads and writes keep their random entry, so none is sent
    there (no retry), and the entries stay as they were."""
    layer = _global_paths(workload)[:8]
    ops = ops_trace(
        (path, op) for path, _ in layer for op in ("read", "write", "read")
    )
    dead = NUM_SERVERS + 3

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=4, seed=SEED),
        )
        for path, _ in layer:
            generator.primaries.put(path, (dead, 0))
        load = await generator.run()
        return load, [generator.primaries.peek(path) for path, _ in layer]

    load, learned = _with_cluster(workload, body)
    assert load.acked == len(ops)
    assert load.retries == load.redirects == 0
    assert learned == [(dead, 0)] * len(layer)
    assert load.index_cache_misses == len(ops)


def test_a_stale_primary_costs_one_redirect_then_is_learned_again(workload):
    """The learned primary is evicted (a false positive: it stays up) and
    the global layer re-homed. The first update bounces off it once; the
    redirect names the new primary, and every later update goes there."""
    path, replicas = _global_paths(workload)[0]
    stale = replicas[0]
    ops = ops_trace([(path, "update")] * 6)

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
        )
        generator.primaries.put(path, (stale, 0))
        # Held for the run, so no Monitor round re-admits the server.
        async with cluster._deciding:
            cluster.control.evict(stale, asyncio.get_running_loop().time())
            await cluster._reconcile()
            for _ in range(500):
                if all(m.index.global_layer[path][0] != stale for m in cluster.servers):
                    break
                await asyncio.sleep(0.01)
            load = await generator.run()
        primary = cluster.servers[0].index.global_layer[path][0]
        return load, generator.primaries.peek(path), primary

    load, learned, primary = _with_cluster(workload, body)
    assert primary != stale
    assert load.acked == len(ops) and load.retries == 0
    assert load.redirects == 1
    assert learned[0] == primary and learned[1] > 0


@pytest.mark.parametrize("how", ["refused", "timed out"])
def test_an_unreachable_primary_is_forgotten_not_retried_per_op(workload, how, monkeypatch):
    """The learned primary refuses the connection (nothing listens there)
    or loses every frame: the first update on the path pays for it, is
    retried elsewhere, and no later update is sent there."""
    path, replicas = _global_paths(workload)[0]
    ops = ops_trace([(path, "update")] * 6)
    gone = NUM_SERVERS + 3 if how == "refused" else (replicas[0] + 1) % NUM_SERVERS
    cfg = LoadConfig(rate=1e6, max_inflight=1, seed=SEED, request_timeout=0.02)
    monkeypatch.setattr("repro.cluster.client.RETRY_BACKOFF_BASE", 0.001)
    monkeypatch.setattr("repro.cluster.client.RETRY_BACKOFF_CAP", 0.002)

    async def body(cluster):
        if how == "timed out":
            cluster.transport.set_loss(mds_addr(gone), 1.0)
        generator = LoadGenerator(cluster.transport, NUM_SERVERS, ops, cfg)
        generator.primaries.put(path, (gone, 0))
        sink = HistorySink()
        generator.history.listen(sink)
        load = await generator.run()
        cluster.transport.clear_endpoint(mds_addr(gone))
        return load, sink, generator.primaries.peek(path)

    load, sink, learned = _with_cluster(workload, body)
    _, retries = _acks_and_retries(sink)
    assert load.acked == len(ops)
    assert retries and {e.op_id for e in retries} == {0}
    assert {e.server for e in retries} == {gone}
    assert learned is None or learned[0] == replicas[0]


def test_hostile_root_less_redirects_never_grow_the_primary_map_past_its_bound():
    """A server that answers every update with a redirect naming no root
    teaches one primary per distinct path: the map stays at its LRU bound,
    holding the latest. A root-less redirect of a read teaches nothing."""
    paths = [f"/h{i}" for i in range(3 * INDEX_CACHE_SIZE)]
    ops = ops_trace([(path, "update") for path in paths] + [("/read", "read")])
    generator = LoadGenerator(types.SimpleNamespace(faulty=False), NUM_SERVERS, ops)
    generator._retry = lambda op: None  # the follow-up send is not under test
    held = []
    for op_id in range(len(ops)):
        op = _Op(op_id, b"", 0.0, "", 0)
        generator._on_reply(op, ClientReply(op_id, "redirect", 0, op_id % NUM_SERVERS, 0, ""))
        held.append(len(generator.primaries._data))
    assert max(held) == INDEX_CACHE_SIZE
    assert list(generator.primaries._data) == paths[-INDEX_CACHE_SIZE:]
    assert generator.primaries.peek("/read") is None
    assert len(generator.index_cache._data) == 0


# ----------------------------------------------------------------------
# (e) a baseline scheme served live
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["static-subtree", "static-hash"])
def test_a_baseline_scheme_serves_live(workload, scheme):
    report = serve_workload(
        registry.create(scheme), workload, _live_cfg(),
        LoadConfig(rate=1e6, max_inflight=4, seed=SEED),
    )
    assert report.violations == []
    assert report.acked == report.operations == len(workload.trace)
    assert report.failed == report.indeterminate == 0


# ----------------------------------------------------------------------
# Bounded state: the index, not the namespace
# ----------------------------------------------------------------------
def test_directive_and_mds_state_scale_with_the_index_not_the_tree():
    """Growing the namespace under a fixed set of subtree roots must not
    grow what an MDS holds or what a broadcast carries."""

    def index_of(workload):
        async def body(cluster):
            directive = cluster._ownership_directive(0.0)
            frame = encode_frame(directive.to_wire())
            return cluster.placement, [index_size(s.index) for s in cluster.servers], len(frame)

        return _with_cluster(workload, body)

    for nodes in (600, 2400):
        workload = _workload(nodes, 50)
        placement, held, frame_bytes = index_of(workload)
        entries = len(placement.split.global_layer) + len(placement.subtree_owner)
        assert entries < len(workload.tree) / 2
        assert held == [entries] * NUM_SERVERS
        # A frame entry is a path plus a server list: well under 100 bytes
        # each, where a map of the tree would be one such entry per node.
        assert frame_bytes < 100 * entries
