"""The live data path routes like the paper (Sec. IV-A2).

Global-layer reads are served by whichever replica receives them, a
local-layer op goes straight to its subtree owner through the client's
cached inter-node index, and both sides hold state sized by the index
(global layer + subtree roots), never by the namespace.
"""

import asyncio
import dataclasses

import pytest

from repro import registry
from repro.cluster.index import RoutingIndex, covering_entry
from repro.cluster.messages import ClientRequest, Directive
from repro.traces import DatasetProfile, load_workload
from repro.transport.live import LiveCluster, LiveConfig, check_invariants
from repro.transport.loadgen import LoadConfig, LoadGenerator, trace_ops
from repro.transport.serve import serve_workload
from repro.transport.wire import encode_frame

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
                if all(len(mds.index) for mds in cluster.servers):
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
    assert rebuilt.resolve("/g") == ("", (1, 0))
    assert rebuilt.resolve("/g/r/x/y") == ("/g/r", (1,))
    assert rebuilt.resolve("/elsewhere") is None


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
    global_paths = {node.path for node in placement.split.global_layer}
    reads = [
        (op_id, path, op) for op_id, path, op in trace_ops(workload.trace)
        if path in global_paths and op != "update"
    ]
    assert len(reads) > 50

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, reads,
            LoadConfig(rate=1e6, max_inflight=4, seed=SEED),
        )
        load = await generator.run()
        return load, check_invariants(cluster, load)

    load, violations = _with_cluster(workload, body)
    assert violations == []
    assert load.acked == len(reads)
    # Fully replicated: no global-layer read pays a second hop, and the
    # acks come from more than one server.
    assert load.redirects == 0
    ackers = {event.server for event in load.history.events if event.kind == "ok"}
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
    root, owner = max(
        placement.subtree_owner.items(), key=lambda item: len(item[0].children)
    )
    below = [root] + list(root.descendants())
    ops = [(i, node.path, "read") for i, node in enumerate(below * 3)][:12]
    wrong = (owner + 1) % NUM_SERVERS

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
        )
        generator.index_cache.put(root.path, (wrong, 0))
        load = await generator.run()
        return load, generator.index_cache.peek(root.path)

    load, entry = _with_cluster(workload, body)
    assert load.acked == len(ops)
    assert load.retries == 0
    # The first op bounces off the wrong server once; every later op goes
    # straight to the owner. No ping-pong.
    assert load.redirects == 1
    assert entry is not None and entry[0] == owner
    assert load.index_cache_hits == len(ops)


def test_an_unreachable_cached_owner_is_forgotten_not_retried_per_op(workload):
    placement = registry.create("d2-tree").partition(workload.tree, NUM_SERVERS)
    root, owner = next(iter(placement.subtree_owner.items()))
    ops = [(i, root.path, "read") for i in range(6)]

    async def body(cluster):
        generator = LoadGenerator(
            cluster.transport, NUM_SERVERS, ops,
            LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
        )
        # A server id nobody listens on: the connect is refused.
        generator.index_cache.put(root.path, (NUM_SERVERS + 3, 0))
        load = await generator.run()
        return load, generator.index_cache.peek(root.path)

    load, entry = _with_cluster(workload, body)
    assert load.acked == len(ops)
    assert load.retries == 1  # the dead entry was tried exactly once
    assert entry is not None and entry[0] == owner


# ----------------------------------------------------------------------
# (d) a baseline scheme served live
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
            return cluster.placement, [len(s.index) for s in cluster.servers], len(frame)

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
