"""Tests for the cluster substrate: caches, locks, servers, monitor, clients."""

import random
from collections import OrderedDict

import pytest

from repro.cluster import (
    Heartbeat,
    LockManager,
    LRUCache,
    MonitorGroup,
    SimClient,
)
from repro.chaos.history import HistorySink, OpHistory
from repro.core import D2TreeScheme
from repro.simulation import ClusterSimulator, FaultPlan, SimulationConfig
from tests.conftest import build_random_tree


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------
def test_cache_put_get():
    cache = LRUCache(2)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("b") is None


def test_cache_eviction_order():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a
    cache.put("c", 3)  # evicts b
    assert "a" in cache
    assert "b" not in cache
    assert "c" in cache


def test_cache_put_refreshes_recency():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    cache.put("c", 3)  # evicts b, not a
    assert cache.get("a") == 10
    assert "b" not in cache


def test_cache_peek_does_not_touch_stats():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.peek("a")
    cache.peek("missing")
    assert cache.stats() == (0, 0)


def test_cache_hit_rate():
    cache = LRUCache(4)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    assert cache.hit_rate == pytest.approx(0.5)


def test_cache_invalidate():
    cache = LRUCache(2)
    cache.put("a", 1)
    assert cache.invalidate("a")
    assert not cache.invalidate("a")


def test_cache_clear_and_len():
    cache = LRUCache(3)
    cache.put("a", 1)
    cache.put("b", 2)
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0


def test_cache_capacity_validation():
    with pytest.raises(ValueError):
        LRUCache(0)


class _ReferenceLRU:
    """The textbook LRU on an ``OrderedDict``, the model ``LRUCache`` must
    match call for call."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = OrderedDict()
        self.hits = self.misses = 0

    def get(self, key):
        if key in self.data:
            self.data.move_to_end(key)
            self.hits += 1
            return self.data[key]
        self.misses += 1
        return None

    def peek(self, key):
        return self.data.get(key)

    def put(self, key, value):
        if key in self.data:
            self.data.move_to_end(key)
        self.data[key] = value
        if len(self.data) > self.capacity:
            self.data.popitem(last=False)

    def invalidate(self, key):
        existed = key in self.data
        self.data.pop(key, None)
        return existed

    def clear(self):
        self.data.clear()


@pytest.mark.parametrize("capacity", [1, 2, 3, 4, 5])
def test_cache_matches_a_reference_lru(capacity):
    rng = random.Random(capacity)
    keys = "abcdefg"
    values = [0, None, 1, 2, "x"]
    for _ in range(40):
        cache, ref = LRUCache(capacity), _ReferenceLRU(capacity)
        for _ in range(60):
            op = rng.choice(("get", "get", "put", "put", "peek", "invalidate", "clear"))
            args = (rng.choice(keys),)
            if op == "put":
                args += (rng.choice(values),)
            elif op == "clear":
                args = ()
            assert getattr(cache, op)(*args) == getattr(ref, op)(*args), (op, args)
            assert list(cache._data.items()) == list(ref.data.items())
            assert len(cache) == len(ref.data)
            assert cache.stats() == (ref.hits, ref.misses)
            assert all((key in cache) == (key in ref.data) for key in keys)


# ----------------------------------------------------------------------
# LockManager
# ----------------------------------------------------------------------
def test_lock_serializes_same_key():
    locks = LockManager()
    first = locks.acquire("/a", now=0.0, hold_for=1.0)
    second = locks.acquire("/a", now=0.0, hold_for=1.0)
    assert first == 0.0
    assert second == 1.0  # queued behind the first holder
    # An idle gap: the key was released at 2.0, so a request at 10.0 waits
    # for nothing and the queueing delay so far is the second acquire's.
    assert locks.acquire("/a", now=10.0, hold_for=1.0) == 10.0
    assert locks.total_wait == pytest.approx(1.0)


def test_lock_keys_independent():
    locks = LockManager()
    locks.acquire("/a", now=0.0, hold_for=5.0)
    assert locks.acquire("/b", now=0.0, hold_for=1.0) == 0.0
    assert len(locks) == 2


def test_lock_acquire_latency_added():
    locks = LockManager(acquire_latency=0.5)
    assert locks.acquire("/a", now=0.0, hold_for=1.0) == 0.5


def test_lock_contention_metric():
    locks = LockManager()
    locks.acquire("/a", 0.0, 2.0)
    locks.acquire("/a", 0.0, 2.0)
    assert locks.contention() == pytest.approx(1.0)
    assert locks.acquisitions == 2


def test_lock_negative_hold_rejected():
    locks = LockManager()
    with pytest.raises(ValueError):
        locks.acquire("/a", 0.0, -1.0)


def test_lock_negative_latency_rejected():
    with pytest.raises(ValueError):
        LockManager(acquire_latency=-0.1)


# ----------------------------------------------------------------------
# A server's service queue: the replay's per-server CPU columns
# (``ClusterSimulator.busy_until`` / ``busy_time`` / ``served``) priced by
# the cost column derived from ``MetadataServer.alive`` / ``slow_factor``
# ----------------------------------------------------------------------
def _replay(workload, servers, *faults, **overrides):
    """Replay ``workload``; returns the simulator, the result and every
    distinct per-visit cost column the loop derived, in order."""
    overrides.setdefault("num_clients", 20)
    config = SimulationConfig(
        adjust_every_ops=0, fault_plan=FaultPlan.parse(list(faults)), **overrides
    )
    sim = ClusterSimulator(D2TreeScheme(), workload, servers, config)
    columns = []
    derive = sim._service_costs

    def recording():
        column = derive()
        if not columns or columns[-1] != column:
            columns.append(column)
        return column

    sim._service_costs = recording
    return sim, sim.run(), columns


def test_server_fifo_queueing(tiny_dtr_workload):
    """One server, three clients, whole-second visits and no network: visits
    are served one at a time in arrival order, each queued behind the ones
    that arrived before it."""
    history = OpHistory()
    sim = ClusterSimulator(
        D2TreeScheme(), tiny_dtr_workload, 1,
        SimulationConfig(
            num_clients=3, service_time=1.0, hop_latency=0.0,
            lock_acquire_latency=0.0, lock_hold_time=0.0, adjust_every_ops=0,
        ),
    )
    sim.control.history = history
    sink = HistorySink()
    history.listen(sink)
    result = sim.run()
    acks = [event for event in sink.events if event.kind == "ok"]
    assert [event.t for event in acks] == [
        float(n) for n in range(1, len(tiny_dtr_workload.trace) + 1)
    ]
    # Client c re-issues the moment its reply lands and finds the other two
    # ahead of it, every time.
    assert [event.client for event in acks[:9]] == [0, 1, 2] * 3
    assert result.latency.p50 == result.latency.maximum == 3.0


def test_server_work_scaling(tiny_dtr_workload):
    """The cost of a visit follows ``slow_factor``: up at a ``fail_slow``,
    back at the rejoin, and the loop serves at the column's price."""
    unit = SimulationConfig().service_time
    slowed = [unit, unit * 8.0, unit, unit]
    # With a replica write priced like a visit, every booking costs one unit.
    healthy, _, columns = _replay(tiny_dtr_workload, 4, replica_write_work=1.0)
    assert columns == [[unit] * 4]
    assert healthy.busy_time == pytest.approx([unit * n for n in healthy.served])
    rejoined, _, columns = _replay(
        tiny_dtr_workload, 4, "fail_slow:1@ops=300:x8", "recover:1@ops=900",
        replica_write_work=1.0,
    )
    assert columns == [[unit] * 4, slowed, [unit] * 4]
    stuck, _, columns = _replay(
        tiny_dtr_workload, 4, "fail_slow:1@ops=300:x8", replica_write_work=1.0
    )
    assert columns == [[unit] * 4, slowed]

    def per_visit(sim, sid):
        return sim.busy_time[sid] / sim.served[sid]

    assert per_visit(stuck, 1) > per_visit(rejoined, 1) > unit * 1.5
    assert per_visit(rejoined, 0) == pytest.approx(unit)


def test_server_failure_blocks_processing(tiny_dtr_workload):
    """A crashed server has no visit cost and books nothing until it
    rejoins; a server that never comes back serves strictly less."""
    unit = SimulationConfig().service_time
    down = [unit, None, unit, unit]
    gone, _, columns = _replay(tiny_dtr_workload, 4, "crash:1@ops=300")
    assert columns == [[unit] * 4, down]
    back, result, columns = _replay(
        tiny_dtr_workload, 4, "crash:1@ops=300", "recover:1@ops=900"
    )
    assert columns == [[unit] * 4, down, [unit] * 4]
    assert result.availability.rejoins == 1
    assert back.served[1] > gone.served[1] > 0
    assert back.busy_time[1] > gone.busy_time[1]


def test_server_service_time_validation(tiny_dtr_workload):
    """Input validation, where the config is read."""
    with pytest.raises(ValueError, match="service_time"):
        ClusterSimulator(
            D2TreeScheme(), tiny_dtr_workload, 4, SimulationConfig(service_time=0)
        )


# ----------------------------------------------------------------------
# Monitor
# ----------------------------------------------------------------------
@pytest.fixture
def monitored_cluster():
    tree = build_random_tree(300)
    scheme = D2TreeScheme(global_layer_fraction=0.05)
    placement = scheme.partition(tree, 4)
    monitor = MonitorGroup(
        scheme, tree, placement, replicas=1, heartbeat_timeout=10.0
    )
    return tree, scheme, placement, monitor


def test_monitor_heartbeats(monitored_cluster):
    _tree, _scheme, _placement, monitor = monitored_cluster
    monitor.on_heartbeat(Heartbeat(server=0, time=1.0))
    assert monitor._last_seen.get(0) == 1.0
    assert monitor._last_seen.get(1) is None


def test_monitor_failure_detection(monitored_cluster):
    _tree, _scheme, _placement, monitor = monitored_cluster
    monitor.on_heartbeat(Heartbeat(0, 0.0))
    monitor.on_heartbeat(Heartbeat(1, 9.0))
    assert monitor.detect_failures(now=12.0) == [0]


def test_monitor_rebalance_counts(monitored_cluster):
    tree, _scheme, placement, monitor = monitored_cluster
    for root in list(placement.subtree_owner):
        placement.move_subtree(root, 0)
    migrations = monitor.rebalance()
    assert monitor.rebalances == 1
    assert monitor.total_migrations == len(migrations)


# ----------------------------------------------------------------------
# SimClient
# ----------------------------------------------------------------------
def test_client_pick_any_in_range():
    client = SimClient(0, num_servers=4, seed=1)
    assert all(0 <= client.randbelow(4) < 4 for _ in range(50))


def test_randbelow_matches_stdlib_draw_for_draw():
    # randbelow reimplements Random._randbelow's rejection sampling through
    # the public getrandbits API; both must consume the identical bit stream
    # and yield the identical sequence, including awkward non-power-of-two
    # bounds that trigger rejections.
    import random as stdlib_random

    for seed in (0, 1, 7):
        for n in (1, 2, 3, 5, 7, 16, 100, 1023):
            client = SimClient(3, num_servers=4, seed=seed)
            reference = stdlib_random.Random((seed << 20) ^ 3)
            ours = [client.randbelow(n) for _ in range(200)]
            theirs = [reference.randrange(n) for _ in range(200)]
            assert ours == theirs, (seed, n)


def test_randbelow_rejects_nonpositive_bounds():
    client = SimClient(0, num_servers=4)
    with pytest.raises(ValueError):
        client.randbelow(0)
    with pytest.raises(ValueError):
        client.randbelow(-3)


def test_clients_with_different_ids_diverge():
    a = SimClient(0, num_servers=16, seed=5)
    b = SimClient(1, num_servers=16, seed=5)
    seq_a = [a.randbelow(16) for _ in range(20)]
    seq_b = [b.randbelow(16) for _ in range(20)]
    assert seq_a != seq_b
