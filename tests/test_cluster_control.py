"""ClusterControl driven directly: no trace, no sockets, no replay loop.

The control plane (fault application, evict, readmit, quiesce) is one
object shared by the simulator, the chaos harness and the live cluster;
these tests hold it to its contract with nothing around it but the
collaborators it is built from.
"""

import pathlib
import re

import pytest

from repro.chaos.history import OpHistory
from repro.cluster import MetadataServer, MonitorGroup
from repro.cluster.control import ClusterControl
from repro.cluster.failure import check_state_invariants
from repro.cluster.messages import Heartbeat
from repro.core import D2TreeScheme
from repro.obs.spans import SpanRecorder
from repro.placement import DEAD_CAPACITY
from repro.simulation import FaultEvent, FaultKind, SimNetwork, mds_addr, mon_addr
from repro.storage import make_store
from tests.conftest import build_random_tree

SERVERS = 4
TIMEOUT = 1.0


class Cluster:
    """A control plane over bare collaborators, plus a heartbeat helper."""

    def __init__(self, store="memory", store_dir=None, spans=None):
        self.tree = build_random_tree(300, seed=11)
        scheme = D2TreeScheme()
        self.placement = scheme.partition(self.tree, SERVERS)
        self.network = SimNetwork(seed=5)
        self.group = MonitorGroup(
            scheme, self.tree, self.placement, replicas=3,
            heartbeat_timeout=TIMEOUT, lease_timeout=TIMEOUT,
            expected_servers=range(SERVERS), network=self.network,
        )
        self.servers = [MetadataServer(sid) for sid in range(SERVERS)]
        self.store = make_store(store, directory=store_dir)
        if self.store.durable:
            self.group.journal.bind_store(self.store)
        self.moved = []
        self.control = ClusterControl(
            self.servers, self.placement, self.group, self.network,
            self.store, spans=spans,
            on_moves=lambda moves, now: self.moved.append((now, len(moves))),
        )

    def fault(self, spec, now):
        """``kind:target[:suffix]`` applied now (the trigger is implied)."""
        kind, target, *suffix = spec.split(":")
        event = FaultEvent.parse(":".join([f"{kind}:{target}@t={now}", *suffix]))
        self.control.apply_fault(event, now)
        return event

    def beat_round(self, now):
        """Every live server beats through the fabric, then one round."""
        for server in self.servers:
            if server.alive and self.network.deliver(
                mds_addr(server.server_id), self.group.leader_addr, now
            ) is not None:
                self.control.on_heartbeat(
                    Heartbeat(server.server_id, now, 0.0, 0.0)
                )
        self.control.round(now)

    def owners(self):
        return set(self.placement.subtree_owner.values())

    def violations(self):
        return check_state_invariants(
            self.placement, self.tree, self.servers, self.group
        )


@pytest.fixture
def cluster():
    return Cluster()


# ----------------------------------------------------------------------
# Every FaultKind, one at a time
# ----------------------------------------------------------------------
def test_every_fault_kind_lands_on_the_shared_state(cluster):
    control, net, group = cluster.control, cluster.network, cluster.group
    seen = set()

    def fire(spec):
        seen.add(cluster.fault(spec, 0.1).kind)

    fire("crash:0")
    assert not cluster.servers[0].alive and not cluster.servers[0].lost_volatile
    fire("kill9:1")
    assert not cluster.servers[1].alive and cluster.servers[1].lost_volatile
    fire("fail_slow:2:x8")
    assert cluster.servers[2].slow_factor == 8.0
    fire("drop_heartbeats:2")
    assert cluster.servers[2].muted
    assert net.deliver(mds_addr(2), mon_addr(0), 0.1) is None
    fire("loss:3:p1.0")
    assert net.data_arrival("client", mds_addr(3), 0.1) is None
    fire("delay:3:d0.5")
    fire("partition:{0,1}|{2,3,m0}")
    assert not net.reachable(mds_addr(0), mon_addr(0))
    assert control.availability.partitions == 1
    fire("heal:*")
    assert net.reachable(mds_addr(0), mon_addr(0))
    fire("monitor_crash:0")
    assert not group.replica_alive[0]
    fire("monitor_recover:0")
    assert group.replica_alive[0]
    # Storeless, the damage kinds are plain kill9s (nothing to tear).
    fire("recover:0")
    fire("torn_write:0")
    assert cluster.servers[0].lost_volatile
    fire("recover:1")
    fire("corrupt_record:1")
    assert cluster.servers[1].lost_volatile
    fire("recover:3")
    assert not net.faulty or cluster.servers[2].muted  # only the mute is left
    assert seen == set(FaultKind)
    assert control.availability.crashes == 4


# ----------------------------------------------------------------------
# Evict -> readmit
# ----------------------------------------------------------------------
def test_silent_server_is_evicted_then_readmitted_by_its_heartbeat(cluster):
    control = cluster.control
    cluster.beat_round(0.1)
    cluster.fault("crash:2", 0.2)
    cluster.beat_round(0.5)
    assert not cluster.group.is_dead(2) and 2 in cluster.owners()
    cluster.beat_round(0.2 + TIMEOUT + 0.1)
    assert cluster.group.is_dead(2)
    assert cluster.placement.capacities[2] <= DEAD_CAPACITY
    assert 2 not in cluster.owners()
    assert control.availability.detection_latency[2] == pytest.approx(1.1)
    assert control.availability.unavailability == pytest.approx(1.1)
    # Survivors that took subtrees over fenced on the eviction's epoch.
    assert max(s.fence_epoch for s in cluster.servers if s.alive) == 1

    # The process comes back on its own (no `recover` event): its first
    # beat clears the death mark and the round re-admits it.
    cluster.servers[2].recover()
    cluster.beat_round(2.0)
    assert not cluster.group.is_dead(2) and 2 in cluster.owners()
    assert control.availability.rejoins == 1
    assert [n for _, n in cluster.moved] and all(n for _, n in cluster.moved)
    assert cluster.violations() == []


def test_drop_heartbeats_is_a_false_positive_cleared_by_recover(cluster):
    control = cluster.control
    cluster.beat_round(0.1)
    cluster.fault("fail_slow:1:x8", 0.2)
    cluster.fault("drop_heartbeats:1", 0.2)
    cluster.beat_round(0.2 + TIMEOUT + 0.1)
    assert cluster.servers[1].alive and cluster.group.is_dead(1)
    assert control.availability.false_detections == 1
    assert control.availability.crashes == 0
    assert control.availability.unavailability == 0.0
    assert 1 not in cluster.owners()
    # `recover` on an up-but-degraded server clears the degradation and
    # re-admits it on the spot — no heartbeat round, no quiesce needed.
    cluster.fault("recover:1", 2.0)
    server = cluster.servers[1]
    assert server.slow_factor == 1.0 and not server.muted
    assert not cluster.network.faulty
    assert not cluster.group.is_dead(1) and 1 in cluster.owners()


def test_lifecycle_spans_hang_off_the_failover_chain():
    rec = SpanRecorder(1, seed=0)
    cluster = Cluster(spans=rec)
    cluster.beat_round(0.1)
    cluster.fault("crash:3", 0.2)
    cluster.beat_round(1.5)
    cluster.fault("recover:3", 2.0)
    names = [span.name for span in rec.spans]
    assert names == [
        "heartbeat_miss", "detect", "evict", "journal_commit", "fence",
        "recovery", "journal_commit", "rejoin",
    ]


# ----------------------------------------------------------------------
# Quorum and fencing
# ----------------------------------------------------------------------
def test_quorumless_readmit_stays_evicted_and_retries_next_round(cluster):
    control, group = cluster.control, cluster.group
    cluster.beat_round(0.1)
    cluster.fault("crash:1", 0.2)
    cluster.beat_round(1.4)
    assert group.is_dead(1)
    # Strand the leader on a minority side: nothing it decides commits.
    cluster.fault("partition:{0,1,2,3,m0}|{m1,m2}", 1.5)
    assert not group.can_commit()
    cluster.fault("recover:1", 1.6)
    assert cluster.servers[1].alive          # locally up ...
    assert group.is_dead(1)                  # ... but still evicted
    assert cluster.placement.capacities[1] <= DEAD_CAPACITY
    assert group.aborted_directives == 1 and control.availability.rejoins == 0
    # Its beats keep nominating it; every round aborts while quorumless.
    cluster.beat_round(1.7)
    assert group.is_dead(1) and group.aborted_directives == 2
    # Quorum back: the very next beat-and-round commits the rejoin.
    cluster.fault("heal:*", 1.8)
    cluster.beat_round(1.9)
    assert not group.is_dead(1) and 1 in cluster.owners()
    assert control.availability.rejoins == 1
    assert cluster.violations() == []


def test_stale_epoch_rejoin_is_rejected_by_the_fence(cluster):
    control, group = cluster.control, cluster.group
    cluster.beat_round(0.1)
    cluster.fault("crash:2", 0.2)
    cluster.beat_round(1.4)
    before = dict(cluster.placement.subtree_owner)
    # Server 2 already applied a directive from a newer leadership epoch
    # than the (deposed) leader now re-admitting it.
    cluster.servers[2].fence_epoch = group.epoch + 1
    cluster.fault("recover:2", 1.5)
    assert cluster.servers[2].fenced_directives == 1
    assert control.availability.rejoins == 0
    assert cluster.placement.subtree_owner == before     # nothing moved back
    assert cluster.placement.capacities[2] <= DEAD_CAPACITY


def test_a_heartbeat_in_flight_across_a_crash_does_not_resurrect(cluster):
    cluster.beat_round(0.1)
    cluster.fault("drop_heartbeats:0", 0.2)
    cluster.beat_round(1.4)
    assert cluster.group.is_dead(0)
    # The evicted server's beat reaches the leader, then it crashes before
    # the round runs: the nomination must lapse, not restart the process.
    cluster.control.on_heartbeat(Heartbeat(0, 1.5, 0.0, 0.0))
    cluster.fault("crash:0", 1.5)
    cluster.control.round(1.6)
    assert not cluster.servers[0].alive and cluster.group.is_dead(0)
    assert cluster.control.availability.rejoins == 0


# ----------------------------------------------------------------------
# kill9 family against a server that is already down
# ----------------------------------------------------------------------
def test_kill9_on_a_down_server_wipes_nothing_and_counts_once(cluster):
    cluster.control.history = history = OpHistory()
    cluster.beat_round(0.1)
    cluster.servers[1].accept_directive(1)
    cluster.fault("crash:1", 0.2)
    cluster.fault("kill9:1", 0.3)
    server = cluster.servers[1]
    assert not server.lost_volatile and server.fence_epoch == 1
    assert cluster.control.availability.crashes == 1
    assert history.counts()["wipes"] == 0
    cluster.fault("recover:1", 0.4)
    cluster.fault("kill9:1", 0.5)
    assert server.lost_volatile and server.fence_epoch == 0
    assert [(e.kind, e.server, e.t) for e in history.events] == [("wipe", 1, 0.5)]


def test_tail_damage_on_a_down_server_still_forces_a_replay(tmp_path):
    cluster = Cluster(store="wal", store_dir=str(tmp_path))
    try:
        cluster.beat_round(0.1)
        cluster.store.append_ack(1, 1, "/a", 0.1)
        cluster.store.append_mutation(1, "grant", "/a", 0.1)
        cluster.fault("crash:1", 0.2)
        cluster.fault("torn_write:1", 0.3)
        assert cluster.servers[1].lost_volatile
        ledger = cluster.control.durability
        assert ledger.kill9_crashes == 0 and ledger.torn_writes == 1
        cluster.fault("recover:1", 0.4)
        assert ledger.recoveries[-1].truncated and ledger.violations == []
    finally:
        cluster.store.close()


# ----------------------------------------------------------------------
# Quiesce
# ----------------------------------------------------------------------
def test_quiesce_from_an_arbitrary_degraded_state(cluster):
    control = cluster.control
    cluster.beat_round(0.1)
    for spec in (
        "crash:0", "kill9:1", "fail_slow:2:x8", "drop_heartbeats:2",
        "loss:3:p0.5", "delay:3:d0.01", "monitor_crash:0",
        "partition:{0,1}|{2,3,m0,m1,m2}",
    ):
        cluster.fault(spec, 0.2)
    for step in range(1, 40):       # lease failover, evictions, the lot
        cluster.beat_round(0.2 + step * 0.1)
    assert cluster.group.epoch > 1
    control.quiesce(5.0)
    assert all(s.alive and s.slow_factor == 1.0 and not s.muted
               for s in cluster.servers)
    assert not cluster.network.faulty and all(cluster.group.replica_alive)
    assert not any(cluster.group.is_dead(s) for s in range(SERVERS))
    assert cluster.owners() == set(range(SERVERS))
    for step in range(3):
        cluster.beat_round(5.1 + step * 0.1)
    assert cluster.violations() == []
    control.close_unavailability(6.0)
    assert control.availability.crashes == 2


# ----------------------------------------------------------------------
# Structure: a second applier cannot quietly grow back
# ----------------------------------------------------------------------
def test_fault_kinds_are_dispatched_in_exactly_one_place():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    users = sorted(
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if re.search(r"\bFaultKind\.", path.read_text())
    )
    assert users == ["cluster/control.py", "simulation/faults.py"]
