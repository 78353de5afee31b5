"""MonitorGroup: lease failover, epoch fencing, quorum gating, the journal."""

import pytest

from repro.cluster import MetadataServer, MonitorGroup, PlacementJournal
from repro.cluster.messages import Directive, Heartbeat
from repro.core import D2TreeScheme
from repro.transport import FaultFabric, mon_addr
from tests.conftest import build_random_tree


def make_group(replicas=3, network=None, lease_timeout=1.0, servers=4):
    tree = build_random_tree(200, seed=9)
    scheme = D2TreeScheme()
    placement = scheme.partition(tree, servers)
    return MonitorGroup(
        scheme, tree, placement,
        replicas=replicas,
        heartbeat_timeout=1.0,
        lease_timeout=lease_timeout,
        expected_servers=range(servers),
        network=network,
    )


# ----------------------------------------------------------------------
# Singleton degradation
# ----------------------------------------------------------------------
def test_single_replica_degrades_to_singleton_monitor():
    group = make_group(replicas=1)
    assert group.epoch == 1 and group.leader == 0
    assert group.can_commit()
    group.on_heartbeat(Heartbeat(0, 0.5))
    assert group._last_seen[0] == 0.5
    assert not group.tick(10.0)  # healthy leader: lease renews implicitly
    assert group.epoch == 1 and group.failovers == 0


def test_group_needs_at_least_one_replica():
    with pytest.raises(ValueError):
        make_group(replicas=0)


# ----------------------------------------------------------------------
# Lease failover
# ----------------------------------------------------------------------
def test_leader_crash_triggers_lease_takeover():
    group = make_group(replicas=3, lease_timeout=1.0)
    group.crash_monitor(0, now=0.0)
    assert not group.can_commit()
    # First quorumless tick only starts the lease clock.
    assert not group.tick(0.5)
    assert group.leader == 0 and group.epoch == 1
    # Lease not yet expired.
    assert not group.tick(1.0)
    # Expired: lowest-numbered live replica with a quorum takes over.
    assert group.tick(2.0)
    assert group.leader == 1
    assert group.epoch == 2 and group.failovers == 1
    assert group.can_commit()
    # The election itself is journalled at the new epoch.
    elects = [d for d in group.journal if d.kind == "elect"]
    assert len(elects) == 1 and elects[0].epoch == 2


def test_failover_restores_membership_from_journal():
    group = make_group(replicas=3, lease_timeout=1.0)
    group.on_heartbeat(Heartbeat(2, 0.1))
    group.mark_dead(2, now=0.2)
    assert group.is_dead(2)
    group.crash_monitor(0, now=0.3)
    group.tick(0.4)
    assert group.tick(1.5)
    # The new leader inherits the journalled eviction, not private clocks:
    # server 2's clock reads the takeover, not its 0.1 beat.
    assert group.is_dead(2)
    assert group._last_seen[2] == 1.5
    # Fresh grace period: nothing is instantly re-evicted.
    assert group.detect_failures(1.6) == []


def test_readmission_restarts_the_clock():
    """A re-admitted server is judged from its re-admission, not from a
    beat before its outage, and the re-admission is journalled once."""
    group = make_group(replicas=1)
    timeout = group.heartbeat_timeout
    group.on_heartbeat(Heartbeat(2, 0.1))
    group.mark_dead(2, now=0.5)
    for other in (0, 1, 3):
        group.on_heartbeat(Heartbeat(other, 1.0))
    group.expect(2, 1.0)
    assert not group.is_dead(2)
    assert group.detect_failures(1.0 + timeout / 2) == []
    assert 2 in group.detect_failures(1.0 + timeout * 1.01)
    alive = [d for d in group.journal if d.kind == "mark_alive"]
    assert [(d.server, d.t) for d in alive] == [(2, 1.0)]


@pytest.mark.parametrize("outage", ["crash", "partition"])
def test_leader_back_inside_the_lease_restarts_the_clocks(outage):
    """A leader that was down or quorumless for longer than a heartbeat
    timeout, but not long enough for a takeover, heard no beats it could
    act on: it judges every server from the moment it is back."""
    net = FaultFabric()
    group = make_group(replicas=3, network=net, lease_timeout=5.0)
    timeout = group.heartbeat_timeout
    for server in range(4):
        group.on_heartbeat(Heartbeat(server, 0.1))
    if outage == "crash":
        group.crash_monitor(0, now=0.2)
    else:
        net.partition("p", [[mon_addr(0)], [mon_addr(1)], [mon_addr(2)]])
    assert not group.tick(0.3)
    assert group.detect_failures(1.5) == []  # no quorum: detection is off
    if outage == "crash":
        group.recover_monitor(0, now=2.0)
    else:
        net.heal("p")
    assert not group.tick(2.0)
    assert group.leader == 0 and group.epoch == 1
    assert group._last_seen == dict.fromkeys(range(4), 2.0)
    assert group.detect_failures(2.0 + timeout / 2) == []
    for server in (0, 1, 3):
        group.on_heartbeat(Heartbeat(server, 2.5))
    assert group.detect_failures(2.0 + timeout * 1.01) == [2]


def test_recovered_replica_rejoins_as_standby():
    group = make_group(replicas=3, lease_timeout=1.0)
    group.crash_monitor(0, now=0.0)
    group.tick(0.1)
    group.tick(1.2)
    assert group.leader == 1 and group.epoch == 2
    group.recover_monitor(0, now=2.0)
    # Leadership is sticky: the old leader does not reclaim it.
    assert not group.tick(3.0)
    assert group.leader == 1 and group.epoch == 2


# ----------------------------------------------------------------------
# Quorum gating over a partitioned network
# ----------------------------------------------------------------------
def test_minority_side_leader_cannot_commit():
    net = FaultFabric()
    group = make_group(replicas=3, network=net, lease_timeout=1.0)
    # Leader m0 isolated from m1+m2: one vote of three is no quorum.
    net.partition("p", [[mon_addr(0)], [mon_addr(1), mon_addr(2)]])
    assert not group.can_commit()
    assert group.issue("rehome", now=0.5, server=1) is None
    assert group.aborted_directives == 1
    assert group.rebalance(0.6) == []
    assert group.detect_failures(99.0) == []  # detection is leader-gated too
    # The majority side elects a new leader once the lease runs out.
    group.tick(0.5)
    assert group.tick(2.0)
    assert group.leader == 1 and group.epoch == 2
    # Healing reunites the cluster; the deposed replica stays a standby.
    net.heal("p")
    assert not group.tick(3.0)
    assert group.leader == 1


def test_total_partition_leaves_no_electable_replica():
    net = FaultFabric()
    group = make_group(replicas=3, network=net, lease_timeout=1.0)
    net.partition(
        "p", [[mon_addr(0)], [mon_addr(1)], [mon_addr(2)]]
    )
    group.tick(0.1)
    assert not group.tick(5.0)  # nobody reaches a majority
    assert group.epoch == 1 and group.failovers == 0


# ----------------------------------------------------------------------
# Directive commit + epoch fencing (the MDS side)
# ----------------------------------------------------------------------
def test_issued_directives_are_epoch_stamped_and_journalled():
    group = make_group(replicas=3)
    directive = group.issue("rehome", now=1.0, server=2, moves=3)
    assert directive is not None
    assert directive.epoch == 1 and directive.kind == "rehome"
    assert dict(directive.info) == {"moves": 3}
    assert group.journal.entries[-1] is directive


def test_stale_epoch_directive_is_fenced_by_mds():
    server = MetadataServer(0)
    assert server.accept_directive(1)
    assert server.accept_directive(2)
    assert server.fence_epoch == 2
    # A deposed leader's directive (older epoch) is refused ...
    assert not server.accept_directive(1)
    assert server.fenced_directives == 1
    # ... and the fence survives a crash/recover cycle — otherwise a stale
    # leader could resurrect pre-crash ownership through a rejoining MDS.
    server.fail()
    server.recover()
    assert server.fence_epoch == 2
    assert not server.accept_directive(1)
    assert server.fenced_directives == 2


# ----------------------------------------------------------------------
# PlacementJournal
# ----------------------------------------------------------------------
def test_journal_membership_replay_and_monotone_epochs():
    journal = PlacementJournal()
    journal.append(Directive(epoch=1, kind="mark_dead", server=2, t=0.1))
    journal.append(Directive(epoch=1, kind="mark_dead", server=3, t=0.2))
    journal.append(Directive(epoch=2, kind="rejoin", server=3, t=0.5))
    assert journal.acknowledged_dead() == {2}
    assert journal.epochs_monotone()
    assert [d.epoch for d in journal if d.server == 3] == [1, 2]
    journal.append(Directive(epoch=1, kind="rebalance", t=0.9))
    assert not journal.epochs_monotone()
