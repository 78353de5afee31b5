"""FaultFabric as the simulator replays against it: lossy, partitionable
message fabric semantics over a constant per-hop latency."""

import pytest

from repro.baselines import HashScheme
from repro.simulation import (
    CLIENT_ADDR,
    ClusterSimulator,
    SimulationConfig,
    mds_addr,
    mon_addr,
    simulate,
)
from repro.traces import DatasetProfile, TraceGenerator
from repro.transport import FaultFabric


@pytest.fixture(scope="module")
def one_client_workload():
    return TraceGenerator(
        DatasetProfile.dtr(num_nodes=300, scale=1e-5), num_clients=1
    ).generate()


# ----------------------------------------------------------------------
# Healthy path
# ----------------------------------------------------------------------
def test_constant_hop(one_client_workload):
    """The healthy path is ``SimulationConfig.hop_latency`` per traversal:
    one client on one server never queues, so each op's latency is two
    hops plus its service (and any lock), and moving the hop moves every
    op by exactly two of it."""
    def mean_latency(hop):
        config = SimulationConfig(
            num_clients=1, hop_latency=hop, adjust_every_ops=0
        )
        return simulate(HashScheme(), one_client_workload, 1, config).latency.mean

    assert not FaultFabric().faulty
    assert mean_latency(3e-4) - mean_latency(1e-4) == pytest.approx(4e-4)


def test_rejects_negative_latencies(one_client_workload):
    with pytest.raises(ValueError, match="hop_latency"):
        ClusterSimulator(
            HashScheme(), one_client_workload, 1,
            SimulationConfig(hop_latency=-1.0),
        )


def test_fault_free_path_makes_zero_rng_draws():
    # The byte-identity contract: while no fault is installed, deliveries
    # never touch the fault RNG and arrival times pass through unchanged.
    net = FaultFabric(seed=7)
    before = net._rng.getstate()
    assert net.deliver(mds_addr(0), mon_addr(0), 1.5) == 1.5
    assert net.data_arrival(CLIENT_ADDR, mds_addr(2), 0.25) == 0.25
    assert net.server_arrival(0, 1, 0.5) == 0.5
    assert net._rng.getstate() == before
    assert net.messages_dropped == 0 and net.messages_delayed == 0


# ----------------------------------------------------------------------
# Mutes (the drop_heartbeats realisation)
# ----------------------------------------------------------------------
def test_mute_drops_control_plane_both_directions():
    net = FaultFabric()
    net.mute(mds_addr(1))
    assert net.faulty
    assert net.deliver(mds_addr(1), mon_addr(0), 1.0) is None
    assert net.deliver(mon_addr(0), mds_addr(1), 1.0) is None
    assert net.deliver(mds_addr(0), mon_addr(0), 1.0) == 1.0
    # ... but not the data plane: a muted server still serves clients.
    assert net.data_arrival(CLIENT_ADDR, mds_addr(1), 1.0) == 1.0
    net.clear_endpoint(mds_addr(1))
    assert not net.faulty
    assert net.deliver(mds_addr(1), mon_addr(0), 1.0) == 1.0


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
def test_partition_splits_interconnect_but_not_clients():
    net = FaultFabric()
    net.partition("p", [[mds_addr(0), mds_addr(1)], [mds_addr(2), mon_addr(0)]])
    assert not net.reachable(mds_addr(0), mds_addr(2))
    assert net.reachable(mds_addr(0), mds_addr(1))
    assert net.reachable(mds_addr(2), mon_addr(0))
    # Server 0's heartbeats die at the partition ...
    assert net.deliver(mds_addr(0), mon_addr(0), 1.0) is None
    assert net.server_arrival(0, 2, 1.0) is None
    # ... but the WAN is not the cluster interconnect: clients still reach
    # both sides (which is what makes false eviction observable).
    assert net.data_arrival(CLIENT_ADDR, mds_addr(0), 1.0) == 1.0
    assert net.data_arrival(CLIENT_ADDR, mds_addr(2), 1.0) == 1.0


def test_unlisted_endpoints_ride_with_group_zero():
    net = FaultFabric()
    net.partition("p", [[mds_addr(0)], [mds_addr(1)]])
    # mon:0 is not named, so it sits with group 0 and server 1 is cut off.
    assert net.deliver(mds_addr(0), mon_addr(0), 1.0) == 1.0
    assert net.deliver(mds_addr(1), mon_addr(0), 1.0) is None


def test_heal_by_name_and_heal_all():
    net = FaultFabric()
    net.partition("a", [[mds_addr(0)], [mds_addr(1)]])
    net.partition("b", [[mds_addr(2)], [mds_addr(3)]])
    assert net.partitions() == ("a", "b")
    net.heal("a")
    assert net.partitions() == ("b",)
    assert net.reachable(mds_addr(0), mds_addr(1))
    net.heal(None)
    assert net.partitions() == ()
    assert not net.faulty


def test_overlapping_partitions_compose():
    # Two endpoints communicate iff they share a group in EVERY partition.
    net = FaultFabric()
    net.partition("a", [[mds_addr(0), mds_addr(1)], [mds_addr(2)]])
    net.partition("b", [[mds_addr(0)], [mds_addr(1), mds_addr(2)]])
    assert not net.reachable(mds_addr(0), mds_addr(1))  # split by b
    assert not net.reachable(mds_addr(1), mds_addr(2))  # split by a
    assert not net.reachable(mds_addr(0), mds_addr(2))  # split by both


def test_partition_validation():
    net = FaultFabric()
    with pytest.raises(ValueError):
        net.partition("p", [[mds_addr(0)]])  # one group is no partition
    with pytest.raises(ValueError):
        net.partition("p", [[mds_addr(0)], []])  # empty group


# ----------------------------------------------------------------------
# Loss
# ----------------------------------------------------------------------
def test_blackhole_loss_drops_everything():
    net = FaultFabric(seed=3)
    net.set_loss(mds_addr(1), 1.0)
    assert net.deliver(mds_addr(1), mon_addr(0), 1.0) is None
    assert net.data_arrival(CLIENT_ADDR, mds_addr(1), 1.0) is None
    assert net.server_arrival(0, 1, 1.0) is None
    assert net.messages_dropped == 3
    # Other servers' links are untouched.
    assert net.data_arrival(CLIENT_ADDR, mds_addr(0), 1.0) == 1.0


def test_partial_loss_is_seeded_and_partial():
    def drops(seed):
        net = FaultFabric(seed=seed)
        net.set_loss(mds_addr(0), 0.5)
        return [
            net.data_arrival(CLIENT_ADDR, mds_addr(0), 1.0) is None
            for _ in range(200)
        ]

    first, second = drops(11), drops(11)
    assert first == second  # deterministic given the send sequence
    assert 0 < sum(first) < 200  # actually partial
    assert drops(12) != first  # and seed-dependent


def test_loss_probability_validated_and_clearable():
    net = FaultFabric()
    with pytest.raises(ValueError):
        net.set_loss(mds_addr(0), 1.5)
    net.set_loss(mds_addr(0), 0.5)
    assert net.faulty
    net.set_loss(mds_addr(0), 0.0)
    assert not net.faulty


# ----------------------------------------------------------------------
# Delay
# ----------------------------------------------------------------------
def test_delay_adds_bounded_seeded_extra_latency():
    net = FaultFabric(seed=5)
    net.set_delay(mds_addr(0), 1e-3)
    arrivals = [net.data_arrival(CLIENT_ADDR, mds_addr(0), 1.0) for _ in range(100)]
    assert all(1.0 <= t < 1.0 + 2e-3 for t in arrivals)
    assert len(set(arrivals)) > 1  # uniform draws, not a constant
    assert net.messages_delayed == 100
    net.set_delay(mds_addr(0), 0.0)
    assert not net.faulty
    with pytest.raises(ValueError):
        net.set_delay(mds_addr(0), -1.0)


def test_delay_sums_over_both_endpoints():
    net = FaultFabric(seed=5)
    net.set_delay(mds_addr(0), 1e-3)
    net.set_delay(mds_addr(1), 1e-3)
    arrivals = [net.server_arrival(0, 1, 1.0) for _ in range(100)]
    assert max(arrivals) > 1.0 + 2e-3  # mean doubled: draws reach past 2ms


# ----------------------------------------------------------------------
# recover path
# ----------------------------------------------------------------------
def test_clear_endpoint_wipes_all_per_endpoint_faults():
    net = FaultFabric(seed=2)
    net.mute(mds_addr(1))
    net.set_loss(mds_addr(1), 0.5)
    net.set_delay(mds_addr(1), 1e-3)
    net.clear_endpoint(mds_addr(1))
    assert not net.faulty
    assert net.deliver(mds_addr(1), mon_addr(0), 1.0) == 1.0


def test_client_addr_is_not_partitionable():
    net = FaultFabric()
    net.partition("p", [[mds_addr(0)], [mds_addr(1), CLIENT_ADDR]])
    # Even named into a group, client sends ignore partitions by design.
    assert net.data_arrival(CLIENT_ADDR, mds_addr(0), 1.0) == 1.0
