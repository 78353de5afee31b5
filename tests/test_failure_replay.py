"""Mid-replay failure injection: crashes during a live trace replay."""

import pytest

from repro.baselines import DropScheme, StaticSubtreeScheme
from repro.core import D2TreeScheme
from repro.simulation import FaultPlan, SimulationConfig
from repro.simulation.runner import ClusterSimulator
from repro.traces import DatasetProfile, TraceGenerator


@pytest.fixture(scope="module")
def workload():
    return TraceGenerator(
        DatasetProfile.lmbe(num_nodes=1500, scale=6e-5), num_clients=20
    ).generate()


def plan(*specs):
    return FaultPlan.parse(list(specs))


def config(**kw):
    kw.setdefault("num_clients", 20)
    kw.setdefault("adjust_every_ops", 500)
    return SimulationConfig(**kw)


def test_replay_survives_single_failure(workload):
    cfg = config(fault_plan=plan("crash:2@ops=1000"))
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, cfg)
    result = sim.run()
    assert result.operations == len(workload.trace)
    assert not sim.servers[2].alive
    # Everything the dead server held moved elsewhere.
    for node in workload.tree:
        assert 2 not in sim.placement.servers_of(node)


def test_dead_server_stops_serving(workload):
    cfg = config(fault_plan=plan("crash:1@ops=800"))
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, cfg)
    sim.run()
    served_before_crash = sim.served[1]
    # Run again without the failure: the same server serves strictly more.
    healthy = ClusterSimulator(D2TreeScheme(), workload, 4, config()).run()
    assert served_before_crash < healthy.server_visits[1]


def test_failure_hurts_throughput(workload):
    healthy = ClusterSimulator(D2TreeScheme(), workload, 4, config()).run()
    degraded = ClusterSimulator(
        D2TreeScheme(), workload, 4, config(fault_plan=plan("crash:0@ops=500"))
    ).run()
    # Losing 1 of 4 servers early costs throughput (failover + capacity).
    assert degraded.throughput < healthy.throughput


def test_multiple_failures(workload):
    cfg = config(fault_plan=plan("crash:0@ops=600", "crash:3@ops=1600"))
    sim = ClusterSimulator(D2TreeScheme(), workload, 5, cfg)
    result = sim.run()
    assert result.operations == len(workload.trace)
    assert not sim.servers[0].alive and not sim.servers[3].alive
    live = [s.server_id for s in sim.servers if s.alive]
    for node in workload.tree:
        assert set(sim.placement.servers_of(node)) <= set(live)


@pytest.mark.parametrize("scheme_cls", [StaticSubtreeScheme, DropScheme])
def test_baseline_schemes_survive_failure(workload, scheme_cls):
    cfg = config(fault_plan=plan("crash:1@ops=1000"))
    sim = ClusterSimulator(scheme_cls(), workload, 4, cfg)
    result = sim.run()
    assert result.operations == len(workload.trace)
    for node in workload.tree:
        assert 1 not in sim.placement.servers_of(node)


def test_failure_then_rebalance_spreads_load(workload):
    cfg = config(fault_plan=plan("crash:2@ops=500"), adjust_every_ops=400)
    sim = ClusterSimulator(D2TreeScheme(), workload, 4, cfg)
    sim.run()
    loads = sim.placement.local_loads()
    assert loads[2] == 0.0
    live_loads = [loads[k] for k in range(4) if k != 2]
    assert min(live_loads) > 0.0
