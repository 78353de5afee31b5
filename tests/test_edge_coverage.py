"""Edge-case tests across modules (formatting, degenerate inputs)."""

import pytest

from repro.core import D2TreeScheme, NamespaceTree
from repro.metrics import MetricsReport, evaluate_placement
from repro.placement import Placement
from repro.simulation import summarize_latencies
from repro.simulation.stats import SimulationResult
from repro.traces import DatasetProfile, Trace
from repro.traces.generator import GeneratedWorkload
from tests.conftest import build_random_tree


# ----------------------------------------------------------------------
# Reports and formatting
# ----------------------------------------------------------------------
def test_metrics_report_row_handles_infinities():
    report = MetricsReport(
        scheme="x", num_servers=2, locality=float("inf"),
        balance=float("inf"), loads=[1, 1], mu=1.0, weighted_jumps=0.0,
    )
    row = report.row()
    assert "inf" in row
    assert report.locality_e9 is None


def test_single_server_evaluation_is_degenerate_but_safe():
    tree = build_random_tree(100)
    placement = Placement(1)
    for node in tree:
        placement.assign(node, 0)
    with pytest.raises(ValueError):
        evaluate_placement(tree, placement)  # Eq. 2 needs two servers


def test_simulation_result_mean_jumps_zero_ops():
    result = SimulationResult(
        scheme="x", trace="t", num_servers=2, operations=0, makespan=0.0,
        throughput=0.0, latency=summarize_latencies([]),
    )
    assert result.mean_jumps == 0.0


def test_latency_percentiles_single_sample():
    summary = summarize_latencies([0.5])
    assert summary.p50 == summary.p95 == summary.p99 == summary.maximum == 0.5


# ----------------------------------------------------------------------
# Trace / workload degenerate cases
# ----------------------------------------------------------------------
def test_trace_rounds_more_than_records():
    trace = Trace(name="tiny")
    rounds = trace.rounds(3)
    assert len(rounds) == 3
    assert all(len(r) == 0 for r in rounds)


def test_hot_hit_fraction_empty_trace():
    workload = GeneratedWorkload(
        profile=DatasetProfile.dtr(num_nodes=100, scale=1e-9),
        tree=NamespaceTree(),
        trace=Trace(name="empty"),
    )
    assert workload.hot_hit_fraction() == 0.0


# ----------------------------------------------------------------------
# D2 scheme parameter edges
# ----------------------------------------------------------------------
def test_d2_negative_promote_threshold_rejected():
    with pytest.raises(ValueError):
        D2TreeScheme(promote_threshold=-1.0)


def test_d2_negative_demote_threshold_rejected():
    with pytest.raises(ValueError):
        D2TreeScheme(demote_threshold=-0.1)


def test_d2_promotion_noop_without_subtrees():
    tree = NamespaceTree()
    tree.add_path("/only.txt")
    tree.record_access(tree.lookup("/only.txt"), 5.0)
    tree.aggregate_popularity()
    scheme = D2TreeScheme(global_layer_fraction=1.0)
    placement = scheme.partition(tree, 2)
    assert scheme.rebalance(tree, placement) == []
