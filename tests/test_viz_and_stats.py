"""Tests for ASCII charts and trace statistics."""

import pytest

from repro.traces import DatasetProfile, OpType, Trace, TraceGenerator, TraceRecord
from repro.traces.stats import TraceStats, analyze_trace, estimate_zipf_exponent
from repro.viz import AsciiChart, render_series
from tests.conftest import trace_of


# ----------------------------------------------------------------------
# AsciiChart
# ----------------------------------------------------------------------
def test_chart_renders_all_series_glyphs():
    chart = AsciiChart(width=30, height=8)
    chart.add_series("a", [1, 2, 3], [1, 2, 3])
    chart.add_series("b", [1, 2, 3], [3, 2, 1])
    out = chart.render(title="t")
    assert "t" in out
    assert "o=a" in out and "x=b" in out
    assert "o" in out and "x" in out


def test_chart_mismatched_series_rejected():
    chart = AsciiChart()
    with pytest.raises(ValueError):
        chart.add_series("a", [1, 2], [1])


def test_chart_drops_nonfinite_points():
    chart = AsciiChart()
    chart.add_series("a", [1, 2, 3], [1.0, float("inf"), 2.0])
    out = chart.render()
    assert "o=a" in out


def test_chart_all_nonfinite_rejected():
    chart = AsciiChart()
    with pytest.raises(ValueError):
        chart.add_series("a", [1], [float("inf")])


def test_chart_empty_render_rejected():
    with pytest.raises(ValueError):
        AsciiChart().render()


def test_chart_log_scale():
    chart = AsciiChart(logy=True, height=8, width=20)
    chart.add_series("a", [1, 2, 3], [1, 100, 10000])
    out = chart.render(ylabel="balance")
    assert "(log)" in out


def test_chart_constant_series():
    chart = AsciiChart(width=20, height=6)
    chart.add_series("flat", [1, 2, 3], [5, 5, 5])
    out = chart.render()
    assert "o=flat" in out


def test_render_series_helper():
    out = render_series(
        "Fig. 5", [5, 10, 20], {"d2": [1, 2, 3], "static": [2, 2, 2]}
    )
    assert "Fig. 5" in out
    assert "d2" in out and "static" in out
    assert "cluster size" in out


def test_chart_dimensions_respected():
    chart = AsciiChart(width=25, height=5)
    chart.add_series("a", [0, 1], [0, 1])
    out = chart.render()
    plot_lines = [l for l in out.splitlines() if "|" in l]
    assert len(plot_lines) == 5


# ----------------------------------------------------------------------
# Zipf estimation
# ----------------------------------------------------------------------
def test_zipf_estimate_recovers_exponent():
    counts = [round(1e6 / rank ** 1.2) for rank in range(1, 400)]
    estimate = estimate_zipf_exponent(counts)
    assert estimate == pytest.approx(1.2, abs=0.1)


def test_zipf_estimate_uniform_is_flat():
    assert estimate_zipf_exponent([10] * 50) == pytest.approx(0.0, abs=0.05)


def test_zipf_estimate_degenerate():
    assert estimate_zipf_exponent([]) == 0.0
    assert estimate_zipf_exponent([5, 3]) == 0.0


# ----------------------------------------------------------------------
# Trace statistics
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dtr_stats():
    workload = TraceGenerator(
        DatasetProfile.dtr(num_nodes=2000, scale=1e-4), num_clients=20
    ).generate()
    return analyze_trace(workload.trace)


def test_stats_basic_fields(dtr_stats):
    assert dtr_stats.operations > 0
    assert 0 < dtr_stats.distinct_paths <= dtr_stats.operations
    assert dtr_stats.max_depth == 49
    assert 0 < dtr_stats.mean_depth < 49


def test_stats_breakdown_matches_table2(dtr_stats):
    assert dtr_stats.breakdown[OpType.READ] == pytest.approx(0.677, abs=0.03)


def test_stats_skew_detects_hot_concentration():
    # DTR: ~83% of accesses target the hot set, which is ~5% of the
    # *referenced* paths at this scale.
    workload = TraceGenerator(
        DatasetProfile.dtr(num_nodes=2000, scale=1e-4), num_clients=20
    ).generate()
    stats = analyze_trace(workload.trace, top_fraction=0.05)
    assert stats.top_share > 0.6
    assert stats.zipf_exponent > 0.3


def test_stats_drift_detected(dtr_stats):
    # The diurnal rotation turns over part of the top set.
    assert 0.0 < dtr_stats.drift <= 1.0


def test_stats_depth_histogram_sums_to_paths(dtr_stats):
    assert sum(dtr_stats.depth_histogram) == dtr_stats.distinct_paths


def test_stats_describe_renders(dtr_stats):
    text = dtr_stats.describe()
    assert "operations=" in text
    assert "zipf" in text


def test_stats_empty_trace():
    stats = analyze_trace(Trace(name="empty"))
    assert stats.operations == 0
    assert stats.mean_depth == 0.0
    assert isinstance(stats, TraceStats)


def test_stats_static_trace_no_drift():
    records = [
        TraceRecord(float(i), OpType.READ, "/a/b.txt", 0) for i in range(100)
    ]
    stats = analyze_trace(trace_of("static", records))
    assert stats.drift == 0.0
    assert stats.top_share == 1.0
