"""Tests for simulation-stats percentiles, serialization and formatting."""

import json
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numeric import ordered_sum
from repro.simulation import stats
from repro.simulation.stats import (
    AvailabilityReport,
    LatencySummary,
    SimulationResult,
    _percentile,
    summarize_latencies,
)


# ----------------------------------------------------------------------
# Linear-interpolation percentiles (satellite fix)
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    values = [1.0, 2.0, 3.0, 4.0]
    # numpy's default linear method: position = q * (n - 1).
    assert _percentile(values, 0.50) == pytest.approx(2.5)
    assert _percentile(values, 0.95) == pytest.approx(3.85)
    assert _percentile(values, 0.99) == pytest.approx(3.97)


def test_percentile_endpoints_and_singleton():
    values = [10.0, 20.0, 30.0]
    assert _percentile(values, 0.0) == 10.0
    assert _percentile(values, 1.0) == 30.0
    assert _percentile([7.0], 0.95) == 7.0
    assert _percentile([], 0.5) == 0.0


def test_small_sample_tail_percentiles_stay_distinct():
    # With nearest-rank rounding every tail percentile collapsed onto the
    # max for samples under ~100 values; interpolation keeps them apart.
    summary = summarize_latencies([float(i) for i in range(1, 21)])
    assert summary.p50 < summary.p95 < summary.p99 < summary.maximum
    assert summary.p50 == pytest.approx(10.5)
    assert summary.p99 == pytest.approx(19.81)


def test_percentiles_monotone_in_q():
    values = [0.3, 0.1, 4.0, 2.0, 0.9, 1.1, 0.2]
    ordered = sorted(values)
    results = [_percentile(ordered, q / 100) for q in range(0, 101, 5)]
    assert results == sorted(results)
    assert results[0] == ordered[0] and results[-1] == ordered[-1]


def _whole_sort_summary(values):
    """The summary as one ``sorted()`` of the whole sample and its
    :func:`ordered_sum` give it: the reference the run-wise summary must
    equal bit for bit."""
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        return [0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def percentile(q):
        position = q * (count - 1)
        lower = int(position)
        upper = min(lower + 1, count - 1)
        return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)

    return [
        count, ordered_sum(ordered) / count,
        percentile(0.50), percentile(0.95), percentile(0.99), ordered[-1],
    ]


def _bits(fields):
    return [fields[0], *(float.hex(value) for value in fields[1:])]


@st.composite
def latency_samples(draw, size):
    """``size`` values, either nearly all distinct or drawn from a few
    (ties, all-equal, and signed zeros among them)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = draw(st.none() | st.lists(st.floats(allow_nan=False), min_size=1, max_size=6))
    if pool is None:
        return [rng.lognormvariate(-7, 1.5) for _ in range(size)]
    if draw(st.booleans()):
        pool += [0.0, -0.0]
    return [rng.choice(pool) for _ in range(size)]


@pytest.mark.parametrize("size", [
    0, 1, 2, 17, stats._RUN - 1, stats._RUN, stats._RUN + 1, 3 * stats._RUN + 7,
])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_summary_has_the_bits_of_a_whole_sample_sort(size, data):
    """Every field of the run-wise summary has the bits (``float.hex``) of
    ``sorted()`` + ``ordered_sum`` — empty, one value, all equal, heavy
    ties, zeros, and sizes around a run — for a column and a list alike,
    and the column it sorted run by run in place holds the same values."""
    values = data.draw(latency_samples(size))
    expected = _bits(_whole_sort_summary(values))
    column = array("d", values)
    assert _bits(list(summarize_latencies(column).to_dict().values())) == expected
    assert sorted(map(float.hex, column)) == sorted(map(float.hex, values))
    assert _bits(list(summarize_latencies(values).to_dict().values())) == expected


# ----------------------------------------------------------------------
# to_dict serialization (the --json / telemetry-summary form)
# ----------------------------------------------------------------------
def test_latency_summary_to_dict_round_trips_json():
    summary = summarize_latencies([1.0, 2.0, 3.0])
    data = json.loads(json.dumps(summary.to_dict()))
    assert data["count"] == 3
    assert data["mean"] == pytest.approx(2.0)
    assert set(data) == {"count", "mean", "p50", "p95", "p99", "max"}


def test_availability_to_dict_stringifies_server_keys():
    report = AvailabilityReport(
        crashes=2, retries=5,
        detection_latency={3: 0.2, 1: 0.1},
        time_to_recover={3: 0.9},
    )
    data = report.to_dict()
    assert data["detection_latency"] == {"1": 0.1, "3": 0.2}
    assert data["time_to_recover"] == {"3": 0.9}
    assert list(data["detection_latency"]) == ["1", "3"]  # sorted
    json.dumps(data)  # JSON-safe


def _result(**overrides):
    kwargs = dict(
        scheme="d2-tree", trace="DTR", num_servers=4, operations=100,
        makespan=2.0, throughput=50.0,
        latency=LatencySummary(100, 0.01, 0.01, 0.02, 0.03, 0.05),
        jumps_total=40,
    )
    kwargs.update(overrides)
    return SimulationResult(**kwargs)


def test_simulation_result_to_dict_includes_derived_fields():
    data = _result().to_dict()
    assert data["mean_jumps"] == pytest.approx(0.4)
    assert data["latency"]["p95"] == 0.02
    assert data["availability"] is None
    json.dumps(data)


# ----------------------------------------------------------------------
# Human-readable formatting
# ----------------------------------------------------------------------
def test_availability_describe_formats_milliseconds():
    report = AvailabilityReport(
        crashes=1, rejoins=1, retries=12, failed_operations=2,
        detection_latency={2: 0.1521}, time_to_recover={2: 0.5},
        unavailability=0.1521,
    )
    text = report.describe()
    assert "crashes=1 rejoins=1 false_detections=0" in text
    assert "failed operations : 2" in text
    assert "retries           : 12" in text
    assert "unavailability    : 152.10 ms" in text
    assert "detection latency : s2=152.10ms" in text
    assert "time to recover   : s2=500.00ms" in text


def test_availability_describe_skips_empty_sections():
    text = AvailabilityReport(retries=3).describe()
    assert "detection latency" not in text
    assert "time to recover" not in text


def test_simulation_result_row_fault_free():
    row = _result().row()
    assert row.startswith("d2-tree")
    assert "M=4" in row
    assert "thr=     50.0 ops/s" in row
    assert "p95=  20.00 ms" in row
    assert "jumps/op= 0.40" in row
    assert "retries=" not in row


def test_simulation_result_row_appends_fault_columns():
    availability = AvailabilityReport(retries=7, failed_operations=1, crashes=1)
    row = _result(availability=availability).row()
    assert "retries=7" in row
    assert "failed=1" in row


def test_impacted_flag():
    assert not AvailabilityReport().impacted
    assert AvailabilityReport(retries=1).impacted
    assert AvailabilityReport(crashes=1).impacted
