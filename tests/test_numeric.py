"""Float totals the goldens read add the same on every CPython.

From 3.12 on the builtin ``sum()`` compensates its float additions, so a
latency mean or an Eq. 2 total computed with it moves in the last digits
with the interpreter. ``ordered_sum`` is plain left-to-right IEEE addition,
which is what ``sum()`` did up to 3.11 and what every interpreter's ``+``
does; these tests tie a faulted golden's bytes to it.
"""

import json
import pathlib
import sys

from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.numeric import ordered_sum
from repro.simulation import runner

from tests.test_golden import _FAULTED, _WAL_FAULTS, _faults

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _left_to_right(values):
    total = 0
    for value in values:
        total += value
    return total


def _compensated(values):
    """Neumaier summation, the algorithm of CPython 3.12's float ``sum()``."""
    total = compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def test_a_faulted_golden_mean_is_the_left_to_right_sum(monkeypatch, capsys):
    captured = []
    summarize = runner.summarize_latencies

    def capture(latencies):
        captured.append(list(latencies))
        return summarize(latencies)

    monkeypatch.setattr(runner, "summarize_latencies", capture)
    argv = [*_FAULTED, "--scheme", "d2-tree", "--store", "wal",
            *_faults(_WAL_FAULTS), "--json"]
    assert main(argv) == 0
    capsys.readouterr()
    (golden,) = json.loads((GOLDEN / "faulted_wal.json").read_text())
    (latencies,) = captured
    ordered = sorted(latencies)
    assert len(ordered) == golden["latency"]["count"]

    helper = ordered_sum(ordered)
    assert helper.hex() == _left_to_right(ordered).hex()
    assert helper / len(ordered) == golden["latency"]["mean"]
    # The sample is one a compensated sum reads differently: this golden
    # would move on 3.12 if its mean went through the builtin.
    assert _compensated(ordered) != helper
    if sys.version_info >= (3, 12):
        assert sum(ordered) == _compensated(ordered)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64)))
def test_ordered_sum_is_plain_left_to_right_addition(values):
    assert ordered_sum(values) == _left_to_right(values)
    if sys.version_info < (3, 12):
        assert ordered_sum(values) == sum(values)


def test_integers_stay_integers():
    assert ordered_sum(range(5)) == 10 and type(ordered_sum([1, 2])) is int
    assert ordered_sum([], 0.0) == 0.0
