"""Left-to-right float summation, the same bits on every CPython.

From CPython 3.12 the builtin ``sum()`` adds floats with compensated
summation, so a float total — a latency mean, an Eq. 2 load, μ, a
capacity total that decides a re-homing — moves in its last digits with
the interpreter, and every golden, digest and telemetry float that reads
one moves with it. :func:`ordered_sum` is the plain left-to-right IEEE
addition ``sum()`` did up to 3.11, bit for bit, on every version.
``math.fsum`` is exactly rounded, which is a third answer, so it is not
used. Integer counts keep the builtin: integers add exactly either way.
"""

from __future__ import annotations

from functools import reduce
from operator import add

__all__ = ["ordered_sum"]


def ordered_sum(values, start=0):
    """``start + v0 + v1 + ...``, added left to right with no compensation."""
    return reduce(add, values, start)
