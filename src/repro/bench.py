"""Machine-speed calibration for the repo's one benchmark, ``perfbench/``.

``perfbench/run.py`` stamps every result file with :func:`machine_score`
so numbers taken on different hosts can be told apart; the workloads,
timing, gates and per-layer attribution all live under ``perfbench/``
(see ``perfbench/README.md`` and ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = ["machine_score"]

#: Calibration loop size for :func:`machine_score` (fixed: scores from
#: different machines are comparable only if the loop is identical).
_SCORE_ITERS = 200_000


def machine_score(repeats: int = 3) -> float:
    """Machine-speed calibration: iterations/sec of a fixed pure-Python loop.

    The loop exercises the operations the simulator's hot loop lives on —
    integer arithmetic, small-dict stores, list indexing — so dividing a
    measured simulate throughput by this score cancels machine speed to
    first order: absolute ops/sec are meaningless across laptops and CI
    runners, normalized ones travel. The fastest of ``repeats`` passes is
    kept (the least noisy estimate of the true cost).
    """
    sink: Dict[int, int] = {}
    cells = [0] * 256
    perf = time.perf_counter
    best: Optional[float] = None
    for _ in range(max(1, repeats)):
        acc = 0
        t0 = perf()
        for i in range(_SCORE_ITERS):
            j = i & 255
            sink[j] = i
            acc += cells[j] ^ (i >> 3)
        elapsed = perf() - t0
        if best is None or elapsed < best:
            best = elapsed
    return _SCORE_ITERS / best if best else 0.0
