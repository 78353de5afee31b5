"""Chaos engineering for the metadata cluster.

The package splits the original single-module harness into focused parts:

- :mod:`repro.chaos.schedule` — seeded random fault-schedule generation
  (byte-stable: existing seeds produce their historical schedules).
- :mod:`repro.chaos.harness` — case replay, quiescence, the five
  post-quiescence safety invariants, :class:`ChaosCase`/:class:`ChaosReport`.
- :mod:`repro.chaos.history` — client-visible operation histories and the
  strictly-stronger consistency audit (exactly-once acks, session
  monotonicity, epoch-fence safety, no-lost-acked-mutation).
- :mod:`repro.chaos.shrink` — delta-debugging minimization of failing
  fault plans to minimal counterexamples.
- :mod:`repro.chaos.corpus` — :class:`CorpusCase`, the one description of a
  chaos run (workload, schedule, replay command, simulator and live legs),
  and the committed regression corpus of them (``tests/corpus/*.json``).
- :mod:`repro.chaos.hunt` — the ``repro hunt`` fuzzer driving all of the
  above: generate → run with history audit → shrink → record.

Everything the old ``repro.chaos`` module exported is re-exported here, so
``from repro.chaos import run_case`` and friends keep working.
"""

from __future__ import annotations

from repro.chaos.harness import (
    CHAOS_HEARTBEAT_INTERVAL,
    CHAOS_HEARTBEAT_TIMEOUT,
    CHAOS_LEASE_TIMEOUT,
    ChaosCase,
    ChaosReport,
    _check_durability,
    _check_invariants,
    _quiesce,
    run_case,
)
from repro.chaos.history import HistoryEvent, OpHistory, audit_history
from repro.chaos.schedule import generate_plan
from repro.chaos.shrink import ShrinkResult, shrink_plan
from repro.chaos.hunt import HuntCase, HuntReport, promote_findings, run_hunt
from repro.chaos.corpus import CorpusCase, load_corpus, save_case

__all__ = [
    "CHAOS_HEARTBEAT_INTERVAL",
    "CHAOS_HEARTBEAT_TIMEOUT",
    "CHAOS_LEASE_TIMEOUT",
    "ChaosCase",
    "ChaosReport",
    "CorpusCase",
    "HistoryEvent",
    "HuntCase",
    "HuntReport",
    "OpHistory",
    "ShrinkResult",
    "audit_history",
    "generate_plan",
    "load_corpus",
    "promote_findings",
    "run_case",
    "run_hunt",
    "save_case",
    "shrink_plan",
    "_check_durability",
    "_check_invariants",
    "_quiesce",
]
