"""Chaos engineering for the metadata cluster.

The package splits the original single-module harness into focused parts:

- :mod:`repro.chaos.schedule` — seeded random fault-schedule generation
  (byte-stable: existing seeds produce their historical schedules).
- :mod:`repro.chaos.harness` — case replay, quiescence, :func:`check_run`
  (the one post-quiescence audit of a simulated or live run),
  :class:`ChaosCase`/:class:`ChaosReport`.
- :mod:`repro.chaos.history` — the op log, folded as it is recorded, and
  its consistency audit (exactly-once acks, session monotonicity,
  epoch-fence safety, no-lost-acked-mutation).
- :mod:`repro.chaos.shrink` — delta-debugging minimization of failing
  fault plans to minimal counterexamples.
- :mod:`repro.chaos.corpus` — :class:`CorpusCase`, the one description of a
  run in either mode (workload, schedule, both modes' configs, replay
  arguments, simulator and live legs), and the committed regression corpus
  of chaos runs (``tests/corpus/*.json``).
- :mod:`repro.chaos.hunt` — the ``repro hunt`` fuzzer driving all of the
  above: generate → run with history audit → shrink → record.

Everything the old ``repro.chaos`` module exported is re-exported here, so
``from repro.chaos import run_case`` and friends keep working.
"""

from __future__ import annotations

from repro.chaos.harness import (
    ChaosCase,
    ChaosReport,
    _quiesce,
    check_run,
    run_case,
)
from repro.chaos.history import HistoryEvent, HistorySink, OpHistory, audit_history
from repro.chaos.schedule import generate_plan
from repro.chaos.shrink import ShrinkResult, shrink_plan
from repro.chaos.hunt import HuntCase, HuntReport, promote_findings, run_hunt
from repro.chaos.corpus import (
    CHAOS_HEARTBEAT_INTERVAL,
    CHAOS_HEARTBEAT_TIMEOUT,
    CHAOS_LEASE_TIMEOUT,
    CorpusCase,
    load_corpus,
    save_case,
)

__all__ = [
    "CHAOS_HEARTBEAT_INTERVAL",
    "CHAOS_HEARTBEAT_TIMEOUT",
    "CHAOS_LEASE_TIMEOUT",
    "ChaosCase",
    "ChaosReport",
    "CorpusCase",
    "HistoryEvent",
    "HistorySink",
    "HuntCase",
    "HuntReport",
    "OpHistory",
    "ShrinkResult",
    "audit_history",
    "check_run",
    "generate_plan",
    "load_corpus",
    "promote_findings",
    "run_case",
    "run_hunt",
    "save_case",
    "shrink_plan",
    "_quiesce",
]
