"""The telemetry hub: sim-time clock, trace-event log and sample store.

One :class:`Telemetry` instance accompanies one simulation run. Instrumented
components receive it (or a reference to its registry) and

* bump metrics through ``telemetry.registry`` (:mod:`repro.obs.metrics`),
* append structured trace events via :meth:`Telemetry.event`, and
* let the sampler (:mod:`repro.obs.sampler`) snapshot gauges on the
  simulated-time heartbeat grid via :meth:`Telemetry.record_sample`.

Determinism contract: every timestamp is *simulated* time pushed in by the
event loop (:meth:`set_time`), record ordering is generation order broken by
a process-local sequence number, and no wall clock or unordered container
ever leaks into the output — two runs with the same seed and configuration
produce bit-identical telemetry.

:data:`NULL_TELEMETRY` is the shared disabled instance: its ``event`` /
``record_sample`` methods return immediately and its registry hands out
no-op metrics, so un-instrumented runs pay (almost) nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["TraceEvent", "Sample", "Telemetry", "NULL_TELEMETRY"]

#: Telemetry output format version (the ``schema`` field of run headers).
#: Version 2 added ``span`` records (repro.obs.spans) to the JSONL stream.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TraceEvent:
    """One structured event in an operation's (or the cluster's) lifecycle."""

    seq: int
    t: float
    event: str
    #: Causal operation id (None for cluster-level events).
    op: Optional[int] = None
    fields: Tuple[Tuple[str, Any], ...] = ()

    def to_record(self) -> Dict[str, Any]:
        """The JSONL dict form of this event."""
        record: Dict[str, Any] = {"kind": "event", "t": self.t, "event": self.event}
        if self.op is not None:
            record["op"] = self.op
        record.update(self.fields)
        return record


@dataclass(frozen=True)
class Sample:
    """One gauge observation on the sim-time sampling grid."""

    seq: int
    t: float
    name: str
    value: Optional[float]
    labels: Tuple[Tuple[str, str], ...] = ()

    def to_record(self) -> Dict[str, Any]:
        """The JSONL dict form of this sample."""
        record: Dict[str, Any] = {
            "kind": "sample",
            "t": self.t,
            "name": self.name,
            "value": self.value,
        }
        if self.labels:
            record["labels"] = dict(self.labels)
        return record


@dataclass
class Telemetry:
    """Run-scoped telemetry: registry + event log + time-series samples.

    Parameters
    ----------
    enabled:
        Master switch. Disabled telemetry records nothing anywhere.
    record_ops:
        Record per-operation lifecycle events (``op_start`` /
        ``op_retry`` / ``op_complete`` / ``op_failed``). Turn off to keep
        only cluster-level events (faults, detection, adjustment,
        heartbeats) and samples when replaying very long traces.
    run_info:
        Free-form identification written into the run header (scheme,
        trace, seed, servers, ...).
    """

    enabled: bool = True
    record_ops: bool = True
    run_info: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.registry = MetricsRegistry(enabled=self.enabled)
        self.events: List[TraceEvent] = []
        self.samples: List[Sample] = []
        #: Attached span recorder (repro.obs.spans), or None. Spans ride
        #: along even when ``enabled`` is False: a sampled run need not pay
        #: for the full metrics hub.
        self.spans = None
        #: Current simulated time, advanced by the event loop.
        self.now = 0.0
        self._seq = itertools.count()
        self._op_ids = itertools.count()

    def attach_spans(self, recorder) -> None:
        """Merge a :class:`~repro.obs.spans.SpanRecorder`'s output into this
        run's JSONL stream. Never call on the shared ``NULL_TELEMETRY``."""
        if self is NULL_TELEMETRY:
            raise ValueError("cannot attach spans to the shared NULL_TELEMETRY")
        self.spans = recorder

    # ------------------------------------------------------------------
    def set_time(self, now: float) -> None:
        """Advance the telemetry clock (called from the simulation loop)."""
        self.now = now

    def next_op_id(self) -> int:
        """Allocate a causal operation id."""
        return next(self._op_ids)

    # ------------------------------------------------------------------
    def event(
        self,
        name: str,
        op: Optional[int] = None,
        t: Optional[float] = None,
        **fields: Any,
    ) -> None:
        """Append a trace event (stamped with the clock unless ``t`` given)."""
        if not self.enabled:
            return
        self.events.append(
            TraceEvent(
                next(self._seq),
                self.now if t is None else t,
                name,
                op,
                tuple(sorted(fields.items())),
            )
        )

    def op_event(
        self,
        name: str,
        op: Optional[int] = None,
        t: Optional[float] = None,
        **fields: Any,
    ) -> None:
        """Like :meth:`event`, but dropped when ``record_ops`` is off."""
        if self.record_ops:
            self.event(name, op, t, **fields)

    def record_sample(
        self, t: float, name: str, value: float, **labels: object
    ) -> None:
        """Append one time-series point (non-finite values become null)."""
        if not self.enabled:
            return
        if value is not None and not math.isfinite(value):
            value = None
        self.samples.append(
            Sample(
                next(self._seq),
                t,
                name,
                value,
                tuple(sorted((k, str(v)) for k, v in labels.items())),
            )
        )

    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Run header followed by samples, events and spans in time order.

        Samples and events merge on ``(t, generation order)``; spans (keyed
        on their *close* time ``t1``) sort after events at the same instant.
        Every key derives from sim time and process-local counters, so the
        stream is fully deterministic.
        """
        header: Dict[str, Any] = {"kind": "run", "schema": SCHEMA_VERSION}
        header.update(self.run_info)
        yield header
        keyed = [
            ((r.t, 0, r.seq), r)
            for r in itertools.chain(self.samples, self.events)
        ]
        if self.spans is not None:
            keyed.extend(((s.t1, 1, s.seq), s) for s in self.spans.spans)
        keyed.sort(key=lambda pair: pair[0])
        for _key, record in keyed:
            yield record.to_record()

    def sample_series(
        self, name: str
    ) -> Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, Optional[float]]]]:
        """``labels -> [(t, value), ...]`` for one sampled gauge."""
        series: Dict[Tuple[Tuple[str, str], ...], List] = {}
        for sample in self.samples:
            if sample.name == name:
                series.setdefault(sample.labels, []).append(
                    (sample.t, sample.value)
                )
        return series


#: Shared disabled instance — the default collaborator everywhere.
NULL_TELEMETRY = Telemetry(enabled=False)
