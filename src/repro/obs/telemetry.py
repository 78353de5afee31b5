"""The telemetry hub: sim-time clock, trace-event log and sample store.

One :class:`Telemetry` instance accompanies one simulation run. Instrumented
components receive it (or a reference to its registry) and

* bump metrics through ``telemetry.registry`` (:mod:`repro.obs.metrics`),
* append structured cluster events via :meth:`Telemetry.event`, and
* let the sampler (:mod:`repro.obs.sampler`) snapshot gauges on the
  simulated-time heartbeat grid via :meth:`Telemetry.record_sample`.

Per-operation records come from the run's op log
(:class:`repro.chaos.history.OpHistory`, ``Telemetry.ops``), which the
telemetry listens to (:meth:`Telemetry.attach_ops`): each record becomes
its ``op_*`` event as it arrives, under its op id (trace position), and the
per-op metrics are folded from those events when the run ends.

Determinism contract: every timestamp is *simulated* time pushed in by the
event loop (:meth:`set_time`), record ordering is generation order (a
process-local sequence number and the op-log records heard by emission), and no
wall clock or unordered container ever leaks into the output — two runs
with the same seed and configuration produce bit-identical telemetry.

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
    """One structured event in the cluster's lifecycle."""

    seq: int
    t: float
    event: str
    fields: Tuple[Tuple[str, Any], ...] = ()
    #: Op-log records heard by emission: op events merge around it.
    mark: int = 0

    def to_record(self) -> Dict[str, Any]:
        """The JSONL dict form of this event."""
        record: Dict[str, Any] = {"kind": "event", "t": self.t, "event": self.event}
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
    mark: int = 0

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
    run_info:
        Free-form identification written into the run header (scheme,
        trace, seed, servers, ...).
    """

    enabled: bool = True
    run_info: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.registry = MetricsRegistry()
        self.events: List[TraceEvent] = []
        self.samples: List[Sample] = []
        #: Attached span recorder (repro.obs.spans), or None. Spans ride
        #: along even when ``enabled`` is False: a sampled run need not pay
        #: for the full metrics hub.
        self.spans = None
        #: The run's op log (repro.chaos.history.OpHistory), or None: the
        #: replay loop attaches it before it holds a record.
        self.ops = None
        #: Its listener on that log (attach_ops): the op events, and the
        #: record count that marks every event and sample.
        self.op_events = OpEvents()
        #: Current simulated time, advanced by the event loop.
        self.now = 0.0
        self._seq = itertools.count()

    def attach_spans(self, recorder) -> None:
        """Merge a :class:`~repro.obs.spans.SpanRecorder`'s output into this
        run's JSONL stream. Never call on the shared ``NULL_TELEMETRY``."""
        if self is NULL_TELEMETRY:
            raise ValueError("cannot attach spans to the shared NULL_TELEMETRY")
        self.spans = recorder

    def attach_ops(self, history) -> None:
        """Listen to the run's op log: each record becomes its ``op_*``
        event as it arrives."""
        self.ops = history
        history.listen(self.op_events)

    # ------------------------------------------------------------------
    def set_time(self, now: float) -> None:
        """Advance the telemetry clock (called from the simulation loop)."""
        self.now = now

    # ------------------------------------------------------------------
    def event(self, name: str, t: Optional[float] = None, **fields: Any) -> None:
        """Append a trace event (stamped with the clock unless ``t`` given)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(
            next(self._seq), self.now if t is None else t, name,
            tuple(sorted(fields.items())), self.op_events.records,
        ))

    def record_sample(
        self, t: float, name: str, value: float, **labels: object
    ) -> None:
        """Append one time-series point (non-finite values become null)."""
        if not self.enabled:
            return
        if value is not None and not math.isfinite(value):
            value = None
        self.samples.append(Sample(
            next(self._seq), t, name, value,
            tuple(sorted((k, str(v)) for k, v in labels.items())),
            self.op_events.records,
        ))

    def fold_op_metrics(self) -> None:
        """Fold the op events heard into the per-op metrics, in record
        order (once, when the run ends)."""
        counter, histogram = self.registry.counter, self.registry.histogram
        completed = counter("ops_completed", help="Operations completed")
        failed = counter("ops_failed", help="Operations dropped after retry exhaustion")
        retries = counter("retries", help="Client retries against crashed servers")
        redirects = counter("redirects", help="Operations that hit a stale cache entry")
        latency = histogram("op_latency_seconds", help="End-to-end operation latency")
        visits = histogram(
            "route_plan_visits", help="Server visits per route plan (deterministic plan cost)")
        client_retries = histogram(
            "client_retries",
            help="Retry attempts per finished operation (completed or abandoned)")
        for _index, _t, _op, name, *fields in self.op_events.events:
            if name == "op_complete":
                took, jumps, redirected, attempts = fields
                completed.inc()
                if redirected:
                    redirects.inc()
                latency.observe(took)
                visits.observe(float(jumps + 1))
                client_retries.observe(float(attempts))
            elif name == "op_retry":
                retries.inc()
            elif name == "op_failed":
                failed.inc()
                client_retries.observe(float(fields[1]))

    # ------------------------------------------------------------------
    def iter_records(self, per_op: bool = True) -> Iterator[Dict[str, Any]]:
        """Run header followed by samples, events and spans in time order.

        Samples and events merge on ``(t, generation order)``: the op event
        of op-log record ``i`` follows what was emitted while ``i`` records
        or fewer had been heard. Spans (keyed on their *close* time
        ``t1``) sort after events at the same instant. Every key derives
        from sim time, process-local counters and log positions, so the
        stream is fully deterministic. ``per_op=False`` leaves out the
        ``op_*`` events.
        """
        header: Dict[str, Any] = {"kind": "run", "schema": SCHEMA_VERSION}
        header.update(self.run_info)
        yield header
        keyed: List[Tuple[tuple, Any]] = [
            ((r.t, 0, r.mark, 0, r.seq), r)
            for r in itertools.chain(self.samples, self.events)
        ]
        if per_op:
            keyed.extend(
                ((e[1], 0, e[0], 1), e) for e in self.op_events.events
            )
        if self.spans is not None:
            keyed.extend(((s.t1, 1, s.seq), s) for s in self.spans.spans)
        keyed.sort(key=lambda pair: pair[0])
        for _key, record in keyed:
            yield _op_record(record) if type(record) is tuple else record.to_record()


#: Field names of each op event, after ``(index, t, op id, name)``.
_OP_FIELDS = {
    "op_start": ("client", "path", "type"),
    "op_retry": ("server", "attempt"),
    "op_complete": ("latency", "jumps", "redirected", "attempts"),
    "op_failed": ("server", "attempts"),
}


def _op_record(entry: tuple) -> Dict[str, Any]:
    """The JSONL dict form of one op event."""
    _index, t, op, name, *values = entry
    record: Dict[str, Any] = {"event": name}
    record.update(zip(_OP_FIELDS[name], values))
    record.update(kind="event", t=t, op=op)
    return record


class OpEvents:
    """Telemetry's listener on the op log (see
    :meth:`repro.chaos.history.OpHistory.listen`): one compact ``op_*``
    event per invoke / retry / ok / fail record, ``(record index, t, op id,
    event name, *fields)``, and the count of records heard, which stamps
    the mark of everything telemetry emits. Only the simulator attaches
    it, and the simulator's log holds no ``indeterminate`` record."""

    __slots__ = ("events", "records")

    def __init__(self) -> None:
        self.events: List[tuple] = []
        self.records = 0

    def invoke(self, op_id, client, t, path, op) -> None:
        self.events.append((self.records, t, op_id, "op_start", client, path, op))
        self.records += 1

    def retry(self, op_id, client, t, server, attempt) -> None:
        self.events.append((self.records, t, op_id, "op_retry", server, attempt))
        self.records += 1

    def ok(self, op_id, client, t, server, epoch, jumps, redirected, attempts, latency) -> None:
        self.events.append((
            self.records, t, op_id, "op_complete", latency, jumps, redirected, attempts,
        ))
        self.records += 1

    def fail(self, op_id, client, t, server, attempts, jumps) -> None:
        self.events.append((self.records, t, op_id, "op_failed", server, attempts))
        self.records += 1

    def wipe(self, server, t) -> None:
        self.records += 1


#: Shared disabled instance — the default collaborator everywhere.
NULL_TELEMETRY = Telemetry(enabled=False)
