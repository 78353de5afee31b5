"""Declarative fault injection for trace replay (Sec. IV-A3 scenarios).

A :class:`FaultPlan` is a schedule of :class:`FaultEvent`\\ s applied to the
simulated cluster while a trace replays. Events trigger either after a number
of completed operations (``at_ops``) or at a simulated time (``at_time``) —
never from the wall clock, so a seed plus a plan is fully deterministic.

Event kinds
-----------
``crash``
    The server stops serving instantly. Its metadata stays assigned to it
    until the Monitor misses enough heartbeats (failure *detection* is part
    of the model); in that window clients time out and retry with capped
    exponential backoff.
``recover``
    The server rejoins empty: capacity is restored, the global layer is
    re-replicated onto it, and local-layer subtrees are pulled back
    mirror-division style (also clears ``fail_slow`` / ``drop_heartbeats``
    and any ``loss`` / ``delay`` installed on the server's links).
``fail_slow``
    The server keeps serving but every request costs ``factor`` times the
    normal service time (gray failure / degraded disk).
``drop_heartbeats``
    The server keeps serving but stops heartbeating — after the timeout the
    Monitor evicts it anyway (a false-positive failover). Realised as a
    *mute* on the server's control-plane endpoint, the same network path a
    partition cuts.
``partition``
    Split the cluster interconnect into named groups: MDS indices plus
    ``mN`` tokens for Monitor replicas (``partition:{0,1}|{2,3,m0}@t=2.0``).
    Endpoints not named ride with the first group. Clients are not
    partitioned — a split MDS keeps serving but its heartbeats die, so the
    Monitor falsely evicts it, as it should.
``heal``
    Remove the partition with the matching group spec, or every active
    partition with ``heal:*``.
``monitor_crash`` / ``monitor_recover``
    Crash or restart Monitor replica ``N``. Losing the leader stalls
    detection and rebalancing until a standby's lease takeover bumps the
    leadership epoch (see ``repro.cluster.monitor.MonitorGroup``).
``kill9``
    Like ``crash``, but the process image is lost: access counters *and*
    the epoch fence are wiped. On ``recover`` the server replays snapshot +
    WAL tail from the durable store (``--store wal``) to restore
    acknowledged state and its fence, then re-fences through
    ``accept_directive`` before serving. With the in-memory store the
    replay restores nothing — the documented hazard.
``torn_write``
    ``kill9`` plus a torn WAL tail: the server's log is cut mid-record, as
    a crash during ``write(2)`` leaves it. Recovery must detect the tear
    via the length prefix and truncate it rather than replay garbage.
``corrupt_record``
    ``kill9`` plus a corrupted unsynced tail record (bit flip). Recovery
    must detect the CRC mismatch and truncate. Both damage kinds only ever
    touch *unsynced* bytes — acknowledged state is fsynced and stays.
``loss``
    Drop each message touching the server's links with probability ``p``
    (``loss:1@ops=500:p0.25``; default 1.0 — a blackhole). Applies to both
    the data plane (client requests time out and retry) and heartbeats.
``delay``
    Add a seeded uniform extra delay with the given mean seconds to the
    server's links (``delay:1@t=0.5:d0.002``); overlapping draws reorder
    messages.

The string form accepted by :meth:`FaultEvent.parse` (and the CLI's
``--fault`` flag) is ``kind:target@ops=N`` or ``kind:target@t=SECONDS``,
with optional suffixes ``:xF`` (fail_slow factor), ``:pP`` (loss
probability) and ``:dS`` (delay seconds)::

    crash:2@ops=1000
    recover:2@t=4.5
    fail_slow:1@ops=500:x8
    drop_heartbeats:0@t=2.0
    partition:{0,1}|{2,3,m1}@t=2.0
    heal:{0,1}|{2,3,m1}@t=4.0
    monitor_crash:0@ops=800
    loss:1@ops=500:p0.3
    delay:2@t=1.0:d0.001
    kill9:1@ops=700
    torn_write:2@ops=900
    corrupt_record:0@t=3.0
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.transport.base import mds_addr, mon_addr

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind(enum.Enum):
    """What happens to the targeted server when the event fires."""

    CRASH = "crash"
    RECOVER = "recover"
    FAIL_SLOW = "fail_slow"
    DROP_HEARTBEATS = "drop_heartbeats"
    PARTITION = "partition"
    HEAL = "heal"
    MONITOR_CRASH = "monitor_crash"
    MONITOR_RECOVER = "monitor_recover"
    LOSS = "loss"
    DELAY = "delay"
    KILL9 = "kill9"
    TORN_WRITE = "torn_write"
    CORRUPT_RECORD = "corrupt_record"


#: Kinds that do not target one MDS (``event.server`` is -1 for partition
#: and heal; a Monitor replica index for the monitor kinds).
_CLUSTER_KINDS = frozenset({FaultKind.PARTITION, FaultKind.HEAL})
_MONITOR_KINDS = frozenset({FaultKind.MONITOR_CRASH, FaultKind.MONITOR_RECOVER})
#: Kinds that degrade a server — the state a later ``recover`` clears.
_DEGRADING_KINDS = frozenset({
    FaultKind.CRASH,
    FaultKind.FAIL_SLOW,
    FaultKind.DROP_HEARTBEATS,
    FaultKind.LOSS,
    FaultKind.DELAY,
    FaultKind.KILL9,
    FaultKind.TORN_WRITE,
    FaultKind.CORRUPT_RECORD,
})
#: The crash-with-volatile-loss family (all imply a ``kill9``-style down).
_KILL_KINDS = frozenset({
    FaultKind.KILL9,
    FaultKind.TORN_WRITE,
    FaultKind.CORRUPT_RECORD,
})


def _parse_groups(text: str) -> Tuple[Tuple[str, ...], ...]:
    """Parse ``{0,1}|{2,3,m0}`` into canonical member-token groups."""
    groups: List[Tuple[str, ...]] = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ValueError(
                f"partition group {chunk!r} must look like '{{0,1}}'"
            )
        members = []
        for token in chunk[1:-1].split(","):
            token = token.strip()
            if not token:
                continue
            if token.startswith("m"):
                int(token[1:])  # must be a Monitor replica index
            else:
                int(token)  # must be an MDS index
            members.append(token)
        if not members:
            raise ValueError(f"partition group {chunk!r} is empty")
        groups.append(tuple(sorted(set(members), key=_member_key)))
    if len(groups) < 2:
        raise ValueError("a partition needs at least two '|'-separated groups")
    return tuple(groups)


def _member_key(token: str) -> Tuple[int, int]:
    if token.startswith("m"):
        return (1, int(token[1:]))
    return (0, int(token))


def _format_groups(groups: Sequence[Sequence[str]]) -> str:
    return "|".join("{" + ",".join(group) + "}" for group in groups)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, triggered by op count or simulated time."""

    kind: FaultKind
    #: Target MDS index; a Monitor replica index for the monitor kinds;
    #: -1 for cluster-level events (partition / heal).
    server: int
    at_ops: Optional[int] = None
    at_time: Optional[float] = None
    #: ``fail_slow`` service-time multiplier (ignored by other kinds).
    factor: float = 4.0
    #: ``loss`` drop probability (1.0 = blackhole; ignored by other kinds).
    probability: float = 1.0
    #: ``delay`` mean extra seconds (ignored by other kinds).
    delay: float = 0.0
    #: ``partition`` / ``heal`` member groups (MDS ids and ``mN`` tokens).
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None
    #: The original ``--fault`` text, kept for error messages; not part of
    #: event identity (a parsed and a constructed event compare equal).
    spec: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.kind in _CLUSTER_KINDS:
            if self.server != -1:
                raise ValueError(f"{self.kind.value} events are cluster-wide")
            if self.kind is FaultKind.PARTITION and not self.groups:
                raise ValueError("partition events need member groups")
        elif self.server < 0:
            raise ValueError("server index must be non-negative")
        if (self.at_ops is None) == (self.at_time is None):
            raise ValueError("exactly one of at_ops / at_time must be set")
        if self.at_ops is not None and self.at_ops < 0:
            raise ValueError("at_ops must be non-negative")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError("at_time must be non-negative")
        if self.kind is FaultKind.FAIL_SLOW and self.factor < 1.0:
            raise ValueError("fail_slow factor must be >= 1")
        if self.kind is FaultKind.LOSS and not 0.0 < self.probability <= 1.0:
            raise ValueError("loss probability must be within (0, 1]")
        if self.kind is FaultKind.DELAY and self.delay <= 0.0:
            raise ValueError("delay events need a positive ':dSECONDS' suffix")

    # ------------------------------------------------------------------
    @property
    def partition_name(self) -> Optional[str]:
        """Canonical name of the partition this event creates or heals."""
        if self.groups is None:
            return None
        return _format_groups(self.groups)

    def partition_endpoints(self) -> List[Tuple[str, ...]]:
        """Member groups (``{0,1}|{2,m0}`` tokens) as transport endpoints."""
        return [
            tuple(
                mon_addr(int(token[1:])) if token.startswith("m")
                else mds_addr(int(token))
                for token in group
            )
            for group in self.groups or ()
        ]

    def describe(self) -> str:
        """The event's spec text (re-synthesised when built in code)."""
        return self.spec if self.spec is not None else self.to_spec()

    def to_spec(self) -> str:
        """Canonical ``--fault`` string that parses back to this event.

        This is what the chaos harness dumps on an invariant violation so a
        failing schedule replays verbatim through ``repro simulate --fault``.
        """
        if self.kind in _CLUSTER_KINDS:
            target = self.partition_name if self.groups is not None else "*"
        else:
            target = str(self.server)
        trigger = (
            f"ops={self.at_ops}" if self.at_ops is not None
            else f"t={self.at_time:g}"
        )
        extra = ""
        if self.kind is FaultKind.FAIL_SLOW:
            extra = f":x{self.factor:g}"
        elif self.kind is FaultKind.LOSS:
            extra = f":p{self.probability:g}"
        elif self.kind is FaultKind.DELAY:
            extra = f":d{self.delay:g}"
        return f"{self.kind.value}:{target}@{trigger}{extra}"

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultEvent":
        """Parse ``kind:target@ops=N|t=SEC[:xF|:pP|:dS]`` (module docstring)."""
        head, sep, trigger = spec.partition("@")
        if not sep:
            raise ValueError(f"fault spec {spec!r} missing '@trigger'")
        kind_name, sep, target_text = head.partition(":")
        if not sep:
            raise ValueError(f"fault spec {spec!r} missing ':target'")
        try:
            kind = FaultKind(kind_name.strip())
        except ValueError:
            names = ", ".join(k.value for k in FaultKind)
            raise ValueError(
                f"unknown fault kind {kind_name!r} (expected one of: {names})"
            ) from None
        server = -1
        groups: Optional[Tuple[Tuple[str, ...], ...]] = None
        if kind in _CLUSTER_KINDS:
            target_text = target_text.strip()
            if not (kind is FaultKind.HEAL and target_text == "*"):
                groups = _parse_groups(target_text)
        else:
            server = int(target_text)
        factor = 4.0
        probability = 1.0
        delay = 0.0
        trigger, sep, extra = trigger.partition(":")
        if sep:
            if extra.startswith("x"):
                factor = float(extra[1:])
            elif extra.startswith("p"):
                probability = float(extra[1:])
            elif extra.startswith("d"):
                delay = float(extra[1:])
            else:
                raise ValueError(
                    f"fault spec {spec!r}: extra must look like "
                    "':x4', ':p0.5' or ':d0.001'"
                )
        key, sep, value = trigger.partition("=")
        if not sep:
            raise ValueError(f"fault spec {spec!r}: trigger must be ops=N or t=SEC")
        key = key.strip()
        common = dict(
            factor=factor, probability=probability, delay=delay,
            groups=groups, spec=spec,
        )
        if key == "ops":
            return cls(kind, server, at_ops=int(value), **common)
        if key == "t":
            return cls(kind, server, at_time=float(value), **common)
        raise ValueError(f"fault spec {spec!r}: trigger must be ops=N or t=SEC")


class FaultPlan:
    """An immutable, ordered schedule of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"expected FaultEvent, got {type(event).__name__}")

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "FaultPlan":
        """Build a plan from textual specs (the CLI's repeated ``--fault``)."""
        return cls(FaultEvent.parse(spec) for spec in specs)

    # ------------------------------------------------------------------
    def validate(self, num_servers: int, num_monitors: int = 1) -> "FaultPlan":
        """Check the plan against a concrete cluster before it is applied.

        Raises ``ValueError`` naming the offending spec for any event that
        targets a server (or Monitor replica, or partition member) outside
        the cluster — at plan-apply time, not deep inside the replay loop.
        A ``recover`` event for a server no earlier event in the plan ever
        degraded is almost certainly a typo, but it is harmless at runtime,
        so it warns instead of failing.
        """
        for event in self.events:
            if event.kind in _MONITOR_KINDS:
                if event.server >= num_monitors:
                    raise ValueError(
                        f"fault {event.describe()!r} targets Monitor replica "
                        f"{event.server} but the group only has replicas "
                        f"0..{num_monitors - 1}"
                    )
            elif event.kind in _CLUSTER_KINDS:
                for group in event.groups or ():
                    for token in group:
                        if token.startswith("m"):
                            if int(token[1:]) >= num_monitors:
                                raise ValueError(
                                    f"fault {event.describe()!r} partitions "
                                    f"Monitor replica {token[1:]} but the "
                                    f"group only has replicas "
                                    f"0..{num_monitors - 1}"
                                )
                        elif int(token) >= num_servers:
                            raise ValueError(
                                f"fault {event.describe()!r} partitions "
                                f"server {token} but the cluster only has "
                                f"servers 0..{num_servers - 1}"
                            )
            elif event.server >= num_servers:
                raise ValueError(
                    f"fault {event.describe()!r} targets server "
                    f"{event.server} but the cluster only has servers "
                    f"0..{num_servers - 1}"
                )
        degraded = {
            e.server for e in self.events if e.kind in _DEGRADING_KINDS
        }
        for event in self.events:
            if event.kind is FaultKind.RECOVER and event.server not in degraded:
                warnings.warn(
                    f"fault {event.describe()!r} recovers server "
                    f"{event.server}, but no event in the plan ever degrades "
                    "it (crash/fail_slow/drop_heartbeats/loss/delay) — "
                    "the recover will be a no-op",
                    stacklevel=2,
                )
        return self

    # ------------------------------------------------------------------
    def to_specs(self) -> List[str]:
        """Canonical ``--fault`` strings, in schedule order."""
        return [event.to_spec() for event in self.events]

    def by_ops(self) -> List[FaultEvent]:
        """Op-count-triggered events, in firing order."""
        return sorted(
            (e for e in self.events if e.at_ops is not None),
            key=lambda e: e.at_ops,
        )

    def by_time(self) -> List[FaultEvent]:
        """Time-triggered events, in firing order."""
        return sorted(
            (e for e in self.events if e.at_time is not None),
            key=lambda e: e.at_time,
        )

    def servers(self) -> List[int]:
        """All metadata servers any event targets directly."""
        return sorted({
            e.server
            for e in self.events
            if e.server >= 0 and e.kind not in _MONITOR_KINDS
        })

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({list(self.events)!r})"
