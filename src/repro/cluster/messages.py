"""Message/record types exchanged in the cluster (simulated or live).

The four types that cross a socket (:data:`WIRE_TYPES`: heartbeat,
directive, client request, client reply) carry an explicit wire codec —
:meth:`to_wire` producing a JSON-ready dict stamped with
:data:`WIRE_VERSION` and a ``type`` tag, and :meth:`from_wire` validating
and rebuilding the exact value. The codecs are the stable contract the live
asyncio transport frames over sockets (see ``repro.transport.wire``); the
simulator exchanges the same objects in-process.
``from_wire(to_wire(msg)) == msg`` holds for every framed type
(property-tested in ``tests/test_wire.py``), and a frame from an
incompatible schema version is rejected at decode time rather than
misparsed. ``Visit`` / ``RoutePlan`` are the route planner's in-process
records and never framed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Tuple

__all__ = [
    "WIRE_VERSION",
    "WIRE_TYPES",
    "VisitKind",
    "Visit",
    "RoutePlan",
    "Heartbeat",
    "Directive",
    "ClientRequest",
    "ClientReply",
    "to_wire",
    "from_wire",
]

#: Schema version stamped into every wire dict. Bump on any incompatible
#: field change; decoders reject mismatched versions outright (a live
#: cluster never limps along half-parsing a newer peer's frames).
#: Version 2: ``ClientReply`` carries the covering index entry (``root``)
#: and ownership directives carry the two-layer index, not a full map.
WIRE_VERSION = 2


def _wire_header(type_name: str) -> Dict[str, Any]:
    return {"v": WIRE_VERSION, "type": type_name}


def _check_wire(wire: Dict[str, Any], type_name: str) -> Dict[str, Any]:
    """Validate the version/type envelope; returns ``wire`` for chaining."""
    version = wire.get("v")
    if version != WIRE_VERSION:
        raise ValueError(
            f"wire schema version {version!r} is not supported "
            f"(this build speaks version {WIRE_VERSION})"
        )
    actual = wire.get("type")
    if actual != type_name:
        raise ValueError(
            f"expected a {type_name!r} wire message, got {actual!r}"
        )
    return wire


def _wire_decoder(type_name: str):
    """Wrap a ``from_wire`` body: check the envelope first, and turn a
    missing or mistyped field into the ``ValueError`` the transport drops
    a connection on (frames are hostile input, not trusted peers)."""

    def wrap(build):
        def from_wire(cls, wire):
            try:
                _check_wire(wire, type_name)
                return build(cls, wire)
            except (KeyError, TypeError, AttributeError) as exc:
                raise ValueError(
                    f"malformed {type_name!r} wire message: {exc!r}"
                ) from None

        from_wire.__doc__ = build.__doc__
        return classmethod(from_wire)

    return wrap


def _text(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


class VisitKind(enum.Enum):
    """Why a request touches a server."""

    ENTRY = "entry"          # first contact (client-chosen server)
    TRAVERSAL = "traversal"  # permission-check hop along the path
    REDIRECT = "redirect"    # forwarded after a stale client cache entry
    SERVE = "serve"          # the server actually owning the target


class Visit(NamedTuple):
    """One server touch within a request's lifetime.

    A NamedTuple rather than a dataclass: one is built per server hop of
    every simulated operation, and tuple construction is the cheapest
    immutable record Python offers.
    """

    server: int
    kind: VisitKind


@dataclass
class RoutePlan:
    """Resolved routing for one operation.

    ``visits`` are served sequentially; ``fanout`` servers are written in
    parallel after the sequential part (used by global-layer updates);
    ``lock_key`` serialises the operation through the lock service first.
    """

    visits: List[Visit] = field(default_factory=list)
    fanout: List[int] = field(default_factory=list)
    lock_key: str = ""

    @property
    def num_jumps(self) -> int:
        """Server-to-server transfers implied by the sequential visits."""
        return max(0, len(self.visits) - 1)


@dataclass(frozen=True)
class Heartbeat:
    """Periodic load report from an MDS to the Monitor (Sec. IV-B).

    The Monitor (``MonitorGroup.on_heartbeat``) consumes ``server`` and
    ``time`` only — liveness and re-admission. Adjustment reads loads from
    the placement, never from a beat, so ``load`` and ``relative_capacity``
    are carried for the record: the simulator fills ``relative_capacity``
    on the rounds a span or telemetry event records, and sends 0.0
    otherwise rather than sum every node's load for a field nobody reads.
    """

    server: int
    time: float
    load: float
    relative_capacity: float

    def to_wire(self) -> Dict[str, Any]:
        wire = _wire_header("heartbeat")
        wire["server"] = self.server
        wire["time"] = self.time
        wire["load"] = self.load
        wire["relative_capacity"] = self.relative_capacity
        return wire

    @_wire_decoder("heartbeat")
    def from_wire(cls, wire: Dict[str, Any]) -> "Heartbeat":
        return cls(
            server=int(wire["server"]),
            time=float(wire["time"]),
            load=float(wire["load"]),
            relative_capacity=float(wire["relative_capacity"]),
        )


@dataclass(frozen=True)
class Directive:
    """An epoch-stamped Monitor→MDS instruction (the fencing unit).

    Every placement-changing decision the Monitor group commits — failure
    re-homes, rejoins, rebalance rounds, leader elections — is journalled as
    a directive stamped with the leadership epoch in force when it was
    committed. An MDS tracks the highest epoch it has applied and rejects
    directives from older epochs (see ``MetadataServer.accept_directive``),
    so a leader deposed by a partition cannot retroactively move subtrees:
    split-brain double-ownership is fenced off at the receiver.
    """

    epoch: int
    kind: str                     # "mark_dead" | "rehome" | "rejoin" | ...
    #: Primary MDS the directive concerns (-1 for cluster-wide directives).
    server: int = -1
    #: Simulated commit time.
    t: float = 0.0
    #: Sorted free-form payload (move counts, elected leader, ...).
    info: Tuple[Tuple[str, Any], ...] = ()

    def to_record(self) -> dict:
        """JSON-ready form (journal dumps and chaos reports)."""
        record = {"epoch": self.epoch, "kind": self.kind, "t": self.t}
        if self.server >= 0:
            record["server"] = self.server
        record.update(self.info)
        return record

    def to_wire(self) -> Dict[str, Any]:
        wire = _wire_header("directive")
        wire["epoch"] = self.epoch
        wire["kind"] = self.kind
        wire["server"] = self.server
        wire["t"] = self.t
        # info is free-form but must be JSON-encodable on the wire; the
        # pair-of-pairs shape survives as a list of [key, value] pairs.
        wire["info"] = [[key, value] for key, value in self.info]
        return wire

    @_wire_decoder("directive")
    def from_wire(cls, wire: Dict[str, Any]) -> "Directive":
        return cls(
            epoch=int(wire["epoch"]),
            kind=_text(wire["kind"]),
            server=int(wire["server"]),
            t=float(wire["t"]),
            info=tuple((_text(key), value) for key, value in wire["info"]),
        )


@dataclass(frozen=True)
class ClientRequest:
    """One metadata operation submitted to a live MDS over the wire.

    ``op_id`` is assigned by the load generator and stable across retries
    and redirects, which is what makes live-mode accounting exactly-once:
    a server that already acknowledged an id re-acks idempotently.
    """

    op_id: int
    path: str
    #: Operation category value (``repro.traces.trace.OpType.value``); kept
    #: as the plain string so this module stays import-light.
    op: str
    client_id: int = 0

    def to_wire(self) -> Dict[str, Any]:
        wire = _wire_header("client_request")
        wire["op_id"] = self.op_id
        wire["path"] = self.path
        wire["op"] = self.op
        wire["client_id"] = self.client_id
        return wire

    @_wire_decoder("client_request")
    def from_wire(cls, wire: Dict[str, Any]) -> "ClientRequest":
        return cls(
            op_id=int(wire["op_id"]),
            path=_text(wire["path"]),
            op=_text(wire["op"]),
            client_id=int(wire["client_id"]),
        )


@dataclass(frozen=True)
class ClientReply:
    """A live MDS's answer to a :class:`ClientRequest`.

    ``status`` is one of:

    * ``"ack"``       — the receiving server holds the path and served it;
    * ``"redirect"``  — the receiving server may not serve the request;
      ``owner`` names the server the client should retry against
      (the live analogue of the simulator's stale-cache redirect);
    * ``"error"``     — the request could not be served (unknown path).

    ``root`` is the covering inter-node index entry — the local-layer
    subtree root above the path, owned by ``owner`` as of ``epoch`` — for
    the client to cache; it is empty for a global-layer path, which has no
    single owner to learn.
    """

    op_id: int
    status: str
    server: int
    owner: int = -1
    epoch: int = 0
    root: str = ""

    def to_wire(self) -> Dict[str, Any]:
        wire = _wire_header("client_reply")
        wire["op_id"] = self.op_id
        wire["status"] = self.status
        wire["server"] = self.server
        wire["owner"] = self.owner
        wire["epoch"] = self.epoch
        wire["root"] = self.root
        return wire

    @_wire_decoder("client_reply")
    def from_wire(cls, wire: Dict[str, Any]) -> "ClientReply":
        return cls(
            op_id=int(wire["op_id"]),
            status=_text(wire["status"]),
            server=int(wire["server"]),
            owner=int(wire["owner"]),
            epoch=int(wire["epoch"]),
            root=_text(wire["root"]),
        )


#: type tag -> message class; the dispatch table :func:`from_wire` and the
#: live transport's frame decoder share.
WIRE_TYPES = {
    "heartbeat": Heartbeat,
    "directive": Directive,
    "client_request": ClientRequest,
    "client_reply": ClientReply,
}


def to_wire(message) -> Dict[str, Any]:
    """Serialize any cluster message to its JSON-ready wire dict."""
    return message.to_wire()


def from_wire(wire: Dict[str, Any]):
    """Decode a wire dict back into the concrete message type.

    Dispatches on the ``type`` tag; raises ``ValueError`` for unknown tags
    and incompatible schema versions.
    """
    type_name = wire.get("type")
    cls = WIRE_TYPES.get(type_name) if isinstance(type_name, str) else None
    if cls is None:
        known = ", ".join(sorted(WIRE_TYPES))
        raise ValueError(
            f"unknown wire message type {type_name!r} (known: {known})"
        )
    return cls.from_wire(wire)
