"""Message/record types exchanged in the cluster (simulated or live).

The four types that cross a socket (:data:`WIRE_TYPES`: heartbeat,
directive, client request, client reply) each have exactly one encoding.
:meth:`to_wire` gives the message's *wire form* — a ``(tag, body)`` pair,
the one-byte type tag of :data:`WIRE_TYPES` and the packed body — and
:meth:`from_wire` validates a wire form and rebuilds the exact value.
``repro.transport.wire`` frames a wire form as ``[u32 length][u8
WIRE_VERSION][u8 tag][body]`` and checks the version byte on the way back
in; the simulator exchanges the same objects in-process.

Bodies (big-endian, no padding; text is UTF-8, its byte length in the
header, the tails back to back in header order and filling the body
exactly):

================  ===  ===========================================  =====
type              tag  fixed header                                 tails
================  ===  ===========================================  =====
``Heartbeat``       1  ``i32 server, f64 time``                      —
``Directive``       2  — (the body is one compact JSON object:      —
                       ``epoch, kind, server, t, info``)
``ClientRequest``   3  ``i64 op_id, i32 client_id, u8 len(op),      ``op,
                       u16 len(path)``                              path``
``ClientReply``     4  ``i64 op_id, i32 server, i32 owner,          ``status,
                       i64 epoch, u8 len(status), u16 len(root)``   root``
================  ===  ===========================================  =====

``Directive`` alone keeps a JSON body: its ``info`` is free-form, and it
crosses the wire a few times a run, not once per request. A field that
does not fit its width is a ``ValueError`` at encode time; a body that is
short, long, mis-tagged, not UTF-8 or (for a directive) not the expected
JSON object is a ``ValueError`` at decode time — frames are hostile input,
and the transport drops a connection on exactly that error.
``from_wire(to_wire(msg)) == msg`` holds for every framed type
(property-tested, with arbitrary and bit-flipped frames, in
``tests/test_wire.py``). ``Visit`` / ``RoutePlan`` are the route planner's
in-process records and never framed.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field
from typing import Any, List, NamedTuple, Sequence, Tuple

__all__ = [
    "WIRE_VERSION",
    "WIRE_TYPES",
    "Wire",
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

#: Schema version, the first payload byte of every frame. Bump on any
#: incompatible change; the frame decoder rejects a mismatched version
#: outright (a live cluster never limps along half-parsing a newer peer's
#: frames).
#: Version 2: ``ClientReply`` carries the covering index entry (``root``)
#: and ownership directives carry the two-layer index, not a full map.
#: Version 3: the packed envelope and bodies above replace per-message JSON
#: objects (a version-2 payload starts with ``{``, i.e. "version 123").
#: Version 4: ``Heartbeat`` carries only ``server`` and ``time``.
WIRE_VERSION = 4

#: A message's wire form: ``(type tag, packed body)``.
Wire = Tuple[int, bytes]

_HEARTBEAT = struct.Struct(">id")
_REQUEST = struct.Struct(">qiBH")
_REPLY = struct.Struct(">qiiqBH")


def _unencodable(message, exc: Exception) -> ValueError:
    return ValueError(
        f"{type(message).__name__} field does not fit the wire layout: {exc}"
    )


def _malformed(cls, exc: Exception) -> ValueError:
    return ValueError(f"malformed {cls.__name__} wire message: {exc!r}")


def _body(cls, wire: Wire) -> bytes:
    """The body of ``wire``, which must carry ``cls``'s tag."""
    tag, body = wire
    if tag != cls.TAG:
        raise ValueError(
            f"expected a {cls.__name__} wire message (tag {cls.TAG}), "
            f"got tag {tag!r}"
        )
    return body


def _tails(body: bytes, start: int, first: int, second: int) -> Tuple[str, str]:
    """The two UTF-8 strings that must fill ``body`` from ``start`` on."""
    middle = start + first
    if middle + second != len(body):
        raise ValueError(
            f"length fields name {first}+{second} tail bytes, "
            f"the body carries {len(body) - start}"
        )
    return str(body[start:middle], "utf-8"), str(body[middle:], "utf-8")


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
    The route planner hands out shared plans, so a plan is read-only once
    built; a shared plan's ``visits`` is a tuple.
    """

    visits: Sequence[Visit] = field(default_factory=list)
    fanout: List[int] = field(default_factory=list)
    lock_key: str = ""


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beat from an MDS to the Monitor (Sec. IV-B).

    The Monitor (``MonitorGroup.on_heartbeat``) reads exactly these two
    fields: who beat, and when — liveness and re-admission. Adjustment
    reads loads from the placement, never from a beat.
    """

    server: int
    time: float

    TAG = 1

    def to_wire(self) -> Wire:
        try:
            return self.TAG, _HEARTBEAT.pack(self.server, self.time)
        except struct.error as exc:
            raise _unencodable(self, exc) from None

    @classmethod
    def from_wire(cls, wire: Wire) -> "Heartbeat":
        body = _body(cls, wire)
        try:
            return cls(*_HEARTBEAT.unpack(body))
        except struct.error as exc:
            raise _malformed(cls, exc) from None


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

    TAG = 2

    def to_record(self) -> dict:
        """JSON-ready form (journal dumps and chaos reports)."""
        record = {"epoch": self.epoch, "kind": self.kind, "t": self.t}
        if self.server >= 0:
            record["server"] = self.server
        record.update(self.info)
        return record

    def to_wire(self) -> Wire:
        # info is free-form but must be JSON-encodable on the wire; the
        # pair-of-pairs shape survives as a list of [key, value] pairs.
        try:
            fields = {
                "epoch": self.epoch, "kind": self.kind, "server": self.server,
                "t": self.t, "info": [[key, value] for key, value in self.info],
            }
            return self.TAG, json.dumps(fields, separators=(",", ":")).encode()
        except (TypeError, ValueError) as exc:
            raise _unencodable(self, exc) from None

    @classmethod
    def from_wire(cls, wire: Wire) -> "Directive":
        body = _body(cls, wire)
        try:
            fields = json.loads(str(body, "utf-8"))
            if not isinstance(fields, dict):
                raise TypeError("the body must be a JSON object")
            epoch, kind, server, t, info = (
                fields[name] for name in ("epoch", "kind", "server", "t", "info")
            )
            if not (
                isinstance(epoch, int) and isinstance(kind, str)
                and isinstance(server, int) and isinstance(t, (int, float))
                and isinstance(info, list)
                and all(
                    isinstance(pair, list) and len(pair) == 2
                    and isinstance(pair[0], str)
                    for pair in info
                )
            ):
                raise TypeError("a field of the wrong JSON type")
            return cls(
                epoch, kind, server, float(t),
                tuple((key, value) for key, value in info),
            )
        except (
            KeyError, TypeError, ValueError, OverflowError, RecursionError
        ) as exc:
            raise _malformed(cls, exc) from None


class ClientRequest(NamedTuple):
    """One metadata operation submitted to a live MDS over the wire.

    ``op_id`` is assigned by the load generator and stable across retries
    and redirects, which is what makes live-mode accounting exactly-once:
    a server that already acknowledged an id re-acks idempotently.

    A NamedTuple for the reason :class:`Visit` is one: the live path builds
    two per hop (sender and receiver).
    """

    op_id: int
    path: str
    #: Operation category value (``repro.traces.trace.OpType.value``); kept
    #: as the plain string so this module stays import-light.
    op: str
    client_id: int = 0

    TAG = 3

    def to_wire(self) -> Wire:
        try:
            op, path = self.op.encode(), self.path.encode()
            return self.TAG, _REQUEST.pack(
                self.op_id, self.client_id, len(op), len(path)
            ) + op + path
        except (struct.error, AttributeError, UnicodeEncodeError) as exc:
            raise _unencodable(self, exc) from None

    @classmethod
    def from_wire(cls, wire: Wire) -> "ClientRequest":
        body = _body(cls, wire)
        try:
            op_id, client_id, op_len, path_len = _REQUEST.unpack_from(body)
            op, path = _tails(body, _REQUEST.size, op_len, path_len)
        except (struct.error, ValueError) as exc:
            raise _malformed(cls, exc) from None
        return cls(op_id, path, op, client_id)


class ClientReply(NamedTuple):
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

    TAG = 4

    def to_wire(self) -> Wire:
        try:
            status, root = self.status.encode(), self.root.encode()
            return self.TAG, _REPLY.pack(
                self.op_id, self.server, self.owner, self.epoch,
                len(status), len(root),
            ) + status + root
        except (struct.error, AttributeError, UnicodeEncodeError) as exc:
            raise _unencodable(self, exc) from None

    @classmethod
    def from_wire(cls, wire: Wire) -> "ClientReply":
        body = _body(cls, wire)
        try:
            op_id, server, owner, epoch, status_len, root_len = (
                _REPLY.unpack_from(body)
            )
            status, root = _tails(body, _REPLY.size, status_len, root_len)
        except (struct.error, ValueError) as exc:
            raise _malformed(cls, exc) from None
        return cls(op_id, status, server, owner, epoch, root)


#: type tag -> message class: the dispatch table of :func:`from_wire`.
WIRE_TYPES = {
    cls.TAG: cls for cls in (Heartbeat, Directive, ClientRequest, ClientReply)
}


def to_wire(message) -> Wire:
    """Any cluster message's wire form, ``(tag, body)``."""
    return message.to_wire()


def from_wire(wire: Wire):
    """Decode a wire form back into the concrete message type.

    Dispatches on the tag; raises ``ValueError`` for an unknown tag or a
    malformed body.
    """
    cls = WIRE_TYPES.get(wire[0])
    if cls is None:
        raise ValueError(
            f"unknown wire message tag {wire[0]!r} (known: {sorted(WIRE_TYPES)})"
        )
    return cls.from_wire(wire)
