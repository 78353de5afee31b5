"""The op log: one call per operation transition, folded as it arrives.

The state invariants of :func:`repro.chaos.harness.check_run` inspect the
cluster's *end state* after quiescence. This module audits the *history* —
the complete per-client sequence of operation events as the clients saw
them — which is strictly stronger: a run can quiesce into a perfectly
healthy placement and still have double-acked an operation, regressed a
fence epoch mid-run, or acknowledged a mutation that no surviving ledger
contains.

An :class:`OpHistory` is the one op log of both execution modes: the
simulator's replay loop and the live load generator make one recorder call
per transition, keyed by the op's trace position. Record kinds:

``invoke``
    The client handed the op (path, type) to the cluster; one per op, ever.
``retry``
    An attempt got no answer from ``server``; attempt ``attempts`` follows.
``ok``
    The client observed the acknowledgement: the acking server and its fence
    epoch at serve time, the visits beyond the first (``jumps``), whether a
    stale index entry redirected it, and the attempts burned before it.
``fail``
    The client gave up and *knows* the operation was never applied (every
    attempt determinately failed before reaching a server).
``indeterminate``
    The client gave up but cannot know whether some attempt was applied
    (a timeout after a successful send — the reply may have been lost).
    Indeterminate ops are excused from completeness and ledger checks;
    they must still never be *also* acked.
``wipe``
    Server-side marker: the named server lost its volatile state (kill9
    family). Resets that server's epoch floor and excuses its ledger for
    earlier acks when no durable store backs it.

The log keeps no records. Each call folds into bounded state as it
arrives: one state byte per op id (invoked / reinvoked / acked / failed /
indeterminate / settled twice), the first invoke time of each op (8 B),
the acked op ids per acking server (4 B), each client session's open op,
each server's fence floor, last wipe time and first offending acks, and
counters. :func:`audit_history` reads that state; :meth:`OpHistory.counts`
and the live ``LoadReport``'s outcomes are read off it too. Whoever wants
the records themselves listens: telemetry builds its ``op_*`` events as
they arrive. The log keeps no latency column and feeds no span recorder:
whoever drives the run keeps its own latencies, and the simulator's replay
loop feeds its sampled ops' spans itself.

Both transports record in causal order: the simulator in event-loop order
(per-server ack order equals serve order — arrivals are FIFO per server),
the live load generator in reply-receipt order (per-server replies ride
one multiplexed stream). The fence check folds exactly that: per-server
epoch floors advance in record order, never wall-clock order, so benign
cross-server reordering can not produce false positives.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Mapping, Optional, Set, Tuple

__all__ = ["OpHistory", "audit_history"]


# Per-op state bits: one byte per op id.
_INVOKED = 1
_REINVOKED = 2      # invoked more than once
_TIMING = 4         # invoked, not acked since: the latency clock runs
_ACKED = 8
_FAILED = 16
_INDETERMINATE = 32
_SETTLED = _ACKED | _FAILED | _INDETERMINATE
_RESETTLED = 64     # more than one terminal
#: The state of an op invoked once and not settled yet.
_IN_FLIGHT = _INVOKED | _TIMING

_KIND_BITS = (("fail", _FAILED), ("indeterminate", _INDETERMINATE), ("ok", _ACKED))


def _table(predicate) -> bytes:
    """A ``bytes.translate`` table mapping each state byte to 1 / 0."""
    return bytes(1 if predicate(state) else 0 for state in range(256))


_REINVOKED_OPS = _table(lambda s: s & _REINVOKED)
_ORPHANS = _table(lambda s: s & _SETTLED and not s & _INVOKED)
_RESETTLED_OPS = _table(lambda s: s & _RESETTLED)
_HANGING = _table(lambda s: s & _INVOKED and not s & _SETTLED)
_UNINVOKED = _table(lambda s: not s & _INVOKED)
_INVOKED_OPS = _table(lambda s: s & _INVOKED)


def _scan(flags: bytes, start: int = 0, stop: Optional[int] = None) -> Tuple[int, List[int]]:
    """How many ops in ``flags[start:stop]`` are flagged, and the first three."""
    if stop is None:
        stop = len(flags)
    first: List[int] = []
    at = flags.find(1, start, stop)
    while at >= 0 and len(first) < 3:
        first.append(at)
        at = flags.find(1, at + 1, stop)
    return (flags.count(1, start, stop) if first else 0), first


class _Server:
    """What the audit keeps per acking (or wiped) server."""

    __slots__ = ("floor", "acked", "wiped_at")

    def __init__(self) -> None:
        #: Highest fence epoch acked since the last wipe.
        self.floor = 0
        #: Op ids of the acks it gave (ops invoked by then), in ack order.
        self.acked = array("i")
        #: Latest wipe time, or None.
        self.wiped_at: Optional[float] = None


class OpHistory:
    """The op log of one run, folded as it is recorded.

    Every object in ``listeners`` (see :meth:`listen`) hears every call,
    ``ok`` with the latency the fold measured.

    Op ids are non-negative (trace positions); the state columns grow to
    the largest id seen.
    """

    __slots__ = (
        "listeners", "retries", "fails", "indeterminates", "wipes", "jumps",
        "_acks", "_state", "_invoked_at", "_servers",
        "_sessions", "_bad_sessions", "_regressed", "_by_epoch", "_full_epoch",
        "_reinvoked", "_reinvokes", "_reacks", "_early_acks",
    )

    def __init__(self) -> None:
        self.listeners: Tuple = ()
        #: Record counts of the rarer kinds (``invoke`` derives from the
        #: state column).
        self.retries = 0
        self.fails = 0
        self.indeterminates = 0
        self.wipes = 0
        #: Server visits beyond the first, summed over every terminal:
        #: ``ok``'s ``jumps`` plus those a failed or indeterminate op took.
        self.jumps = 0
        #: ``ok`` records, re-acks included.
        self._acks = 0
        self._state = bytearray()
        self._invoked_at = array("d")
        self._servers: Dict[int, _Server] = {}
        #: client -> its open op id (-1: none), for clients >= 0.
        self._sessions: Dict[int, int] = {}
        self._bad_sessions: Set[int] = set()
        self._regressed: List[str] = []
        #: epoch -> the first three acks stamped with it, as
        #: (ack number, op id, server).
        self._by_epoch: Dict[int, List[Tuple[int, int, int]]] = {}
        self._full_epoch = -1
        #: Ops invoked more than once: the latest invoke time (the latency
        #: clock restarts there), and how many extra invokes there were.
        self._reinvoked: Dict[int, float] = {}
        self._reinvokes = 0
        #: Acks of an op already acked.
        self._reacks = 0
        #: Acks of an op not invoked yet: (op id, server, ack time).
        self._early_acks: List[Tuple[int, int, float]] = []

    def listen(self, listener) -> None:
        """Add a listener: an object with ``invoke(op_id, client, t, path,
        op)``, ``retry(op_id, client, t, server, attempt)``, ``ok(op_id,
        client, t, server, epoch, jumps, redirected, attempts, latency)``,
        ``fail(op_id, client, t, server, attempts, jumps)``,
        ``indeterminate(op_id, client, t, attempts, jumps)`` and
        ``wipe(server, t)``, called after the fold took each record."""
        self.listeners += (listener,)

    # -- recording: one call per transition -----------------------------
    def invoke(self, op_id: int, client: int, t: float, path: str = "", op: str = "") -> None:
        state = self._state
        if op_id == len(state):
            state.append(_IN_FLIGHT)
            self._invoked_at.append(t)
        else:
            self._reinvoke(op_id, t)
        if client >= 0:
            sessions = self._sessions
            if sessions.get(client, -1) >= 0:
                self._bad_sessions.add(client)
            sessions[client] = op_id
        if self.listeners:
            for listener in self.listeners:
                listener.invoke(op_id, client, t, path, op)

    def retry(self, op_id: int, client: int, t: float, server: int, attempt: int) -> None:
        self.retries += 1
        if self.listeners:
            for listener in self.listeners:
                listener.retry(op_id, client, t, server, attempt)

    def ok(self, op_id: int, client: int, t: float, server: int, epoch: int, jumps: int = 0,
           redirected: bool = False, attempts: int = 0) -> None:
        state = self._state
        if 0 <= op_id < len(state) and state[op_id] == _IN_FLIGHT:
            state[op_id] = _INVOKED | _ACKED
            latency = t - self._invoked_at[op_id]
            invoked = True
        else:
            latency, invoked = self._odd_ack(op_id, t, server)
        ack_number = self._acks
        self._acks = ack_number + 1
        entry = self._servers.get(server)
        if entry is None:
            entry = self._servers[server] = _Server()
        floor = entry.floor
        if epoch != floor:
            if epoch > floor:
                entry.floor = epoch
            elif len(self._regressed) < 3:
                self._regressed.append(f"op {op_id}@server {server}: {floor}->{epoch}")
        if invoked:
            entry.acked.append(op_id)
        if epoch != self._full_epoch:
            self._note_epoch(epoch, ack_number, op_id, server)
        if jumps:
            self.jumps += jumps
        if client >= 0:
            sessions = self._sessions
            if sessions.get(client, -1) != op_id:
                self._bad_sessions.add(client)
            sessions[client] = -1
        if self.listeners:
            for listener in self.listeners:
                listener.ok(op_id, client, t, server, epoch, jumps, redirected,
                            attempts, latency)

    def fail(self, op_id: int, client: int, t: float, server: int = -1,
             attempts: int = 0, jumps: int = 0) -> None:
        """``jumps``: the visits beyond the first the op took (redirects)."""
        self.fails += 1
        self._settle(op_id, _FAILED)
        if jumps:
            self.jumps += jumps
        if client >= 0:
            self._settle_session(client, op_id)
        if self.listeners:
            for listener in self.listeners:
                listener.fail(op_id, client, t, server, attempts, jumps)

    def indeterminate(
        self, op_id: int, client: int, t: float, attempts: int, jumps: int = 0
    ) -> None:
        self.indeterminates += 1
        self._settle(op_id, _INDETERMINATE)
        if jumps:
            self.jumps += jumps
        if client >= 0:
            self._settle_session(client, op_id)
        if self.listeners:
            for listener in self.listeners:
                listener.indeterminate(op_id, client, t, attempts, jumps)

    def wipe(self, server: int, t: float) -> None:
        self.wipes += 1
        entry = self._servers.get(server)
        if entry is None:
            entry = self._servers[server] = _Server()
        entry.floor = 0
        if entry.wiped_at is None or t > entry.wiped_at:
            entry.wiped_at = t
        if self.listeners:
            for listener in self.listeners:
                listener.wipe(server, t)

    # -- the rare paths of the fold ---------------------------------------
    def _grow(self, op_id: int) -> int:
        """The state byte of ``op_id``, widening the columns to hold it."""
        if op_id < 0:
            raise ValueError(f"op ids are trace positions, not {op_id}")
        state = self._state
        missing = op_id + 1 - len(state)
        if missing > 0:
            state.extend(bytes(missing))
            self._invoked_at.frombytes(bytes(8 * missing))
        return state[op_id]

    def _reinvoke(self, op_id: int, t: float) -> None:
        """An invoke out of trace order, or of an op invoked before."""
        s = self._grow(op_id)
        if s & _INVOKED:
            self._state[op_id] = s | _REINVOKED | _TIMING
            self._reinvoked[op_id] = t
            self._reinvokes += 1
        else:
            self._state[op_id] = s | _INVOKED | _TIMING
            self._invoked_at[op_id] = t

    def _settle(self, op_id: int, bit: int) -> int:
        s = self._grow(op_id)
        if s & _SETTLED:
            s |= _RESETTLED
        self._state[op_id] = s | bit
        return s

    def _odd_ack(self, op_id: int, t: float, server: int) -> Tuple[float, bool]:
        """Any ack but the first terminal of an op invoked once: returns its
        latency (0.0 with no invoke timing it) and whether the op was
        invoked by then."""
        s = self._settle(op_id, _ACKED)
        if s & _ACKED:
            self._reacks += 1
        latency = 0.0
        if s & _TIMING:
            self._state[op_id] &= ~_TIMING
            latency = t - self._reinvoked.get(op_id, self._invoked_at[op_id])
        if not s & _INVOKED:
            self._early_acks.append((op_id, server, t))
        return latency, bool(s & _INVOKED)

    def _note_epoch(self, epoch: int, ack_number: int, op_id: int, server: int) -> None:
        firsts = self._by_epoch.setdefault(epoch, [])
        if len(firsts) < 3:
            firsts.append((ack_number, op_id, server))
        if len(firsts) == 3:
            self._full_epoch = epoch

    def _settle_session(self, client: int, op_id: int) -> None:
        sessions = self._sessions
        if sessions.get(client, -1) != op_id:
            self._bad_sessions.add(client)
        sessions[client] = -1

    # -- what the fold knows ----------------------------------------------
    @property
    def acked(self) -> int:
        """Ops acked at least once."""
        return self._acks - self._reacks

    def uninvoked(self, stop: int) -> Tuple[int, List[int]]:
        """Ops ``0 .. stop-1`` never invoked: how many, and the first three."""
        flags = self._state.translate(_UNINVOKED)
        known = min(stop, len(flags))
        count, first = _scan(flags, 0, known)
        if stop > known:
            count += stop - known
            first.extend(range(known, min(stop, known + 3 - len(first))))
        return count, first

    def invoked_from(self, start: int) -> Tuple[int, List[int]]:
        """Invoked ops ``>= start``: how many, and the first three."""
        return _scan(self._state.translate(_INVOKED_OPS), start)

    def counts(self) -> Dict[str, int]:
        """Small JSON-friendly roll-up of the audited kinds (stable keys,
        deterministic)."""
        tally = {
            "events": 0,
            "invoked": self._state.translate(_INVOKED_OPS).count(1) + self._reinvokes,
            "ok": self._acks,
            "failed": self.fails,
            "indeterminate": self.indeterminates,
            "wipes": self.wipes,
        }
        tally["events"] = sum(tally.values())
        return tally


def audit_history(
    history: OpHistory,
    *,
    final_epoch: Optional[int] = None,
    ledgers: Optional[Mapping[int, Set[int]]] = None,
    durable_ledgers: bool = False,
) -> List[str]:
    """Audit one operation history; returns violation strings (empty = ok).

    Checks, in order:

    1. **Structure** — exactly one invoke per op id, no terminal event for
       an id that was never invoked.
    2. **Exactly-once acks** — at most one terminal per op id; in
       particular an op is never both acked and failed/indeterminate, and
       never acked twice.
    3. **Completeness** — every invoked op reached a terminal (a client
       that is still waiting at audit time is an accounting hole).
    4. **Session monotonicity** — per client id ``>= 0``, events strictly
       alternate invoke → terminal on the same op id: the session never
       observes two operations in flight, which is the closed-loop
       statement of read-your-writes over the namespace. Client ``-1``
       (a transport without client sessions) is not a session.
    5. **Epoch-fence safety** — per acking server, in record (= serve)
       order, stamped fence epochs never decrease except across a recorded
       wipe of that server; and no stamped epoch exceeds ``final_epoch``
       (an ack fenced ahead of the Monitor group is split-brain output).
    6. **No lost acked mutation** (``ledgers`` given) — every ack is
       present in its acking server's ledger. With volatile ledgers
       (``durable_ledgers=False``) an ack is excused when that server was
       wiped at or after the op's *invoke* time — the serve happened
       somewhere in the invoke→receipt window, so a reply in flight across
       the wipe must not count as a lost mutation. With a durable store
       there is no excuse — recovery replay must restore it.

    Checks 1–3 are scans of the state column, 4 and 5 were folded as the
    records arrived, and 6 reads each server's acked ids once.
    """
    violations: List[str] = []
    state = history._state

    # 1. Structure.
    count, first = _scan(state.translate(_REINVOKED_OPS))
    if count:
        violations.append(
            f"history: {count} ops invoked more than once (e.g. ops {first})"
        )
    count, first = _scan(state.translate(_ORPHANS))
    if count:
        violations.append(
            f"history: {count} ops completed without an invoke "
            f"(e.g. ops {first})"
        )

    # 2. Exactly-once acks.
    count, first = _scan(state.translate(_RESETTLED_OPS))
    if count:
        kinds = [kind for kind, bit in _KIND_BITS if state[first[0]] & bit]
        violations.append(
            f"history: {count} ops with multiple terminal events "
            f"(e.g. op {first[0]}: {kinds}) — exactly-once broken"
        )

    # 3. Completeness.
    count, first = _scan(state.translate(_HANGING))
    if count:
        violations.append(
            f"history: {count} invoked ops never reached a terminal "
            f"(e.g. ops {first})"
        )

    # 4. Session alternation, per client session.
    bad_sessions = history._bad_sessions
    if bad_sessions:
        violations.append(
            f"history: {len(bad_sessions)} client sessions broke "
            f"invoke/complete alternation (clients "
            f"{sorted(bad_sessions)[:3]}) — session order violated"
        )

    # 5. Epoch-fence safety.
    if history._regressed:
        violations.append(
            "history: ack fence epochs regressed without a wipe "
            f"(e.g. {history._regressed})"
        )
    if final_epoch is not None:
        # The first three acks above final_epoch are each among the first
        # three of their own epoch.
        ahead = sorted(
            (number, op, server, epoch)
            for epoch, firsts in history._by_epoch.items() if epoch > final_epoch
            for number, op, server in firsts
        )[:3]
        if ahead:
            examples = [
                f"op {op}@server {server}: epoch {epoch}"
                for _, op, server, epoch in ahead
            ]
            violations.append(
                "history: acks fenced ahead of the final monitor epoch "
                f"{final_epoch} (e.g. {examples})"
            )

    # 6. No lost acked mutation.
    if ledgers is not None:
        invoked_at = history._invoked_at
        lost: List[int] = []

        def excused(server: _Server, since: float) -> bool:
            # Volatile-ledger excuse: the serve happened between invoke and
            # receipt, so any wipe at/after the invoke may have eaten it.
            return (not durable_ledgers and server.wiped_at is not None
                    and server.wiped_at >= since)

        for sid, server in history._servers.items():
            ledger = ledgers.get(sid, ())
            if isinstance(ledger, (set, frozenset)) and ledger.issuperset(server.acked):
                continue
            lost.extend(
                op for op in server.acked
                if op not in ledger and not excused(server, invoked_at[op])
            )
        for op, sid, t in history._early_acks:
            since = invoked_at[op] if state[op] & _INVOKED else t
            if op not in ledgers.get(sid, ()) and not excused(history._servers[sid], since):
                lost.append(op)
        if lost:
            lost.sort()
            violations.append(
                f"history: {len(lost)} acked ops missing from the acking "
                f"server's ledger (e.g. ops {lost[:3]}) — acked mutation "
                "lost"
            )
    return violations
