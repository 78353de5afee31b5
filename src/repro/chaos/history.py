"""Client-visible operation histories and their consistency audit.

The five chaos invariants (see :mod:`repro.chaos.harness`) inspect the
cluster's *end state* after quiescence. This module audits the *history* —
the complete per-client sequence of operation events as the clients saw
them — which is strictly stronger: a run can quiesce into a perfectly
healthy placement and still have double-acked an operation, regressed a
fence epoch mid-run, or acknowledged a mutation that no surviving ledger
contains.

An :class:`OpHistory` is an append-only recorder with five event kinds:

``invoke``
    The client handed the operation to the cluster (stable op id; one
    invoke per op, ever — retries reuse it).
``ok``
    The client observed the acknowledgement, stamped with the acking
    server and that server's fence epoch at serve time.
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

Both transports feed the same recorder: the simulator appends in
event-loop order (per-server ack order equals serve order — arrivals are
FIFO per server), and the live load generator appends in reply-receipt
order (per-server replies ride one multiplexed stream, so receipt order
is serve order there too). :func:`audit_history` exploits exactly that:
per-server epoch checks walk append order, never wall-clock order, so
benign cross-server reordering can not produce false positives.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Set

__all__ = ["HistoryEvent", "OpHistory", "audit_history"]


class HistoryEvent(NamedTuple):
    """One recorded history event (see the module docstring for kinds).

    A NamedTuple: both transports record two per operation.
    """

    kind: str          # "invoke" | "ok" | "fail" | "indeterminate" | "wipe"
    op_id: int         # -1 for wipe events
    client: int        # -1 when the transport has no client sessions
    t: float           # sim time or wall-clock loop time
    server: int = -1   # acking server (ok) / wiped server (wipe)
    epoch: int = 0     # acking server's fence epoch at serve time (ok)
    attempts: int = 0  # attempts burned before a terminal (fail/indet.)


#: Event kinds that terminate an operation (exactly one per invoke).
TERMINAL_KINDS = frozenset({"ok", "fail", "indeterminate"})


class OpHistory:
    """Append-only operation history shared by both transports."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[HistoryEvent] = []

    # -- recording ------------------------------------------------------
    def invoke(self, op_id: int, client: int, t: float) -> None:
        self.events.append(HistoryEvent("invoke", op_id, client, t))

    def ok(
        self, op_id: int, client: int, t: float, server: int, epoch: int
    ) -> None:
        self.events.append(HistoryEvent("ok", op_id, client, t, server, epoch))

    def fail(self, op_id: int, client: int, t: float, attempts: int) -> None:
        self.events.append(
            HistoryEvent("fail", op_id, client, t, attempts=attempts)
        )

    def indeterminate(
        self, op_id: int, client: int, t: float, attempts: int
    ) -> None:
        self.events.append(
            HistoryEvent("indeterminate", op_id, client, t, attempts=attempts)
        )

    def wipe(self, server: int, t: float) -> None:
        self.events.append(HistoryEvent("wipe", -1, -1, t, server=server))

    # -- summaries ------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Small JSON-friendly roll-up (stable keys, deterministic)."""
        tally = {
            "events": len(self.events),
            "invoked": 0, "ok": 0, "failed": 0,
            "indeterminate": 0, "wipes": 0,
        }
        keys = {
            "invoke": "invoked", "ok": "ok", "fail": "failed",
            "indeterminate": "indeterminate", "wipe": "wipes",
        }
        for event in self.events:
            tally[keys[event.kind]] += 1
        return tally

    def __len__(self) -> int:
        return len(self.events)


def audit_history(
    history: OpHistory,
    *,
    final_epoch: Optional[int] = None,
    closed_loop: bool = False,
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
    4. **Session monotonicity** (``closed_loop=True`` only) — per client,
       events strictly alternate invoke → terminal on the same op id: the
       session never observes two operations in flight, which is the
       closed-loop statement of read-your-writes over the namespace.
    5. **Epoch-fence safety** — per acking server, in append (= serve)
       order, stamped fence epochs never decrease except across a recorded
       wipe of that server; and no stamped epoch exceeds ``final_epoch``
       (an ack fenced ahead of the Monitor group is split-brain output).
    6. **No lost acked mutation** (``ledgers`` given) — every acked op is
       present in its acking server's ledger. With volatile ledgers
       (``durable_ledgers=False``) an ack is excused when that server was
       wiped at or after the op's *invoke* time — the serve happened
       somewhere in the invoke→receipt window, so a reply in flight across
       the wipe must not count as a lost mutation. With a durable store
       there is no excuse — recovery replay must restore it.
    """
    violations: List[str] = []
    events = history.events

    invoked: Dict[int, int] = {}        # op id -> invoke count
    terminals: Dict[int, List[HistoryEvent]] = {}
    for event in events:
        if event.kind == "invoke":
            invoked[event.op_id] = invoked.get(event.op_id, 0) + 1
        elif event.kind in TERMINAL_KINDS:
            terminals.setdefault(event.op_id, []).append(event)

    # 1. Structure.
    multi_invoked = sorted(i for i, n in invoked.items() if n > 1)
    if multi_invoked:
        violations.append(
            f"history: {len(multi_invoked)} ops invoked more than once "
            f"(e.g. ops {multi_invoked[:3]})"
        )
    orphans = sorted(i for i in terminals if i not in invoked)
    if orphans:
        violations.append(
            f"history: {len(orphans)} ops completed without an invoke "
            f"(e.g. ops {orphans[:3]})"
        )

    # 2. Exactly-once acks.
    doubled = sorted(i for i, t in terminals.items() if len(t) > 1)
    if doubled:
        kinds = sorted({e.kind for e in terminals[doubled[0]]})
        violations.append(
            f"history: {len(doubled)} ops with multiple terminal events "
            f"(e.g. op {doubled[0]}: {kinds}) — exactly-once broken"
        )

    # 3. Completeness.
    hanging = sorted(i for i in invoked if i not in terminals)
    if hanging:
        violations.append(
            f"history: {len(hanging)} invoked ops never reached a terminal "
            f"(e.g. ops {hanging[:3]})"
        )

    # 4. Closed-loop session alternation.
    if closed_loop:
        open_op: Dict[int, Optional[int]] = {}
        bad_sessions: Set[int] = set()
        for event in events:
            if event.kind == "invoke":
                if open_op.get(event.client) is not None:
                    bad_sessions.add(event.client)
                open_op[event.client] = event.op_id
            elif event.kind in TERMINAL_KINDS:
                if open_op.get(event.client) != event.op_id:
                    bad_sessions.add(event.client)
                open_op[event.client] = None
        if bad_sessions:
            violations.append(
                f"history: {len(bad_sessions)} client sessions broke "
                f"invoke/complete alternation (clients "
                f"{sorted(bad_sessions)[:3]}) — session order violated"
            )

    # 5. Epoch-fence safety (per-server append order; wipes reset).
    floors: Dict[int, int] = {}
    regressed: List[str] = []
    ahead: List[str] = []
    for event in events:
        if event.kind == "wipe":
            floors[event.server] = 0
        elif event.kind == "ok":
            floor = floors.get(event.server, 0)
            if event.epoch < floor and len(regressed) < 3:
                regressed.append(
                    f"op {event.op_id}@server {event.server}: "
                    f"{floor}->{event.epoch}"
                )
            floors[event.server] = max(floor, event.epoch)
            if final_epoch is not None and event.epoch > final_epoch:
                if len(ahead) < 3:
                    ahead.append(
                        f"op {event.op_id}@server {event.server}: "
                        f"epoch {event.epoch}"
                    )
    if regressed:
        violations.append(
            "history: ack fence epochs regressed without a wipe "
            f"(e.g. {regressed})"
        )
    if ahead:
        violations.append(
            "history: acks fenced ahead of the final monitor epoch "
            f"{final_epoch} (e.g. {ahead})"
        )

    # 6. No lost acked mutation.
    if ledgers is not None:
        wipe_times: Dict[int, List[float]] = {}
        invoke_at: Dict[int, float] = {}
        if not durable_ledgers:
            for event in events:
                if event.kind == "wipe":
                    wipe_times.setdefault(event.server, []).append(event.t)
                elif event.kind == "invoke" and event.op_id not in invoke_at:
                    invoke_at[event.op_id] = event.t
        lost: List[int] = []
        for event in events:
            if event.kind != "ok":
                continue
            if event.op_id in ledgers.get(event.server, ()):
                continue
            # Volatile-ledger excuse: the serve happened between invoke and
            # receipt, so any wipe at/after the invoke may have eaten it.
            since = invoke_at.get(event.op_id, event.t)
            if any(w >= since for w in wipe_times.get(event.server, ())):
                continue
            lost.append(event.op_id)
        if lost:
            lost.sort()
            violations.append(
                f"history: {len(lost)} acked ops missing from the acking "
                f"server's ledger (e.g. ops {lost[:3]}) — acked mutation "
                "lost"
            )
    return violations
