"""A keep-everything listener on an ``OpHistory``: the op log folds its
records as they arrive, so a test that wants the records themselves attaches
one (``history.listen(HistorySink())``)."""

from typing import List, NamedTuple


class HistoryEvent(NamedTuple):
    """One op-log record as a :class:`HistorySink` keeps it (the kinds are
    in ``repro.chaos.history``'s module docstring)."""

    kind: str
    op_id: int         # the trace position; -1 for wipe records
    client: int        # -1 when the transport has no client sessions
    t: float           # sim time or wall-clock loop time
    server: int = -1   # retried / acking / last-tried / wiped server
    epoch: int = 0     # ok
    attempts: int = 0  # retry: this attempt; terminals: attempts burned
    path: str = ""     # invoke
    op: str = ""       # invoke: the op type ("read", ...)
    jumps: int = 0     # terminals: the visits beyond the first (redirects)
    redirected: bool = False  # ok


class HistorySink:
    """A listener that keeps every record as a :class:`HistoryEvent`, in
    record order."""

    def __init__(self) -> None:
        self.events: List[HistoryEvent] = []

    def invoke(self, op_id, client, t, path, op) -> None:
        self.events.append(HistoryEvent("invoke", op_id, client, t, path=path, op=op))

    def retry(self, op_id, client, t, server, attempt) -> None:
        self.events.append(HistoryEvent("retry", op_id, client, t, server, attempts=attempt))

    def ok(self, op_id, client, t, server, epoch, jumps, redirected, attempts, latency) -> None:
        self.events.append(HistoryEvent(
            "ok", op_id, client, t, server, epoch, attempts, jumps=jumps, redirected=redirected))

    def fail(self, op_id, client, t, server, attempts, jumps) -> None:
        self.events.append(HistoryEvent(
            "fail", op_id, client, t, server, attempts=attempts, jumps=jumps))

    def indeterminate(self, op_id, client, t, attempts, jumps) -> None:
        self.events.append(HistoryEvent(
            "indeterminate", op_id, client, t, attempts=attempts, jumps=jumps))

    def wipe(self, server, t) -> None:
        self.events.append(HistoryEvent("wipe", -1, -1, t, server=server))
