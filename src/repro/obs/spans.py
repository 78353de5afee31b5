"""Causal span trees for head-sampled operations and cluster lifecycles.

A *span* is a named, categorized ``[t0, t1]`` interval in simulated time.
Per-operation spans form a tree rooted at ``client_submit`` whose children
**tile** the operation's end-to-end latency exactly::

    client_submit
      retry x k          (abandoned attempts, including backoff)
      net_send           (client -> first server hop, plus injected delay)
      lock_wait          (ZooKeeper acquire round trip + queueing, if locked)
      [per server visit]
        net_send         (inter-server forward, visits after the first)
        migration_stall  (queueing attributed to migration background work)
        queue_wait       (FIFO wait behind other requests)
        serve            (MDS CPU service)
      net_reply          (last server -> client hop)
      replicate          (async GL fan-out; zero-width, excluded from the sum)

Every non-``async`` child interval abuts the next, so the per-category sums
(queueing / service / network / retry / migration) add up to the root's
duration — the invariant the critical-path analyzer and its tests lean on.

Determinism: whether an operation is sampled depends only on ``(seed,
op id)`` via a splitmix64-style integer hash, so the same run always emits
the exact same spans. Span ids are derived from the causal op id (root
``"<op>"``, children ``"<op>.<k>"``); cluster-lifecycle spans (failover,
recovery, adjustment rounds) draw from a separate ``"c<n>"`` sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SpanRecord", "SpanRecorder"]

_MASK64 = (1 << 64) - 1


def _mix(seed: int, value: int) -> int:
    """splitmix64-style avalanche of ``(seed, value)`` — stable across runs
    and Python versions (pure integer arithmetic)."""
    x = (seed * 0x9E3779B97F4A7C15 + value * 0xBF58476D1CE4E5B9 + 1) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class SpanRecord:
    """One closed interval of a span tree."""

    seq: int
    sid: str
    name: str
    #: Attribution bucket: ``queueing`` / ``service`` / ``network`` /
    #: ``retry`` / ``migration`` for op spans (these tile the root),
    #: ``async`` for off-critical-path work, ``cluster`` for lifecycles.
    cat: str
    t0: float
    t1: float
    parent: Optional[str] = None
    #: Causal operation id (None for cluster-level spans).
    op: Optional[int] = None
    fields: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_record(self) -> Dict[str, Any]:
        """The JSONL dict form of this span."""
        record: Dict[str, Any] = {
            "kind": "span",
            "span": self.sid,
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.parent is not None:
            record["parent"] = self.parent
        if self.op is not None:
            record["op"] = self.op
        record.update(self.fields)
        return record


class SpanRecorder:
    """Collects span trees for 1-in-``sample_every`` operations.

    The replay loop feeds it per-op observations (attempt starts, lock
    grant, server visits, completion) through :meth:`begin_op` /
    :meth:`retry` / :meth:`visit` / :meth:`finish`; the span construction
    lives here.
    """

    def __init__(self, sample_every: int, seed: int = 0) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.seed = seed
        self.spans: List[SpanRecord] = []
        self._seq = 0
        self._cluster_ids = 0

    # ------------------------------------------------------------------
    def sampled(self, op_id: int) -> bool:
        """Deterministic head-sampling decision for one operation."""
        return _mix(self.seed, op_id) % self.sample_every == 0

    def _push(
        self,
        sid: str,
        name: str,
        cat: str,
        t0: float,
        t1: float,
        parent: Optional[str] = None,
        op: Optional[int] = None,
        fields: Tuple[Tuple[str, Any], ...] = (),
    ) -> None:
        self.spans.append(
            SpanRecord(self._seq, sid, name, cat, t0, t1, parent, op, fields)
        )
        self._seq += 1

    # ------------------------------------------------------------------
    # Operation spans. The replay loop threads a small mutable trace dict
    # through an op's lifetime; spans are only materialized at completion.
    # ------------------------------------------------------------------
    def begin_op(
        self,
        op_id: int,
        path: str,
        client: int,
        start: float,
        pre_lock: float,
        granted: Optional[float],
    ) -> Dict[str, Any]:
        """Start tracing a sampled op; returns its mutable trace state.

        ``pre_lock`` is the first-server arrival before lock acquisition,
        ``granted`` the lock grant time (None when the plan takes no lock).
        """
        return {
            "id": op_id,
            "path": path,
            "client": client,
            "start": start,
            "atts": [start],
            "d0": (pre_lock, granted),
            "v": [],
        }

    def retry(self, tr: Dict[str, Any], at: float) -> None:
        """The op timed out and was re-pushed to arrive at ``at``: earlier
        visits are off the critical path (their interval becomes ``retry``)."""
        tr["atts"].append(at)
        tr["d0"] = None
        tr["v"].clear()

    def visit(
        self,
        tr: Dict[str, Any],
        server: int,
        arrival: float,
        begin: float,
        end: float,
        budget: List[float],
    ) -> None:
        """Record one server visit, splitting the FIFO wait into migration
        stall (consuming that server's accrued migration-CPU budget) and
        plain queueing."""
        take = budget[server]
        gap = begin - arrival
        if take > gap:
            take = gap
        if take > 0.0:
            budget[server] -= take
        else:
            take = 0.0
        tr["v"].append((server, arrival, begin, end, take))

    def finish(self, tr: Dict[str, Any], completion: float, replicas: int) -> None:
        """Materialize the span tree for a completed sampled op."""
        op_id = tr["id"]
        root = str(op_id)
        self._push(
            root, "client_submit", "op", tr["start"], completion,
            op=op_id,
            fields=(("client", tr["client"]), ("path", tr["path"])),
        )
        k = 0

        def child(name, cat, t0, t1, fields=()):
            nonlocal k
            self._push(
                f"{op_id}.{k}", name, cat, t0, t1,
                parent=root, op=op_id, fields=fields,
            )
            k += 1

        atts = tr["atts"]
        for i in range(len(atts) - 1):
            child("retry", "retry", atts[i], atts[i + 1], (("attempt", i + 1),))
        visits = tr["v"]
        d0 = tr["d0"]
        first = True
        if d0 is not None:
            # Untried-attempt dispatch: client hop (plus any injected
            # delay), then the lock round trip. A retried final attempt has
            # no such gap — it arrives at the server the moment it is
            # re-pushed, so the whole wait sits inside its retry span.
            pre_lock, granted = d0
            child(
                "net_send", "network", atts[-1], pre_lock,
                (("server", visits[0][0]),),
            )
            if granted is not None:
                child("lock_wait", "queueing", pre_lock, granted)
            first = False
            prev_end = granted if granted is not None else pre_lock
        else:
            prev_end = atts[-1]
        for server, arrival, begin, end, stall in visits:
            if not first:
                child(
                    "net_send", "network", prev_end, arrival,
                    (("server", server),),
                )
            first = False
            if stall > 0.0:
                child(
                    "migration_stall", "migration", arrival, arrival + stall,
                    (("server", server),),
                )
            child(
                "queue_wait", "queueing", arrival + stall, begin,
                (("server", server),),
            )
            child("serve", "service", begin, end, (("server", server),))
            prev_end = end
        child("net_reply", "network", prev_end, completion)
        if replicas:
            child(
                "replicate", "async", completion, completion,
                (("replicas", replicas),),
            )

    # ------------------------------------------------------------------
    # Cluster-lifecycle spans (failover, recovery, adjustment rounds).
    # ------------------------------------------------------------------
    def cluster(
        self,
        name: str,
        t0: float,
        t1: float,
        parent: Optional[str] = None,
        fields: Tuple[Tuple[str, Any], ...] = (),
    ) -> str:
        """Record one cluster-level span; returns its id (for parenting).

        ``t0`` is clamped to ``t1``: op-count faults are stamped at the
        completion that crossed the threshold while detection runs on the
        lazy heartbeat grid, so a detection tick can land fractionally
        before the crash's recorded time. Availability accounting keeps
        the raw (occasionally negative) latency; spans must stay
        well-formed intervals or B/E export breaks.
        """
        if t0 > t1:
            t0 = t1
        sid = f"c{self._cluster_ids}"
        self._cluster_ids += 1
        self._push(sid, name, "cluster", t0, t1, parent=parent, fields=fields)
        return sid
