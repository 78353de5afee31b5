"""Cluster Monitor (Sec. IV-A3).

D2-Tree adds a Monitor to keep MDS behaviour simple, mirroring Ceph's OSD
monitor. It (1) accepts heartbeats and maintains the pending pool for
dynamic subtree adjustment, (2) keeps the global layer consistent across
MDSs, and (3) tracks cluster membership — MDS failures and additions.

In the simulator the Monitor owns the authoritative subtree index (clients
hold possibly-stale copies) and decides when to trigger a rebalance round.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set

from repro.placement import MetadataScheme, Migration, Placement
from repro.cluster.messages import Directive, Heartbeat
from repro.core.namespace import NamespaceTree
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["MonitorGroup", "PlacementJournal"]


class PlacementJournal:
    """Append-only log of committed directives.

    The journal is the Monitor group's replication mechanism: a directive is
    *committed* by appending it here (which models a synchronous quorum
    write), so any standby that later wins the lease can reconstruct the
    authoritative membership state — which servers are evicted, what moved
    where, in which epoch — by replaying the whole journal.
    """

    def __init__(self) -> None:
        self.entries: List[Directive] = []
        #: Durable mirror (a ``repro.storage.WalStore``); None keeps the
        #: journal RAM-only, the pre-durability behaviour.
        self._store = None

    def bind_store(self, store) -> None:
        """Mirror every committed directive into a durable store."""
        self._store = store

    def append(self, directive: Directive) -> None:
        """Commit one directive (quorum responsibility lies with the caller)."""
        self.entries.append(directive)
        if self._store is not None:
            self._store.append_directive(directive.to_record())

    def acknowledged_dead(self) -> Set[int]:
        """Replay membership: servers evicted and not since rejoined."""
        dead: Set[int] = set()
        for directive in self.entries:
            if directive.kind == "mark_dead":
                dead.add(directive.server)
            elif directive.kind in ("rejoin", "mark_alive"):
                dead.discard(directive.server)
        return dead

    def epochs_monotone(self) -> bool:
        """True when committed epochs never decrease (the fencing invariant)."""
        last = 0
        for directive in self.entries:
            if directive.epoch < last:
                return False
            last = directive.epoch
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Directive]:
        return iter(self.entries)


class MonitorGroup:
    """The Monitor: heartbeat sink, failure detector and rebalance
    coordinator, replicated as one leader plus standbys with lease failover.

    Mirrors what Ceph does to the component the paper borrows (the OSD
    monitor): the singleton Monitor of Sec. IV-A3 becomes a small replicated
    group so losing the box that runs it no longer freezes failure detection
    and the pending pool forever. The leader keeps one liveness clock per
    server — its latest heartbeat or (re)admission — and suspects a server
    whose clock is more than one heartbeat timeout old; ``expected_servers``
    starts the clocks at 0, so a server that *never* heartbeats is detected
    too. The moving parts:

    * **Leadership + lease.** Replica ``leader`` drives detection and
      rebalancing. When it crashes or loses its quorum (a partition), the
      lease runs out after ``lease_timeout`` simulated seconds and the
      lowest-numbered live replica that *can* reach a quorum takes over.
    * **Epochs.** Every takeover bumps ``epoch``. Directives are stamped
      with the committing epoch; MDSs fence out older epochs
      (``MetadataServer.accept_directive``), so a deposed leader cannot
      retroactively move subtrees — no split-brain double-ownership.
    * **Quorum gating.** A directive only commits when the leader reaches a
      majority of replicas over the (possibly partitioned) network. A
      minority-side leader keeps running but all its decisions abort, which
      is the write-side half of the fencing story.
    * **Journal.** Committed directives land in a :class:`PlacementJournal`;
      a takeover replays it to recover the acknowledged-dead set and
      restarts every liveness clock at the takeover. A leader that regains
      its quorum without a takeover restarts the clocks too.

    With one replica and no network faults the group is the paper's
    singleton Monitor: epoch stays 1 and every quorum check is trivially true.
    """

    def __init__(
        self,
        scheme: MetadataScheme,
        tree: NamespaceTree,
        placement: Placement,
        replicas: int = 1,
        heartbeat_timeout: float = 30.0,
        lease_timeout: Optional[float] = None,
        expected_servers: Optional[Iterable[int]] = None,
        telemetry: Optional[Telemetry] = None,
        network=None,
    ) -> None:
        if replicas < 1:
            raise ValueError("a Monitor group needs at least one replica")
        self.num_replicas = replicas
        self.replica_alive: List[bool] = [True] * replicas
        self.leader = 0
        self.epoch = 1
        self.heartbeat_timeout = heartbeat_timeout
        self.lease_timeout = (
            lease_timeout if lease_timeout is not None else 2.0 * heartbeat_timeout
        )
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: The FaultFabric carrying mon↔mon traffic (None = always reachable).
        self.network = network
        self.journal = PlacementJournal()
        self.scheme = scheme
        self.tree = tree
        self.placement = placement
        #: The leader's liveness clocks: server -> its latest heartbeat or
        #: (re)admission. Not replicated: a takeover restarts them.
        self._last_seen: Dict[int, float] = dict.fromkeys(
            expected_servers or (), 0.0
        )
        #: Failures already surfaced by detect_failures and acknowledged via
        #: mark_dead — never re-reported until the server heartbeats again
        #: or is re-admitted.
        #: Replicated: a takeover rebuilds it from the journal.
        self._acknowledged_dead: Set[int] = set()
        self.rebalances = 0
        self.total_migrations = 0
        self._leader_lost_at: Optional[float] = None
        #: Raised when the leader goes down or loses its quorum, cleared by
        #: the tick that finds it back: an outage between two ticks, which
        #: no tick saw, still restarts the clocks.
        self._outage = False
        self.failovers = 0
        #: Directives that failed to commit for lack of a quorum.
        self.aborted_directives = 0
        #: Optional SpanRecorder (repro.obs.spans), wired by ClusterControl.
        self.spans = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def leader_addr(self) -> str:
        """Network endpoint of the current leader (heartbeat destination)."""
        return f"mon:{self.leader}"

    def _reaches_quorum(self, replica: int) -> bool:
        """Can ``replica`` assemble a majority (itself included)?"""
        if not self.replica_alive[replica]:
            return False
        if self.num_replicas == 1:
            return True
        votes = 0
        src = f"mon:{replica}"
        for other in range(self.num_replicas):
            if not self.replica_alive[other]:
                continue
            if other == replica or self.network is None or self.network.reachable(
                src, f"mon:{other}"
            ):
                votes += 1
        return votes >= self.num_replicas // 2 + 1

    def can_commit(self) -> bool:
        """True while the leader is alive and holds a quorum."""
        return self._reaches_quorum(self.leader)

    # ------------------------------------------------------------------
    # Lease / failover
    # ------------------------------------------------------------------
    def tick(self, now: float) -> bool:
        """Advance the lease clock; returns True when leadership changed.

        Called on the heartbeat grid. While the leader is healthy the lease
        renews implicitly. Once it has been dead or quorumless for longer
        than ``lease_timeout``, the lowest-numbered live replica that can
        reach a quorum takes over: epoch bumps, an ``elect`` directive is
        journalled, and the membership state is restored from the journal
        with fresh detection grace. A leader that gets its liveness or
        quorum back before then restarts every clock at ``now`` just as a
        takeover does: it may have heard no beats meanwhile, and silence it
        could not judge is not a failure. That holds however short the
        outage was, one no tick saw included (:meth:`note_outage`).
        """
        if self.can_commit():
            if self._leader_lost_at is not None or self._outage:
                self._leader_lost_at = None
                self._outage = False
                self._last_seen = dict.fromkeys(self._last_seen, now)
            return False
        if self._leader_lost_at is None:
            self._leader_lost_at = now
            return False
        if now - self._leader_lost_at < self.lease_timeout:
            return False
        candidate = next(
            (
                replica
                for replica in range(self.num_replicas)
                if self._reaches_quorum(replica)
            ),
            None,
        )
        if candidate is None:
            return False  # no electable replica; keep waiting
        old_leader = self.leader
        self.leader = candidate
        self.epoch += 1
        self.failovers += 1
        lost_since = self._leader_lost_at
        self._leader_lost_at = None
        self._outage = False
        self._commit(
            "elect", now, info=(("from", old_leader), ("to", candidate))
        )
        # The new leader inherits the *replicated* state — the
        # acknowledged-dead set, replayed from the journal — but not the old
        # leader's clocks. Every clock restarts at the takeover, so
        # detection restarts conservatively instead of instantly evicting
        # servers the new leader has not heard from yet.
        self._acknowledged_dead = self.journal.acknowledged_dead()
        self._last_seen = dict.fromkeys(self._last_seen, now)
        self.telemetry.event(
            "monitor_failover", t=now, epoch=self.epoch,
            new_leader=candidate, old_leader=old_leader,
        )
        if self.spans is not None:
            # The span covers the leaderless window: lease loss -> takeover.
            self.spans.cluster(
                "monitor_failover", lost_since, now,
                fields=(
                    ("epoch", self.epoch),
                    ("new_leader", candidate),
                    ("old_leader", old_leader),
                ),
            )
        return True

    def crash_monitor(self, replica: int, now: float = 0.0) -> None:
        """Fault injection: Monitor replica ``replica`` stops."""
        self._set_replica(replica, False, "monitor_crash", now)

    def recover_monitor(self, replica: int, now: float = 0.0) -> None:
        """Fault injection: a crashed Monitor replica restarts (as standby,
        unless it still holds the leadership and regains its quorum)."""
        self._set_replica(replica, True, "monitor_recover", now)

    def _set_replica(self, replica: int, alive: bool, event: str, now: float) -> None:
        if not 0 <= replica < self.num_replicas:
            raise ValueError(f"no Monitor replica {replica}")
        if self.replica_alive[replica] != alive:
            self.replica_alive[replica] = alive
            self.telemetry.event(event, t=now, replica=replica)
            self.note_outage()

    def note_outage(self) -> None:
        """Note that the leader is down or quorumless now, when a replica
        crash or a fabric change makes it so: the next tick that finds it
        back restarts the clocks even if no tick saw it down."""
        if not self.can_commit():
            self._outage = True

    # ------------------------------------------------------------------
    # Directive commit (the quorum write path)
    # ------------------------------------------------------------------
    def _commit(
        self, kind: str, now: float, server: int = -1, info: tuple = ()
    ) -> Directive:
        """Journal one directive stamped with the current epoch."""
        directive = Directive(
            epoch=self.epoch, kind=kind, server=server, t=now, info=info
        )
        self.journal.append(directive)
        return directive

    def issue(
        self, kind: str, now: float, server: int = -1,
        span_parent: Optional[str] = None, **info: Any
    ) -> Optional[Directive]:
        """Commit an epoch-stamped directive, or None without a quorum.

        ``span_parent`` scopes the journal_commit span under the
        failover/recovery chain that triggered the directive.
        """
        if not self.can_commit():
            self.aborted_directives += 1
            self.telemetry.event(
                "directive_aborted", t=now, directive=kind, server=server,
                epoch=self.epoch,
            )
            return None
        directive = self._commit(kind, now, server, tuple(sorted(info.items())))
        if self.spans is not None:
            self.spans.cluster(
                "journal_commit", now, now, parent=span_parent,
                fields=(("directive", kind), ("epoch", self.epoch)),
            )
        return directive

    # ------------------------------------------------------------------
    # Heartbeats, detection, membership (leader-gated)
    # ------------------------------------------------------------------
    def expect(self, server: int, now: float = 0.0) -> None:
        """(Re)admit a cluster member: its clock restarts at ``now``, and a
        death mark is cleared and journalled (``mark_alive``)."""
        self._last_seen[server] = now
        if server in self._acknowledged_dead:
            self._commit("mark_alive", now, server)
            self.telemetry.event("monitor_mark_alive", server=server)
            self._acknowledged_dead.discard(server)

    def on_heartbeat(self, heartbeat: Heartbeat) -> bool:
        """Record an MDS's liveness beat at the leader; False when the
        leader is down.

        A heartbeat from an acknowledged-dead server clears the death mark —
        it rejoined and becomes detectable again. Network faults
        (partitions, loss, mutes) are applied by the caller routing the
        message through ``FaultFabric.deliver`` — this method models only
        the receiving end.
        """
        if not self.replica_alive[self.leader]:
            return False
        self._last_seen[heartbeat.server] = heartbeat.time
        self._acknowledged_dead.discard(heartbeat.server)
        return True

    def detect_failures(self, now: float) -> List[int]:
        """Servers newly suspected dead at ``now``; silent without a
        committable leader.

        A server is suspected when its clock — latest heartbeat or
        (re)admission — is more than one timeout old. Failures already
        acknowledged through :meth:`mark_dead` are not re-reported.
        """
        if not self.can_commit():
            return []
        suspects = sorted(
            server
            for server, seen in self._last_seen.items()
            if server not in self._acknowledged_dead
            and now - seen > self.heartbeat_timeout
        )
        if suspects:
            self.telemetry.event(
                "detect_failures", t=now, servers=suspects,
                timeout=self.heartbeat_timeout,
            )
        return suspects

    def mark_dead(
        self, server: int, now: float = 0.0, journal: bool = True
    ) -> None:
        """Acknowledge a detected failure so it is surfaced exactly once,
        and journal the eviction.

        ``journal=False`` re-marks a server whose death is already on
        record (its clearing heartbeat was stale, or its rejoin found no
        quorum): the mark returns without a second directive.
        """
        self._acknowledged_dead.add(server)
        self.telemetry.event("monitor_mark_dead", server=server)
        if journal:
            self._commit("mark_dead", now, server)

    def is_dead(self, server: int) -> bool:
        """True for servers whose failure has been acknowledged."""
        return server in self._acknowledged_dead

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(self, now: float = 0.0) -> List[Migration]:
        """One adjustment round through the scheme's policy — aborted (no
        moves) without a quorum."""
        if not self.can_commit():
            self.aborted_directives += 1
            self.telemetry.event(
                "rebalance_skipped", t=now, epoch=self.epoch,
                leader=self.leader,
            )
            return []
        migrations = self.scheme.rebalance(self.tree, self.placement)
        self.rebalances += 1
        self.total_migrations += len(migrations)
        if migrations:
            self._commit("rebalance", now, info=(("moves", len(migrations)),))
        return migrations
