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
    """Append-only log of committed directives plus a snapshot cursor.

    The journal is the Monitor group's replication mechanism: a directive is
    *committed* by appending it here (which models a synchronous quorum
    write), so any standby that later wins the lease can reconstruct the
    authoritative membership state — which servers are evicted, what moved
    where, in which epoch — by replaying from the last snapshot.
    """

    def __init__(self) -> None:
        self.entries: List[Directive] = []
        self._snapshot_index = 0
        #: Durable mirror (a ``repro.storage`` MetadataStore); None keeps
        #: the journal RAM-only, the pre-durability behaviour.
        self._store = None

    def bind_store(self, store) -> None:
        """Mirror every committed directive into a durable store."""
        self._store = store

    def append(self, directive: Directive) -> None:
        """Commit one directive (quorum responsibility lies with the caller)."""
        self.entries.append(directive)
        if self._store is not None:
            self._store.append_directive(directive.to_record())

    def snapshot(self) -> int:
        """Mark the current tail as compacted; returns the cursor."""
        self._snapshot_index = len(self.entries)
        return self._snapshot_index

    def since_snapshot(self) -> List[Directive]:
        """Entries appended after the last snapshot (the replay suffix)."""
        return self.entries[self._snapshot_index:]

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

    def server_epochs(self, server: int) -> List[int]:
        """Epochs of the directives that touched ``server``, in log order."""
        return [d.epoch for d in self.entries if d.server == server]

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
    and the pending pool forever. ``expected_servers`` registers cluster
    membership so a server that *never* heartbeats is still detected once
    its grace period (one heartbeat timeout from ``registered_at``) elapses.
    The moving parts:

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
      a takeover replays it to recover the acknowledged-dead set and resumes
      with fresh heartbeat grace periods.

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
        registered_at: float = 0.0,
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
        #: The SimNetwork carrying mon↔mon traffic (None = always reachable).
        self.network = network
        self.journal = PlacementJournal()
        self.scheme = scheme
        self.tree = tree
        self.placement = placement
        #: The leader's private heartbeat clocks (not replicated: a takeover
        #: starts them afresh).
        self._last_heartbeat: Dict[int, float] = {}
        #: Membership roster: server -> registration time (detection grace).
        self._registered_at: Dict[int, float] = dict.fromkeys(
            expected_servers or (), registered_at
        )
        #: Failures already surfaced by detect_failures and acknowledged via
        #: mark_dead — never re-reported until the server heartbeats again.
        #: Replicated: a takeover rebuilds it from the journal.
        self._acknowledged_dead: Set[int] = set()
        self.rebalances = 0
        self.total_migrations = 0
        self._leader_lost_at: Optional[float] = None
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
        with fresh detection grace.
        """
        if self.can_commit():
            self._leader_lost_at = None
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
        self._commit(
            "elect", now, info=(("from", old_leader), ("to", candidate))
        )
        # The new leader inherits the *replicated* state — the
        # acknowledged-dead set, replayed from the journal — but not the old
        # leader's heartbeat clocks. Every registered server gets a fresh
        # grace period, so detection restarts conservatively instead of
        # instantly evicting servers the new leader has not heard from yet.
        self._acknowledged_dead = self.journal.acknowledged_dead()
        self._last_heartbeat.clear()
        self._registered_at = dict.fromkeys(self._registered_at, now)
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
        """Register a cluster member (a rejoin or a newly added MDS)."""
        self._registered_at[server] = now

    def on_heartbeat(self, heartbeat: Heartbeat) -> bool:
        """Record an MDS's periodic load report at the leader; False when
        the leader is down.

        A heartbeat from an acknowledged-dead server clears the death mark —
        it rejoined and becomes detectable again. Network faults
        (partitions, loss, mutes) are applied by the caller routing the
        message through ``SimNetwork.deliver`` — this method models only
        the receiving end.
        """
        if not self.replica_alive[self.leader]:
            return False
        self._last_heartbeat[heartbeat.server] = heartbeat.time
        self._acknowledged_dead.discard(heartbeat.server)
        return True

    def last_seen(self, server: int) -> Optional[float]:
        """Last heartbeat time for ``server`` (None if never heard from)."""
        return self._last_heartbeat.get(server)

    def detect_failures(self, now: float) -> List[int]:
        """Servers newly suspected dead at ``now``; silent without a
        committable leader.

        A server is suspected when its heartbeats stopped for longer than
        the timeout, or when it is registered but has never heartbeated and
        its grace period ran out. Failures already acknowledged through
        :meth:`mark_dead` are not re-reported.
        """
        if not self.can_commit():
            return []
        suspects = [
            server
            for server, seen in self._last_heartbeat.items()
            if server not in self._acknowledged_dead
            and now - seen > self.heartbeat_timeout
        ]
        suspects.extend(
            server
            for server, registered in self._registered_at.items()
            if server not in self._acknowledged_dead
            and server not in self._last_heartbeat
            and now - registered > self.heartbeat_timeout
        )
        suspects = sorted(suspects)
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

    def mark_alive(self, server: int, now: float = 0.0) -> None:
        """Clear a death mark (the server rejoined) and journal it."""
        if server in self._acknowledged_dead:
            self._commit("mark_alive", now, server)
            self.telemetry.event("monitor_mark_alive", server=server)
            self._acknowledged_dead.discard(server)

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

    def owner_of_subtree(self, root_path: str) -> Optional[int]:
        """Authoritative owner lookup (what the local index caches)."""
        node = self.tree.lookup(root_path)
        if node is None or not self.placement.is_placed(node):
            return None
        return self.placement.primary_of(node)
