"""Cluster control plane: the failure story of Sec. IV-A3, stated once.

Heartbeat silence → the Monitor evicts → survivors take over → the server
rejoins and pulls subtrees back. :class:`ClusterControl` owns the
membership bookkeeping (when each server crashed, went silent or was
evicted; the availability ledger) and the decisions that move it:

* :meth:`apply_fault` — one scheduled :class:`FaultEvent` against the
  cluster's state (servers, fault fabric, Monitor group, store);
* :meth:`beat` / :meth:`on_heartbeat` / :meth:`round` — every live
  server's beat sent to the leader through the fault fabric (live sockets
  hand theirs to :meth:`on_heartbeat` directly), then the post-heartbeat
  round: lease tick, re-admit servers whose beat just cleared their death
  mark, detect and evict the silent;
* :meth:`evict` / :meth:`readmit` — re-home a dead server's metadata
  (``Placement.fail``), or restore a server and pull subtrees back
  (``Placement.rejoin``), each by the scheme's own rule and under an
  epoch-stamped, quorum-committed directive that the receiving MDSs
  fence on;
* :meth:`quiesce` — clear every fault and re-admit every degraded server.

It is synchronous and owns no clock and no I/O: callers pass ``now`` (sim
time or loop time) and hear of placement changes through one callback,
``on_moves(moves, now)``. The simulator, the chaos harness and the live
asyncio cluster all drive this one object; the simulator adds migration
pricing, and the live cluster adds real sockets, which it reconciles with
the state this object leaves behind.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.mds import MetadataServer
from repro.cluster.messages import Heartbeat
from repro.cluster.monitor import MonitorGroup
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.placement import DEAD_CAPACITY, Migration, Placement
from repro.simulation.faults import FaultEvent, FaultKind
from repro.simulation.stats import AvailabilityReport
from repro.storage import DurabilityLedger, WalStore
from repro.transport.base import FaultFabric, mds_addr

__all__ = ["ClusterControl"]


class ClusterControl:
    """Fault application, eviction, re-admission and quiescence."""

    def __init__(
        self,
        servers: Sequence[MetadataServer],
        placement: Placement,
        monitor: MonitorGroup,
        network: FaultFabric,
        store: Optional[WalStore],
        on_moves: Callable[[List[Migration], float], None],
        telemetry: Telemetry = NULL_TELEMETRY,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.servers = servers
        self.placement = placement
        self.monitor = monitor
        self.network = network
        self.store = store
        self.telemetry = telemetry
        self.spans = monitor.spans = spans  # one recorder for the chain
        self._on_moves = on_moves
        #: Independent durability oracle (a run with a store only).
        self.durability = DurabilityLedger() if store is not None else None
        #: Optional client-visible ``OpHistory`` (set by whoever records
        #: one); kill9 wipes are appended to it inline, in causal order,
        #: and the run audit (``repro.chaos.check_run``) reads it.
        self.history = None
        self.availability = AvailabilityReport()
        self._initial_capacities = list(placement.capacities)
        #: server -> time it crashed (cleared when it rejoins).
        self._crashed_at: Dict[int, float] = {}
        #: server -> time it stopped heartbeating (drop_heartbeats).
        self._muted_at: Dict[int, float] = {}
        #: server -> time the Monitor evicted it (span attribution).
        self._detected_at: Dict[int, float] = {}
        #: Acknowledged-dead servers whose heartbeat got through since the
        #: last round — falsely evicted (partition, mute) or crashed and
        #: back; either way they rejoin on the next :meth:`round`.
        self._rejoining: List[int] = []

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def apply_fault(self, event: FaultEvent, now: float) -> None:
        """Apply one scheduled fault event at time ``now``."""
        self.telemetry.set_time(now)
        kind = event.kind
        if kind is FaultKind.PARTITION:
            self.network.partition(
                event.partition_name, event.partition_endpoints()
            )
            self.monitor.note_outage()
            self.availability.partitions += 1
            self.telemetry.event(
                "fault_partition", t=now, partition=event.partition_name,
            )
        elif kind is FaultKind.HEAL:
            self.network.heal(event.partition_name)
            self.telemetry.event(
                "fault_heal", t=now, partition=event.partition_name or "*",
            )
        elif kind is FaultKind.MONITOR_CRASH:
            self.monitor.crash_monitor(event.server, now)
            self.telemetry.event(
                "fault_monitor_crash", t=now, replica=event.server,
            )
        elif kind is FaultKind.MONITOR_RECOVER:
            self.monitor.recover_monitor(event.server, now)
            self.telemetry.event(
                "fault_monitor_recover", t=now, replica=event.server,
            )
        elif kind is FaultKind.CRASH:
            server = self.servers[event.server]
            if server.alive:
                server.fail()
                self._crashed_at[event.server] = now
                self.availability.crashes += 1
                self.telemetry.event("fault_crash", t=now, server=event.server)
        elif kind in (
            FaultKind.KILL9, FaultKind.TORN_WRITE, FaultKind.CORRUPT_RECORD
        ):
            self._kill(event, now)
        elif kind is FaultKind.RECOVER:
            self.readmit(event.server, now)
        elif kind is FaultKind.FAIL_SLOW:
            self.servers[event.server].slow_factor = event.factor
            self.telemetry.event(
                "fault_fail_slow", t=now, server=event.server,
                factor=event.factor,
            )
        elif kind is FaultKind.DROP_HEARTBEATS:
            server = self.servers[event.server]
            if not server.muted:
                server.muted = True
                self.network.mute(mds_addr(event.server))
                self._muted_at[event.server] = now
                self.telemetry.event(
                    "fault_drop_heartbeats", t=now, server=event.server,
                )
        elif kind is FaultKind.LOSS:
            self.network.set_loss(mds_addr(event.server), event.probability)
            self.telemetry.event(
                "fault_loss", t=now, server=event.server,
                probability=event.probability,
            )
        elif kind is FaultKind.DELAY:
            self.network.set_delay(mds_addr(event.server), event.delay)
            self.telemetry.event(
                "fault_delay", t=now, server=event.server, delay=event.delay,
            )

    def _kill(self, event: FaultEvent, now: float) -> None:
        """The kill9 family: crash with volatile-state loss, optionally
        plus injected damage on the unsynced WAL tail.

        A server that is already down has no process left to kill: no
        second wipe, and the crash counts once. The tail damage still
        applies (a second fault hitting the same dead disk).
        """
        sid, kind = event.server, event.kind
        server = self.servers[sid]
        if server.alive:
            server.kill9()
            self._crashed_at[sid] = now
            self.availability.crashes += 1
            if self.history is not None:
                # Volatile state (fence, counters) is gone: the history
                # audit resets this server's epoch floor and — absent a
                # durable store — excuses its ledger for earlier acks.
                self.history.wipe(sid, now)
            if self.store is not None:
                self.durability.note_kill(sid)
            self.telemetry.event(
                "fault_kill9", t=now, server=sid,
                damage=kind.value if kind is not FaultKind.KILL9 else None,
            )
        if self.store is None:
            return
        damaged = False
        if kind is FaultKind.TORN_WRITE:
            damaged = self.store.tear_tail(sid)
            if damaged:
                self.durability.note_damage(sid, "torn")
        elif kind is FaultKind.CORRUPT_RECORD:
            damaged = self.store.corrupt_tail(sid)
            if damaged:
                self.durability.note_damage(sid, "corrupt")
        if damaged:
            # Damaged logs are only repaired by recovery replay, so the
            # rejoin path must replay even if the server was already down
            # from an earlier plain crash.
            server.lost_volatile = True

    # ------------------------------------------------------------------
    # Heartbeats and the detection round
    # ------------------------------------------------------------------
    def beat(self, now: float) -> int:
        """Every live server heartbeats the leader through the fault fabric;
        returns how many beats the leader took.

        Dead servers stay silent, and a mute, partition or loss drops a
        beat on the way: that silence is what :meth:`round`'s detection
        keys off.
        """
        leader = self.monitor.leader_addr
        taken = 0
        for server in self.servers:
            if not server.alive:
                continue
            sid = server.server_id
            if self.network.deliver(mds_addr(sid), leader, now) is None:
                continue
            if self.on_heartbeat(Heartbeat(sid, now)):
                taken += 1
        return taken

    def on_heartbeat(self, beat: Heartbeat) -> bool:
        """A liveness beat reached the leader's endpoint.

        Returns False when the leader is down (the beat is lost). A beat
        from an acknowledged-dead server clears its death mark inside the
        Monitor and nominates it for re-admission on the next round.
        """
        was_dead = self.monitor.is_dead(beat.server)
        delivered = self.monitor.on_heartbeat(beat)
        if delivered and was_dead:
            self._rejoining.append(beat.server)
        return delivered

    def round(self, now: float) -> None:
        """The post-heartbeat round: lease, re-admissions, detection.

        The lease clock ticks first — a dead or quorumless leader is
        replaced (epoch bump + journal replay) before detection runs, so a
        fresh leader starts with full heartbeat grace instead of
        mass-evicting. Detection runs after the re-admissions so a server
        that rejoined this round is never re-declared dead.
        """
        self.monitor.tick(now)
        rejoining, self._rejoining = self._rejoining, []
        for sid in rejoining:
            if self.servers[sid].alive:
                self.readmit(sid, now)
            else:
                # The beat was in flight when the server went down: it
                # stays evicted until it really comes back.
                self.monitor.mark_dead(sid, now, journal=False)
        for dead in self.monitor.detect_failures(now):
            self.evict(dead, now)

    # ------------------------------------------------------------------
    # Eviction and re-admission
    # ------------------------------------------------------------------
    def evict(self, dead: int, now: float) -> None:
        """Detection fired: acknowledge the failure and re-home the lost
        metadata onto the survivors."""
        self.monitor.mark_dead(dead, now)
        server = self.servers[dead]
        if server.alive:
            # False positive — a live server went silent (drop_heartbeats,
            # partition); the Monitor evicts it all the same.
            self.availability.false_detections += 1
            since = self._muted_at.get(dead, now)
        else:
            since = self._crashed_at.get(dead, now)
            self.availability.unavailability += now - since
        self.availability.detection_latency[dead] = now - since
        self._detected_at[dead] = now
        moves = self.placement.fail(dead)
        # Failover lifecycle chain: the heartbeat_miss span covers the whole
        # degraded window (silence -> eviction); detect/evict/journal_commit
        # /fence hang off it at the instant detection fired.
        rec = self.spans
        chain = None
        if rec is not None:
            chain = rec.cluster(
                "heartbeat_miss", since, now, fields=(("server", dead),),
            )
            rec.cluster(
                "detect", now, now, parent=chain,
                fields=(
                    ("false_positive", server.alive),
                    ("server", dead),
                    ("timeout", self.monitor.heartbeat_timeout),
                ),
            )
            rec.cluster(
                "evict", now, now, parent=chain,
                fields=(("moves", len(moves)), ("server", dead)),
            )
        # The eviction is an epoch-stamped directive: every receiving MDS
        # ratchets its fence forward, so a later directive from a deposed
        # leader (an older epoch) can no longer move these subtrees.
        directive = self.monitor.issue(
            "rehome", now, server=dead, span_parent=chain, moves=len(moves)
        )
        if directive is not None:
            accepted = set()
            for move in moves:
                if self.servers[move.target].accept_directive(directive.epoch):
                    accepted.add(move.target)
            if self.store is not None:
                for target in sorted(accepted):
                    self.store.append_fence(target, directive.epoch, now)
            if rec is not None:
                rec.cluster(
                    "fence", now, now, parent=chain,
                    fields=(
                        ("epoch", directive.epoch),
                        ("servers", len(accepted)),
                    ),
                )
        self._on_moves(moves, now)
        self.telemetry.event(
            "failure_detected", t=now, server=dead,
            latency=now - since, false_positive=server.alive,
            moves=len(moves),
        )

    def readmit(self, sid: int, now: float) -> None:
        """Rejoin path: restore the server and pull subtrees back.

        On a crashed server this restarts it (replaying the durable store
        after a kill9); on one that is up but degraded it clears
        ``fail_slow`` / ``drop_heartbeats`` and any ``loss`` / ``delay`` on
        its links. Either way the placement only changes under a committed
        directive — without a quorum the server stays evicted and the next
        heartbeat that reaches a committable leader retries.
        """
        self.telemetry.set_time(now)
        server = self.servers[sid]
        was_crashed = not server.alive
        if was_crashed:
            server.recover()
            if server.lost_volatile:
                # kill9 rejoin: the process image is gone, so whatever the
                # durable store replays — snapshot plus WAL tail, with any
                # torn/corrupt tail truncated — is the server's state. The
                # fence is restored *before* the rejoin directive below, so
                # a stale directive is still rejected post-crash.
                if self.store is not None:
                    self._replay_store(sid, now)
                server.lost_volatile = False
        else:
            server.slow_factor = 1.0
            server.muted = False
        self.network.clear_endpoint(mds_addr(sid))
        self._muted_at.pop(sid, None)
        # Recovery lifecycle chain: the root span covers eviction -> rejoin
        # (or crash -> rejoin when detection never fired); journal_commit
        # and the rejoin land under it. An aborted rejoin leaves a childless
        # recovery span — the next attempt opens a fresh one.
        rec = self.spans
        chain = None
        if rec is not None:
            t0 = self._detected_at.get(sid, self._crashed_at.get(sid, now))
            chain = rec.cluster(
                "recovery", t0, now,
                fields=(("server", sid), ("was_crashed", was_crashed)),
            )
        directive = self.monitor.issue(
            "rejoin", now, server=sid, span_parent=chain
        )
        if directive is None:
            self.monitor.mark_dead(sid, now, journal=False)
            return
        self.monitor.expect(sid, now)
        # Epoch fence: a stale rejoin (issued by a deposed leader) must not
        # resurrect the pre-crash subtree assignments that a newer epoch
        # already re-homed.
        if not server.accept_directive(directive.epoch):
            return
        if self.store is not None:
            self.store.append_fence(sid, directive.epoch, now)
        moves = self.placement.rejoin(
            sid,
            capacity=self._initial_capacities[sid],
            live=[s.server_id for s in self.servers if s.alive],
        )
        self._on_moves(moves, now)
        self._detected_at.pop(sid, None)
        if rec is not None:
            rec.cluster(
                "rejoin", now, now, parent=chain,
                fields=(("moves", len(moves)), ("server", sid)),
            )
        self.availability.rejoins += 1
        time_to_recover = None
        if was_crashed and sid in self._crashed_at:
            time_to_recover = now - self._crashed_at.pop(sid)
            self.availability.time_to_recover[sid] = time_to_recover
        self.telemetry.event(
            "server_rejoined", t=now, server=sid, moves=len(moves),
            was_crashed=was_crashed, time_to_recover=time_to_recover,
        )

    def _replay_store(self, sid: int, now: float) -> None:
        recovered = self.store.recover_server(sid)
        self.servers[sid].fence_epoch = recovered.state.fence_epoch
        self.durability.note_recovery(sid, recovered)
        tel = self.telemetry
        if not tel.enabled:
            return
        tel.event(
            "recovery_replay", t=now, server=sid,
            replayed=recovered.replayed_records,
            snapshot=recovered.snapshot_loaded,
            truncated=recovered.truncated,
            reason=recovered.truncate_reason,
            fence_epoch=recovered.state.fence_epoch,
        )
        tel.registry.counter(
            "recoveries", help="kill9 rejoins that replayed durable state",
        ).inc()
        tel.registry.histogram(
            "recovery_replay_ops", help="Log records replayed per recovery",
        ).observe(float(recovered.replayed_records))
        if recovered.truncated:
            tel.registry.counter(
                "wal_truncations",
                help="Torn/corrupt WAL tails truncated during recovery",
            ).inc()

    # ------------------------------------------------------------------
    # Quiescence and end-of-run accounting
    # ------------------------------------------------------------------
    def quiesce(self, now: float) -> None:
        """Clear every fault and re-admit every degraded server.

        Heals every partition, restarts every Monitor replica (with the
        interconnect whole and all replicas up the leader always holds a
        quorum, so the re-admissions below commit), then rejoins every
        crashed, evicted or capacity-less server and resets the rest, whose
        liveness clocks restart too: a server un-muted here is judged from
        now, not from the beat before its mute.
        Invariants are only meaningful *after* this — mid-fault the cluster
        is allowed to be degraded; what it may never do is stay broken once
        the faults clear.
        """
        self.network.heal(None)
        for replica in range(self.monitor.num_replicas):
            self.monitor.recover_monitor(replica, now)
        self.monitor.tick(now)
        for server in self.servers:
            sid = server.server_id
            if (
                not server.alive
                or self.monitor.is_dead(sid)
                or self.placement.capacities[sid] <= DEAD_CAPACITY
            ):
                self.readmit(sid, now)
            else:
                server.slow_factor = 1.0
                server.muted = False
                self.network.clear_endpoint(mds_addr(sid))
                self.monitor.expect(sid, now)

    def close_unavailability(self, end: float) -> None:
        """Crashes the Monitor never got to detect (detection disabled, or
        the run ended first) were unavailable until ``end``."""
        for sid, since in self._crashed_at.items():
            if sid not in self.availability.detection_latency:
                self.availability.unavailability += max(0.0, end - since)
