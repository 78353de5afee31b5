"""Chaos case runner and the one run audit.

``run_case`` replays one recipe (workload, fault schedule, cluster) through
the simulator, drives the cluster to quiescence and judges it with
:func:`check_run` — the same function ``repro serve`` judges a live run
with, over the control plane both modes share
(:class:`~repro.cluster.control.ClusterControl`). It states, in order:

1. **Single live ownership** — every placed metadata node is owned by at
   least one server, and no owner is dead (for local-layer subtrees that
   means *exactly one* live owner; replicated global-layer nodes keep a
   non-empty live replica set).
2. **No subtree lost** — every namespace node is placed somewhere
   (placements plus the transient pending pool; constraint Eq. 4).
3. **Epoch monotonicity** — the committed directive journal's leadership
   epochs never decrease, and no MDS fence is ahead of the Monitor group's
   epoch (the split-brain guard).
4. **Accounting** — a fact of the op log: every trace position
   ``0..ops-1`` was invoked, and nothing else was.
5. **The history audit** (:func:`repro.chaos.history.audit_history`) —
   exactly-once invokes and terminals (so every op reached exactly one
   ``ok`` / ``fail`` / ``indeterminate``), per-client session order,
   epoch-fence safety and no lost acked mutation against the servers'
   ledgers.
6. **Durability** (durable stores only) — every injected torn/corrupt WAL
   tail was detected at recovery and every op acked before a kill9 was
   replayed by it (:class:`repro.storage.DurabilityLedger`, kept outside
   the store under test), and the store's directive log equals the
   committed journal. The ledgers of (5) are then each server's log,
   replayed read-only once, so an acked op a recovery lost is caught there.

What to run — workload, schedule, cluster shape — is decided by the recipe,
:class:`repro.chaos.corpus.CorpusCase`; this module only runs it and judges
the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set

from repro import registry
from repro.chaos.history import OpHistory, audit_history
from repro.cluster.control import ClusterControl
from repro.placement import DEAD_CAPACITY, Placement
from repro.simulation.runner import ClusterSimulator

if TYPE_CHECKING:  # corpus imports this module
    from repro.chaos.corpus import CorpusCase

__all__ = [
    "ChaosCase",
    "check_run",
    "check_state_invariants",
    "run_case",
]

# ----------------------------------------------------------------------
# Quiescence + the run audit
# ----------------------------------------------------------------------

def _quiesce(sim: ClusterSimulator, makespan: float) -> float:
    """Drive the cluster to a steady state after the trace drained.

    :meth:`ClusterControl.quiesce` clears every fault and re-admits every
    degraded server; a few heartbeat rounds then let membership settle.
    Returns the final simulated time.
    """
    interval = sim.config.heartbeat_interval
    now = makespan + interval
    sim.control.quiesce(now)
    for _ in range(3):
        now += interval
        sim._heartbeats(now)
    return now


def check_state_invariants(placement: Placement, tree, servers, group) -> List[str]:
    """Safety invariants 1–3 over a quiesced cluster; returns violations.

    One statement of the state invariants for both drivers: the chaos
    harness passes the simulator's ``MetadataServer`` list and the live
    transport its ``LiveMDS`` list (anything with ``server_id``, ``alive``
    and ``fence_epoch``); ``group`` is the ``MonitorGroup``. The violation
    strings are compared verbatim by the corpus and hunt reports.
    """
    violations: List[str] = []

    # 1. Single live ownership: no placed node owned by a dead server, no
    #    empty replica sets. Post-quiescence everything is alive, so any
    #    dead owner is state that survived recovery — exactly the bug class
    #    (resurrected pre-crash assignments) fencing exists to prevent.
    dead = {s for s, cap in enumerate(placement.capacities) if cap <= DEAD_CAPACITY}
    dead.update(s.server_id for s in servers if not s.alive)
    # A column scan clears a healthy cluster; only a finding walks the nodes.
    if dead or not placement.places_all(len(tree)):
        bad_owner: List[str] = []
        empty: List[str] = []
        for node in placement.placed_nodes():
            owners = placement.servers_of(node)
            if not owners:
                empty.append(node)
            elif dead.intersection(owners):
                bad_owner.append(node)
        empty, bad_owner = tree.paths(empty), tree.paths(bad_owner)
        if empty:
            violations.append(
                f"ownership: {len(empty)} nodes with an empty replica set "
                f"(e.g. {empty[:3]})"
            )
        if bad_owner:
            violations.append(
                f"ownership: {len(bad_owner)} nodes owned by a dead server "
                f"{sorted(dead)} (e.g. {bad_owner[:3]})"
            )

        # 2. No subtree lost (Eq. 4 completeness over placements + pool).
        missing = tree.paths(n for n in tree if not placement.is_placed(n))
        if missing:
            violations.append(
                f"completeness: {len(missing)} namespace nodes unplaced "
                f"(e.g. {missing[:3]})"
            )

    # 3. Epoch monotonicity: journalled epochs never decrease and no MDS
    #    fence ran ahead of the group's epoch.
    if not group.journal.epochs_monotone():
        violations.append("epochs: committed directive epochs regressed")
    for server in servers:
        if server.fence_epoch > group.epoch:
            violations.append(
                f"epochs: server {server.server_id} fence "
                f"{server.fence_epoch} ahead of monitor epoch "
                f"{group.epoch}"
            )
    return violations


def check_run(
    control: ClusterControl,
    ops: int,
    ledgers: Optional[Mapping[int, Set[int]]] = None,
) -> List[str]:
    """Judge one quiesced run, simulated or live; returns violations.

    ``control.history`` is the run's op log, keyed by trace position, and
    ``ops`` the length of the replayed trace. ``ledgers`` maps each server
    to the op ids it holds as acked: live mode passes its MDSs' volatile
    ack ledgers; with a durable store they are read off the logs here (one
    read-only replay per server). With neither, the history audit has no
    ledger check. The checks and their order are the module docstring's.
    """
    history = control.history
    monitor = control.monitor
    store = control.store
    # 1-3. Ownership, completeness, epoch monotonicity.
    violations = check_state_invariants(
        control.placement, monitor.tree, control.servers, monitor
    )

    # 4. Accounting: the op log invoked exactly the trace.
    count, first = history.uninvoked(ops)
    if count:
        violations.append(
            f"accounting: {count} of {ops} trace ops never invoked "
            f"(e.g. ops {first})"
        )
    count, first = history.invoked_from(ops)
    if count:
        violations.append(
            f"accounting: {count} invoked ops are not trace positions "
            f"(e.g. ops {first})"
        )

    # 5. The history audit.
    if store is not None and ledgers is None:
        # Durable op ids are 1-based sequence numbers; op-log ids are
        # 0-based trace positions.
        ledgers = {
            server.server_id: {
                op - 1
                for op in store.read_server(server.server_id).state.acked_ops
            }
            for server in control.servers
        }
    violations.extend(
        audit_history(
            history,
            final_epoch=monitor.epoch,
            ledgers=ledgers,
            durable_ledgers=store is not None,
        )
    )

    # 6. Durability: the per-recovery ledger audits, and the directive log.
    if store is not None:
        violations.extend(control.durability.violations)
        stored = store.recover_directives()
        committed = [d.to_record() for d in monitor.journal]
        if stored != committed:
            violations.append(
                f"durability: directive log diverged from the committed "
                f"journal ({len(stored)} stored vs {len(committed)} committed)"
            )
    return violations


# ----------------------------------------------------------------------
# The case
# ----------------------------------------------------------------------

@dataclass
class ChaosCase:
    """Outcome of one seeded chaos run."""

    seed: int
    specs: List[str]
    violations: List[str]
    operations: int = 0
    failed_operations: int = 0
    retries: int = 0
    epoch: int = 1
    failovers: int = 0
    fenced_directives: int = 0
    aborted_directives: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    #: Store backend the case ran against ("memory" = durability off).
    store: str = "memory"
    #: Store counters + ledger roll-up (None without a store).
    durability: Optional[dict] = None
    #: Op-log roll-up (:meth:`OpHistory.counts`).
    history: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        case = {
            "seed": self.seed,
            "ok": self.ok,
            "faults": list(self.specs),
            "violations": list(self.violations),
            "operations": self.operations,
            "failed_operations": self.failed_operations,
            "retries": self.retries,
            "epoch": self.epoch,
            "failovers": self.failovers,
            "fenced_directives": self.fenced_directives,
            "aborted_directives": self.aborted_directives,
            "messages_dropped": self.messages_dropped,
            "messages_delayed": self.messages_delayed,
            "history": dict(self.history),
        }
        # Present only with a store: memory-store reports keep their shape.
        if self.durability is not None:
            case["store"] = self.store
            case["durability"] = dict(self.durability)
        return case


def run_case(case: CorpusCase, store_dir: Optional[str] = None) -> ChaosCase:
    """One chaos run of ``case`` through the simulator: replay with the op
    log on, quiesce, :func:`check_run`.

    A durable ``case.store`` (``"wal"``) turns on the durability checks.
    """
    config = case.sim_config(store_dir)
    workload = case.workload()
    sim = ClusterSimulator(
        registry.create(case.scheme), workload, case.num_servers, config
    )
    history = sim.control.history = OpHistory()
    try:
        result = sim.run()
        _quiesce(sim, result.makespan)
        violations = check_run(sim.control, len(workload.trace))
        if sim.store_on:
            # Recompute after quiescence: the quiesce pass itself performs
            # recovery replays, which result.durability (snapshotted when
            # the trace drained) predates.
            durability = sim.store.stats()
            durability.update(sim.durability.summary())
            result.durability = durability
        return ChaosCase(
            seed=case.seed,
            specs=config.fault_plan.to_specs(),
            violations=violations,
            operations=result.operations,
            failed_operations=result.availability.failed_operations,
            retries=result.availability.retries,
            epoch=sim.monitor.epoch,
            failovers=sim.monitor.failovers,
            fenced_directives=sum(s.fenced_directives for s in sim.servers),
            aborted_directives=sim.monitor.aborted_directives,
            messages_dropped=sim.network.messages_dropped,
            messages_delayed=sim.network.messages_delayed,
            store=case.store,
            durability=result.durability,
            history=history.counts(),
        )
    finally:
        sim.close()
