"""Chaos case runner: replay, quiescence, invariants, history audit.

``run_case`` replays one workload under one fault schedule, drives the
cluster to quiescence and checks the safety invariants the metadata
service must uphold no matter what the network did:

1. **Single live ownership** — every placed metadata node is owned by at
   least one server, and no owner is dead (for local-layer subtrees that
   means *exactly one* live owner; replicated global-layer nodes keep a
   non-empty live replica set).
2. **No subtree lost** — every namespace node is placed somewhere
   (placements plus the transient pending pool; constraint Eq. 4).
3. **Epoch monotonicity** — the committed directive journal's leadership
   epochs never decrease, and no MDS fence is ahead of the Monitor group's
   epoch (the split-brain guard).
4. **Accounting balance** — every operation handed to a client either
   completed or was abandoned after retry exhaustion:
   ``issued == completed + failed``.
5. **Durability** (durable stores only) — every client-acknowledged
   operation and every committed directive is still present after recovery
   replay, and every injected torn/corrupt WAL tail was detected and
   cleanly truncated rather than replayed. Checked against an independent
   ledger kept outside the store under test
   (:class:`repro.storage.DurabilityLedger`).

With ``history=True`` the run additionally records the complete
client-visible operation history and audits it with
:func:`repro.chaos.history.audit_history` — exactly-once acks, per-client
session monotonicity, epoch-fence safety and no-lost-acked-mutation —
which is strictly stronger than the end-state invariants above (see that
module's docstring). ``repro hunt`` always runs with the history audit on.

What to run — workload, schedule, cluster shape — is decided by the recipe,
:class:`repro.chaos.corpus.CorpusCase`; this module only runs it and judges
the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro import registry
from repro.chaos.history import OpHistory, audit_history
from repro.cluster.failure import check_state_invariants
from repro.simulation.faults import FaultPlan
from repro.simulation.runner import ClusterSimulator, SimulationConfig
from repro.traces.generator import GeneratedWorkload

if TYPE_CHECKING:  # corpus imports this module
    from repro.chaos.corpus import CorpusCase

__all__ = [
    "CHAOS_HEARTBEAT_INTERVAL",
    "CHAOS_HEARTBEAT_TIMEOUT",
    "CHAOS_LEASE_TIMEOUT",
    "ChaosCase",
    "ChaosReport",
    "run_case",
]

#: Chaos runs replay short traces (sub-second makespans), so detection and
#: lease clocks are tightened to fit several detection and election windows
#: inside one run. Pass the same values to ``repro simulate`` to get the
#: telemetry of a failing seed (docs/CHAOS.md).
CHAOS_HEARTBEAT_INTERVAL = 0.01
CHAOS_HEARTBEAT_TIMEOUT = 0.03
CHAOS_LEASE_TIMEOUT = 0.05


# ----------------------------------------------------------------------
# Quiescence + invariants
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


def _check_invariants(sim: ClusterSimulator, result) -> List[str]:
    """Safety checks against the quiesced cluster; returns violations."""
    # 1-3. Ownership, completeness, epoch monotonicity (shared with the
    #      live transport).
    violations = check_state_invariants(
        sim.placement, sim.tree, sim.servers, sim.monitor
    )

    # 4. Accounting balance: every issued op completed or failed.
    issued = sim.ops_issued
    completed = result.operations
    failed = result.availability.failed_operations
    if completed + failed != issued:
        violations.append(
            f"accounting: issued={issued} but completed={completed} "
            f"+ failed={failed} = {completed + failed}"
        )

    # 5. Durability (durable stores only): acked ops and committed
    #    directives survive recovery; injected damage was truncated.
    if sim.store_on:
        violations.extend(_check_durability(sim))
    return violations


def _check_durability(sim: ClusterSimulator) -> List[str]:
    """Invariant 5: audit the durable store against the independent ledger.

    Three checks: (a) per-recovery audits the ledger already recorded while
    the run replayed (acked ops lost across a kill9, damage not detected);
    (b) a final replay of every server's log, which must still contain
    every op the ledger saw acknowledged; (c) the store's directive log
    must match the Monitor group's committed journal record for record.
    """
    violations = list(sim.durability.violations)

    for server in sim.servers:
        sid = server.server_id
        expected = sim.durability.acked.get(sid)
        if not expected:
            continue
        recovered = sim.store.recover_server(sid)
        lost = sorted(set(expected) - set(recovered.state.acked_ops))
        if lost:
            violations.append(
                f"durability: server {sid} log replay is missing "
                f"{len(lost)} acknowledged ops (e.g. ops {lost[:3]})"
            )

    stored = sim.store.recover_directives()
    committed = [d.to_record() for d in sim.monitor.journal]
    if stored != committed:
        violations.append(
            f"durability: directive log diverged from the committed "
            f"journal ({len(stored)} stored vs {len(committed)} committed)"
        )
    return violations


# ----------------------------------------------------------------------
# Case + report
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
    #: Operation-history roll-up (None unless the case recorded one).
    history: Optional[dict] = None

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
        }
        # Keys present only when the feature ran: memory-store and
        # history-off reports keep their historical shape.
        if self.durability is not None:
            case["store"] = self.store
            case["durability"] = dict(self.durability)
        if self.history is not None:
            case["history"] = dict(self.history)
        return case


@dataclass
class ChaosReport:
    """Aggregate over all chaos cases of one invocation."""

    #: What every case shares; each case is this recipe with its own seed.
    recipe: CorpusCase
    cases: List[ChaosCase] = field(default_factory=list)

    @property
    def violations(self) -> List[ChaosCase]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scheme": self.recipe.scheme,
            "trace": self.recipe.trace,
            "num_servers": self.recipe.num_servers,
            "num_monitors": self.recipe.num_monitors,
            "seeds": len(self.cases),
            "ok": self.ok,
            "cases": [case.to_dict() for case in self.cases],
        }


def run_case(
    scheme_name: str,
    workload: GeneratedWorkload,
    num_servers: int,
    seed: int,
    plan: FaultPlan,
    *,
    num_monitors: int = 3,
    store: str = "memory",
    store_dir: Optional[str] = None,
    trace_sample: int = 0,
    history: bool = False,
) -> ChaosCase:
    """One chaos run of ``workload`` under ``plan``: replay, quiesce, check.

    A durable ``store`` (``"wal"``) turns on the fifth (durability)
    invariant.
    ``trace_sample`` > 0 records causal spans for every Nth op plus the
    failover/recovery lifecycle (read them off ``sim.spans`` or export via
    ``repro simulate --trace-sample`` for the CLI path). ``history=True``
    records the full client-visible operation history and appends the
    :func:`~repro.chaos.history.audit_history` violations to the case.
    """
    scheme = registry.create(scheme_name)
    # Tight clocks (see the module constants): without them a crashed
    # leader would simply outlive the short trace and failover would never
    # be exercised.
    config = SimulationConfig(
        seed=seed,
        fault_plan=plan,
        num_monitors=num_monitors,
        heartbeat_interval=CHAOS_HEARTBEAT_INTERVAL,
        heartbeat_timeout=CHAOS_HEARTBEAT_TIMEOUT,
        monitor_lease_timeout=CHAOS_LEASE_TIMEOUT,
        store=store,
        store_dir=store_dir,
        trace_sample=trace_sample,
    )
    sim = ClusterSimulator(scheme, workload, num_servers, config)
    hist: Optional[OpHistory] = None
    if history:
        hist = OpHistory()
        sim.control.history = hist
    try:
        result = sim.run()
        _quiesce(sim, result.makespan)
        violations = _check_invariants(sim, result)
        if hist is not None:
            ledgers = None
            if sim.store_on:
                # Ledger ids are 1-based durable sequences; history op ids
                # are 0-based issue indices — shift once here.
                ledgers = {
                    server.server_id: {
                        dseq - 1
                        for dseq in sim.store.recover_server(
                            server.server_id
                        ).state.acked_ops
                    }
                    for server in sim.servers
                }
            violations.extend(
                audit_history(
                    hist,
                    final_epoch=sim.monitor.epoch,
                    closed_loop=True,
                    ledgers=ledgers,
                    durable_ledgers=sim.store_on,
                )
            )
        if sim.store_on:
            # Recompute after quiescence: the quiesce pass itself performs
            # recovery replays, which result.durability (snapshotted when
            # the trace drained) predates.
            durability = sim.store.stats()
            durability.update(sim.durability.summary())
            result.durability = durability
        return ChaosCase(
            seed=seed,
            specs=plan.to_specs(),
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
            store=store,
            durability=result.durability,
            history=hist.counts() if hist is not None else None,
        )
    finally:
        sim.close()
