"""``repro hunt``: the seeded chaos audit, and the fuzzer around it.

One hunt iterates a list of case seeds. Each seed fully determines one
adversarial run — one :class:`repro.chaos.corpus.CorpusCase` gives it the
workload, the fault schedule (generated from the seed, or the explicit
``--fault`` plan for every seed), the simulator RNGs, both transports' runs
and the replay command — so a hunt is exactly reproducible: the same seed
list always produces the byte-identical case list, violations and shrink
results. Each case is judged by :func:`repro.chaos.harness.run_case`
(the quiesced end state plus the op-log audit of
:func:`~repro.chaos.harness.check_run`); its :class:`HuntCase` is that
outcome plus what the hunt adds.

When a case violates an invariant, the failing plan is minimized with
:func:`repro.chaos.shrink.shrink_plan` (drop events, shrink the cluster,
tighten triggers) unless shrinking is off (``--no-shrink``), and packaged as
a :class:`repro.chaos.corpus.CorpusCase` carrying its exact ``repro hunt
--no-shrink ... --fault ...`` replay line — ready to be promoted into the
committed regression corpus once the bug is fixed.

The optional live leg replays each schedule through the asyncio transport
as well (wall-clock timing, so its outcomes are recorded but never fed to
the shrinker — only the deterministic simulator drives minimization).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.chaos.corpus import CorpusCase, save_case
from repro.chaos.harness import ChaosCase
from repro.chaos.shrink import ShrinkResult, shrink_plan
from repro.simulation.faults import FaultPlan

__all__ = ["HuntCase", "HuntReport", "promote_findings", "run_hunt"]


@dataclass
class HuntCase:
    """One fuzzed seed: its audited simulator run and what the hunt made of
    it (the live leg is optional)."""

    #: The simulator leg, as :func:`repro.chaos.harness.run_case` judged it.
    outcome: ChaosCase
    #: Reduction log + minimized config (None when the case was clean or
    #: shrinking was disabled).
    shrink: Optional[ShrinkResult] = None
    #: The minimized, replayable regression case (None when clean).
    minimized: Optional[CorpusCase] = None
    #: Exact replay command (minimized when available, else the full case).
    replay: str = ""
    #: Live-transport violations (only with the live leg; informational —
    #: wall-clock runs never drive shrinking).
    live_violations: Optional[List[str]] = None

    @property
    def ok(self) -> bool:
        return self.outcome.ok and not self.live_violations

    def to_dict(self) -> dict:
        case = self.outcome.to_dict()
        case.update(ok=self.ok, replay=self.replay)
        if self.shrink is not None:
            case["shrink"] = self.shrink.to_dict()
        if self.minimized is not None:
            case["minimized"] = self.minimized.to_dict()
        if self.live_violations is not None:
            case["live_violations"] = list(self.live_violations)
        return case


@dataclass
class HuntReport:
    """Aggregate over one hunt invocation."""

    #: What every case shares; each case is this recipe with its own seed.
    recipe: CorpusCase
    cases: List[HuntCase] = field(default_factory=list)
    #: fault kind -> times scheduled across every generated plan (the
    #: hunt's coverage of the FaultKind space).
    coverage: Dict[str, int] = field(default_factory=dict)
    #: Total shrink probes executed across all findings.
    probes: int = 0

    @property
    def findings(self) -> List[HuntCase]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        recipe = self.recipe
        return {
            "scheme": recipe.scheme,
            "trace": recipe.trace,
            "nodes": recipe.nodes,
            "scale": recipe.scale,
            "num_servers": recipe.num_servers,
            "num_monitors": recipe.num_monitors,
            "store": recipe.store,
            "ops": recipe.ops,
            "seeds": [case.outcome.seed for case in self.cases],
            "ok": self.ok,
            "findings": len(self.findings),
            "coverage": {k: self.coverage[k] for k in sorted(self.coverage)},
            "probes": self.probes,
            "cases": [case.to_dict() for case in self.cases],
        }


def _audited(case: CorpusCase, store_dir: Optional[str]) -> ChaosCase:
    """The case's simulator leg; a crash of the system under
    test is itself a counterexample (recorded as a ``crash:`` violation), so
    the fuzzer and the shrinker keep working when a schedule takes the
    simulator down instead of merely corrupting it."""
    try:
        return case.run_sim(store_dir)
    except Exception as exc:
        return ChaosCase(
            seed=case.seed,
            specs=list(case.faults),
            violations=[f"crash: {type(exc).__name__}: {exc}"],
        )


def run_hunt(
    recipe: CorpusCase,
    seeds: Sequence[int],
    *,
    store_dir: Optional[str] = None,
    shrink: bool = True,
    max_probes: int = 200,
    live: bool = False,
    socket_dir: Optional[str] = None,
) -> HuntReport:
    """Fuzz ``recipe`` over the given seeds; shrink whatever breaks."""
    report = HuntReport(recipe=recipe)
    for seed in seeds:
        case = dataclasses.replace(recipe, seed=seed)
        plan = case.plan()
        # Spell the schedule out: the case (and its replay command) no
        # longer depends on what the generator does with this seed.
        case = dataclasses.replace(case, faults=plan.to_specs())
        for event in plan.events:
            report.coverage[event.kind.value] = (
                report.coverage.get(event.kind.value, 0) + 1
            )
        outcome = _audited(case, store_dir)
        hunt_case = HuntCase(outcome)
        if outcome.violations and shrink:

            def probe(
                candidate: FaultPlan, servers: int, monitors: int
            ) -> bool:
                probed = dataclasses.replace(
                    case, faults=candidate.to_specs(),
                    num_servers=servers, num_monitors=monitors,
                )
                return bool(_audited(probed, store_dir).violations)

            result = shrink_plan(
                plan, case.num_servers, case.num_monitors, probe,
                max_probes=max_probes,
            )
            if result is not None:
                report.probes += result.probes
                hunt_case.shrink = result
                hunt_case.minimized = dataclasses.replace(
                    case,
                    faults=result.specs,
                    num_servers=result.num_servers,
                    num_monitors=result.num_monitors,
                    found_violations=outcome.violations,
                    origin=(
                        f"hunt seed={seed}: "
                        f"{len(plan.events)}→{len(result.plan.events)} events"
                        + (f"; {'; '.join(result.steps)}"
                           if result.steps else "")
                    ),
                    name="",  # re-derived from the minimized content
                )
        hunt_case.replay = " ".join(
            ["repro", *(hunt_case.minimized or case).to_argv()]
        )
        if live:
            hunt_case.live_violations = list(
                case.run_live(socket_dir).violations
            )
        report.cases.append(hunt_case)
    return report


def promote_findings(report: HuntReport, directory: str) -> List[str]:
    """Write every minimized finding into a corpus directory; return paths."""
    paths: List[str] = []
    for case in report.findings:
        if case.minimized is not None:
            paths.append(save_case(case.minimized, directory))
    return paths
