"""Delta-debugging minimization of failing fault plans.

When ``repro hunt`` finds a schedule that breaks an invariant, the raw
counterexample is noisy: generated plans carry 6–12 events, most of which
are irrelevant to the bug, firing late in a large cluster. The shrinker
reduces it along three axes, re-probing after every candidate reduction so
the result still reproduces the violation:

1. **Drop events** (ddmin): classic delta debugging over the event list —
   remove chunks at increasing granularity until the plan is 1-minimal
   (removing any single event makes the violation disappear).
2. **Shrink the cluster**: re-validate + re-probe on smaller server and
   Monitor counts, keeping the smallest cluster that still fails.
3. **Tighten triggers**: binary-search each event's ``ops=`` trigger down
   toward zero so the violation fires as early as possible.

The probe callable decides "does this configuration still fail?" — the
shrinker never looks inside, so the same machinery minimizes history-audit
violations, invariant violations, or planted test bugs alike. Probes are
memoized on (specs, servers, monitors) and capped by ``max_probes``;
shrinking is deterministic (no wall clock, no RNG), so a given
counterexample always minimizes to the same result.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.simulation.faults import FaultEvent, FaultPlan

__all__ = ["ShrinkResult", "shrink_plan"]

#: probe(plan, num_servers, num_monitors) -> True when the violation still
#: reproduces under that configuration.
ProbeFn = Callable[[FaultPlan, int, int], bool]

#: The smallest cluster the shrinker probes: three MDSs (what ``chaos``
#: needs) and one Monitor replica.
MIN_SERVERS = 3
MIN_MONITORS = 1


@dataclass
class ShrinkResult:
    """A minimized counterexample and how it was reached."""

    plan: FaultPlan
    num_servers: int
    num_monitors: int
    #: Probe runs actually executed (memoized repeats not counted).
    probes: int = 0
    #: Human-readable reduction log, in order.
    steps: List[str] = field(default_factory=list)
    #: True when the probe budget ran out before the plan was 1-minimal.
    truncated: bool = False

    @property
    def specs(self) -> List[str]:
        return self.plan.to_specs()

    def to_dict(self) -> dict:
        return {
            "faults": self.specs,
            "num_servers": self.num_servers,
            "num_monitors": self.num_monitors,
            "probes": self.probes,
            "steps": list(self.steps),
            "truncated": self.truncated,
        }


class _Prober:
    """Memoized, budgeted, validation-gated wrapper around the probe fn."""

    def __init__(self, probe: ProbeFn, max_probes: int) -> None:
        self._probe = probe
        self._budget = max_probes
        self.probes = 0
        self.exhausted = False
        self._cache: Dict[Tuple[Tuple[str, ...], int, int], bool] = {}

    def fails(self, plan: FaultPlan, servers: int, monitors: int) -> bool:
        key = (tuple(plan.to_specs()), servers, monitors)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.probes >= self._budget:
            self.exhausted = True
            return False  # out of budget: treat as "does not reproduce"
        try:
            # Orphan-recover warnings are expected while ddmin drops the
            # matching degradation; invalid configs (targets outside the
            # shrunk cluster) are simply non-reproducing candidates.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                plan.validate(servers, monitors)
                self.probes += 1
                verdict = bool(self._probe(plan, servers, monitors))
        except ValueError:
            verdict = False
        self._cache[key] = verdict
        return verdict


def _ddmin(
    events: Tuple[FaultEvent, ...],
    servers: int,
    monitors: int,
    prober: _Prober,
) -> Tuple[FaultEvent, ...]:
    """Classic ddmin over the event tuple (Zeller & Hildebrandt)."""
    granularity = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // granularity)
        reduced = False
        start = 0
        while start < len(events):
            candidate = events[:start] + events[start + chunk:]
            if candidate and prober.fails(
                FaultPlan(candidate), servers, monitors
            ):
                events = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # restart the sweep on the reduced list
                start = 0
                chunk = max(1, len(events) // granularity)
                continue
            start += chunk
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
        if prober.exhausted:
            break
    return events


def _tighten_event(
    events: Tuple[FaultEvent, ...],
    index: int,
    servers: int,
    monitors: int,
    prober: _Prober,
) -> Tuple[FaultEvent, ...]:
    """Binary-search one event's ops-trigger down as far as it still fails."""
    event = events[index]
    if event.at_ops is None or event.at_ops == 0:
        return events

    def with_trigger(at_ops: int) -> Tuple[FaultEvent, ...]:
        # spec=None forces to_spec() to re-synthesize the canonical text.
        patched = dataclasses.replace(event, at_ops=at_ops, spec=None)
        return events[:index] + (patched,) + events[index + 1:]

    lo, hi = 0, event.at_ops  # hi is known-failing, lo unknown
    if prober.fails(FaultPlan(with_trigger(lo)), servers, monitors):
        return with_trigger(lo)
    while hi - lo > 1 and not prober.exhausted:
        mid = (lo + hi) // 2
        if prober.fails(FaultPlan(with_trigger(mid)), servers, monitors):
            hi = mid
        else:
            lo = mid
    return with_trigger(hi) if hi != event.at_ops else events


def shrink_plan(
    plan: FaultPlan,
    num_servers: int,
    num_monitors: int,
    probe: ProbeFn,
    *,
    max_probes: int = 400,
    initial_failure_known: bool = True,
) -> Optional[ShrinkResult]:
    """Minimize a failing fault plan; ``None`` if it never reproduced.

    ``probe`` is called with progressively smaller (plan, servers,
    monitors) configurations and must return True while the violation
    still reproduces. With ``initial_failure_known=True`` (the hunt path:
    the caller just watched the full plan fail) the initial probe is
    seeded into the cache instead of re-executed.
    """
    prober = _Prober(probe, max_probes)
    if initial_failure_known:
        prober._cache[(tuple(plan.to_specs()), num_servers, num_monitors)] = True
    if not prober.fails(plan, num_servers, num_monitors):
        return None

    steps: List[str] = []
    events = tuple(plan.events)
    servers = num_servers
    monitors = num_monitors

    # 1. Drop events.
    reduced = _ddmin(events, servers, monitors, prober)
    if len(reduced) < len(events):
        steps.append(f"ddmin: {len(events)} -> {len(reduced)} events")
        events = reduced

    # 2. Shrink the cluster (smallest still-failing config wins; ascending
    #    probes stop at the first hit).
    for s in range(MIN_SERVERS, servers):
        if prober.fails(FaultPlan(events), s, monitors):
            steps.append(f"servers: {servers} -> {s}")
            servers = s
            break
    for m in range(MIN_MONITORS, monitors):
        if prober.fails(FaultPlan(events), servers, m):
            steps.append(f"monitors: {monitors} -> {m}")
            monitors = m
            break

    # 3. Tighten each remaining trigger toward zero.
    for index in range(len(events)):
        if prober.exhausted:
            break
        before = events[index].at_ops
        events = _tighten_event(events, index, servers, monitors, prober)
        after = events[index].at_ops
        if after != before:
            steps.append(
                f"tighten: {events[index].kind.value} ops={before} -> {after}"
            )

    # Final greedy pass: tightening can make individual events redundant.
    index = 0
    while len(events) > 1 and index < len(events) and not prober.exhausted:
        candidate = events[:index] + events[index + 1:]
        if prober.fails(FaultPlan(candidate), servers, monitors):
            steps.append(f"drop: {events[index].to_spec()}")
            events = candidate
        else:
            index += 1

    return ShrinkResult(
        plan=FaultPlan(events),
        num_servers=servers,
        num_monitors=monitors,
        probes=prober.probes,
        steps=steps,
        truncated=prober.exhausted,
    )
