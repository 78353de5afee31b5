"""One chaos run, described once — and the committed corpus of such runs.

:class:`CorpusCase` is the *complete* recipe for one chaos run: workload
profile + seed, cluster shape, store backend and fault specs. It alone
turns that recipe into the seeded workload (:meth:`~CorpusCase.workload`),
the schedule (:meth:`~CorpusCase.plan`: the explicit ``faults``, else a
schedule generated from the case's own seed), the ``repro chaos`` replay
command and the two runs — :meth:`~CorpusCase.run_sim` through the
simulator and :meth:`~CorpusCase.run_live` through the asyncio transport.
``repro chaos`` and ``repro hunt`` build one case per seed and call those;
nothing else regenerates a workload or assembles a replay line.

Every counterexample ``repro hunt`` minimizes can be promoted into a small
JSON file (``tests/corpus/*.json``). The committed corpus is replayed on
every PR (tests/test_corpus.py and the CI chaos job) through both legs — a
case that once exposed a bug keeps guarding against its return, at the
cost of one short deterministic run instead of a whole hunt.

A corpus case must replay *green* on the current tree: the corpus records
schedules that historically broke an invariant (or exercised a
near-miss worth pinning); once the bug is fixed the case stays as the
regression witness. ``repro hunt --promote DIR`` writes new minimized
counterexamples here; review the diff and commit the file once the
underlying bug is fixed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.chaos.harness import ChaosCase, run_case
from repro.chaos.schedule import generate_plan
from repro.simulation.faults import FaultPlan
from repro.traces import PROFILES, GeneratedWorkload, load_workload

__all__ = ["CorpusCase", "load_corpus", "save_case"]


@dataclass
class CorpusCase:
    """The recipe for one chaos run: everything needed to (re)play it."""

    scheme: str
    trace: str           # profile name: dtr | lmbe | ra
    nodes: int
    scale: float
    seed: int            # workload + schedule + simulator seed
    num_servers: int
    num_monitors: int
    faults: List[str]    # --fault specs; empty = generate from the seed
    ops: Optional[int] = None   # trace truncation (None = full trace)
    store: str = "memory"
    #: Violations observed when the case was captured (documentation: the
    #: replay asserts the *current* tree is clean, not that these recur).
    found_violations: List[str] = field(default_factory=list)
    #: Free-text provenance ("hunt seed=5 shrunk 9->1 events", ...).
    origin: str = ""
    name: str = ""

    def __post_init__(self) -> None:
        if self.trace not in PROFILES:
            raise ValueError(
                f"unknown trace profile {self.trace!r} "
                f"(expected one of {sorted(PROFILES)})"
            )
        if not self.name:
            self.name = f"case-{self.content_hash()[:10]}"

    def content_hash(self) -> str:
        """Stable digest of the replay-relevant fields (names the file)."""
        payload = json.dumps(
            {
                "scheme": self.scheme,
                "trace": self.trace,
                "nodes": self.nodes,
                "scale": self.scale,
                "seed": self.seed,
                "num_servers": self.num_servers,
                "num_monitors": self.num_monitors,
                "ops": self.ops,
                "store": self.store,
                "faults": list(self.faults),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scheme": self.scheme,
            "trace": self.trace,
            "nodes": self.nodes,
            "scale": self.scale,
            "seed": self.seed,
            "num_servers": self.num_servers,
            "num_monitors": self.num_monitors,
            "ops": self.ops,
            "store": self.store,
            "faults": list(self.faults),
            "found_violations": list(self.found_violations),
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusCase":
        return cls(
            scheme=data["scheme"],
            trace=data["trace"],
            nodes=int(data["nodes"]),
            scale=float(data["scale"]),
            seed=int(data["seed"]),
            num_servers=int(data["num_servers"]),
            num_monitors=int(data["num_monitors"]),
            faults=list(data["faults"]),
            ops=data.get("ops"),
            store=data.get("store", "memory"),
            found_violations=list(data.get("found_violations", ())),
            origin=data.get("origin", ""),
            name=data.get("name", ""),
        )

    # ------------------------------------------------------------------
    def workload(self) -> GeneratedWorkload:
        """The workload this case replays: the profile regenerated with the
        case seed (one seed determines workload, schedule and simulator
        RNGs), truncated to ``ops``."""
        profile = PROFILES[self.trace](num_nodes=self.nodes, scale=self.scale)
        profile = dataclasses.replace(profile, seed=self.seed)
        return load_workload(profile).truncated(self.ops)

    def plan(self) -> FaultPlan:
        """The schedule: the explicit ``faults``, else the one the case seed
        generates (a durable store unlocks the kill9 family)."""
        if self.faults:
            return FaultPlan.parse(self.faults)
        return generate_plan(
            self.seed, len(self.workload().trace), self.num_servers,
            self.num_monitors, durability=self.store != "memory",
        )

    def replay_command(self) -> str:
        """The exact ``repro chaos`` invocation replaying this case."""
        parts = [
            "repro chaos",
            f"--trace {self.trace} --nodes {self.nodes}",
            f"--scale {self.scale:g}",
            f"--servers {self.num_servers} --scheme {self.scheme}",
            f"--monitors {self.num_monitors}",
            f"--seeds 1 --seed-base {self.seed} --history",
        ]
        if self.ops is not None:
            parts.append(f"--ops {self.ops}")
        if self.store != "memory":
            parts.append(f"--store {self.store}")
        parts.extend(f"--fault {spec}" for spec in self.faults)
        return " ".join(parts)

    def run_sim(
        self,
        store_dir: Optional[str] = None,
        *,
        history: bool = True,
        trace_sample: int = 0,
    ) -> ChaosCase:
        """The simulator leg: replay, quiesce, check the invariants and (by
        default) audit the recorded operation history."""
        return run_case(
            self.scheme,
            self.workload(),
            self.num_servers,
            self.seed,
            self.plan(),
            num_monitors=self.num_monitors,
            store=self.store,
            store_dir=store_dir,
            trace_sample=trace_sample,
            history=history,
        )

    def run_live(self, socket_dir: Optional[str] = None, rate: float = 2000.0):
        """The live leg: the same run through the asyncio transport.

        Live mode is storeless, so ``store`` is ignored (the kill9 family
        maps onto volatile wipes either way) and the history audit runs with
        the wipe-excused volatile ledgers. Returns the ``ServeReport``.
        """
        # Imported lazily: repro.transport imports this package for the
        # history recorder, so the module level here must stay transport-free.
        from repro import registry
        from repro.transport.live import LiveConfig
        from repro.transport.loadgen import LoadConfig
        from repro.transport.serve import serve_workload

        live_cfg = LiveConfig(
            num_servers=self.num_servers,
            num_monitors=self.num_monitors,
            socket_dir=socket_dir,
            seed=self.seed,
        )
        return serve_workload(
            registry.create(self.scheme),
            self.workload(),
            live_cfg,
            LoadConfig(rate=rate, seed=self.seed),
            self.plan(),
        )


def save_case(case: CorpusCase, directory: str) -> str:
    """Write one case as ``<directory>/<name>.json``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{case.name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(case.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_corpus(directory: str) -> List[CorpusCase]:
    """Load every ``*.json`` case in a directory, sorted by file name."""
    cases: List[CorpusCase] = []
    if not os.path.isdir(directory):
        return cases
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry), encoding="utf-8") as handle:
            cases.append(CorpusCase.from_dict(json.load(handle)))
    return cases
