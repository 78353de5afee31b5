"""One run, described once — and the committed corpus of chaos runs.

:class:`CorpusCase` is the *complete* recipe for one run of the cluster, in
either mode: workload profile + seed, cluster shape, store backend, fault
specs and the knobs both modes share (heartbeat and lease clocks, retry
budget, the live leg's offered load). Every cluster verb — ``simulate``,
``serve``, ``validate``, ``hunt`` — builds one from its flags
(``repro.cli.recipe_from``) and runs what it describes. It alone turns
that recipe into the seeded workload (:meth:`~CorpusCase.workload`), the
schedule (:meth:`~CorpusCase.plan`: the explicit ``faults``, else a
schedule generated from the case's own seed), the configs of both modes
(:meth:`~CorpusCase.sim_config`, :meth:`~CorpusCase.live_configs`), the
``repro hunt`` replay arguments (:meth:`~CorpusCase.to_argv`) and the two
chaos runs — :meth:`~CorpusCase.run_sim` through the simulator and
:meth:`~CorpusCase.run_live` through the asyncio transport.

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
from typing import List, Optional, Tuple

from repro.chaos.harness import ChaosCase, run_case
from repro.chaos.schedule import generate_plan
from repro.simulation.faults import FaultPlan
from repro.simulation.runner import SimulationConfig
from repro.traces import PROFILES, GeneratedWorkload, load_workload

__all__ = [
    "CHAOS_HEARTBEAT_INTERVAL",
    "CHAOS_HEARTBEAT_TIMEOUT",
    "CHAOS_LEASE_TIMEOUT",
    "CorpusCase",
    "load_corpus",
    "save_case",
]

#: The chaos clocks, a recipe's defaults. Chaos runs replay short traces
#: (sub-second makespans), so detection and lease clocks are tightened to
#: fit several detection and election windows inside one run; both legs of
#: a case run them (simulated seconds in one, wall-clock in the other).
CHAOS_HEARTBEAT_INTERVAL = 0.01
CHAOS_HEARTBEAT_TIMEOUT = 0.03
CHAOS_LEASE_TIMEOUT = 0.05


def _knob(default):
    """A knob both modes share. ``default`` is what the committed corpus ran
    under; a case's JSON and hash carry the knob only when it differs."""
    return field(default=default, metadata={"knob": True})


@dataclass
class CorpusCase:
    """The recipe for one run: everything needed to (re)play it."""

    scheme: Optional[str]   # None: every registered scheme (simulate only)
    trace: str           # profile name: dtr | lmbe | ra
    nodes: int
    scale: float
    #: Workload + schedule + cluster seed (None: the profile's own workload
    #: seed, the configs' default cluster seed).
    seed: Optional[int]
    num_servers: int
    num_monitors: int
    #: ``--fault`` specs; None = generate the schedule from the seed.
    faults: Optional[List[str]]
    ops: Optional[int] = None   # trace truncation (None = full trace)
    store: str = "memory"
    heartbeat_interval: float = _knob(CHAOS_HEARTBEAT_INTERVAL)
    heartbeat_timeout: float = _knob(CHAOS_HEARTBEAT_TIMEOUT)
    #: None = 2x ``heartbeat_timeout``.
    lease_timeout: Optional[float] = _knob(CHAOS_LEASE_TIMEOUT)
    max_retries: int = _knob(SimulationConfig.max_retries)
    #: Live leg only: offered load (ops/s), per-attempt reply timeout
    #: (``LoadConfig``'s default) and socket flavour.
    rate: float = _knob(2000.0)
    request_timeout: float = _knob(0.25)
    transport: str = _knob("unix")
    #: Violations observed when the case was captured (documentation: the
    #: replay asserts the *current* tree is clean, not that these recur).
    found_violations: List[str] = field(default_factory=list, compare=False)
    #: Free-text provenance ("hunt seed=5 shrunk 9->1 events", ...).
    origin: str = field(default="", compare=False)
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.trace not in PROFILES:
            raise ValueError(
                f"unknown trace profile {self.trace!r} "
                f"(expected one of {sorted(PROFILES)})"
            )
        if not self.name:
            self.name = f"case-{self.content_hash()[:10]}"

    def _knobs(self) -> dict:
        """The knobs that differ from the committed corpus's values."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.metadata.get("knob") and getattr(self, f.name) != f.default
        }

    def content_hash(self) -> str:
        """Stable digest of the replay-relevant fields (names the file)."""
        payload = self.to_dict()
        for documentation in ("name", "found_violations", "origin"):
            del payload[documentation]
        payload = json.dumps(payload, sort_keys=True)
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
            "faults": None if self.faults is None else list(self.faults),
            **self._knobs(),
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
            **{
                f.name: data[f.name]
                for f in dataclasses.fields(cls)
                if f.metadata.get("knob") and f.name in data
            },
        )

    # ------------------------------------------------------------------
    def workload(self) -> GeneratedWorkload:
        """The workload this case replays: the profile regenerated with the
        case seed (one seed determines workload, schedule and simulator
        RNGs), truncated to ``ops``."""
        profile = PROFILES[self.trace](num_nodes=self.nodes, scale=self.scale)
        if self.seed is not None:
            profile = dataclasses.replace(profile, seed=self.seed)
        return load_workload(profile).truncated(self.ops)

    def plan(self) -> FaultPlan:
        """The schedule: the explicit ``faults``, else the one the case seed
        generates (a durable store unlocks the kill9 family)."""
        if self.faults is not None:
            return FaultPlan.parse(self.faults)
        return generate_plan(
            self.seed, len(self.workload().trace), self.num_servers,
            self.num_monitors, durability=self.store != "memory",
        )

    def sim_config(
        self, store_dir: Optional[str] = None, trace_sample: int = 0
    ) -> SimulationConfig:
        """The simulator's config for this run. ``store_dir`` (where the
        store lives) and ``trace_sample`` (which ops record spans) change
        what is kept, not what runs."""
        return SimulationConfig(
            seed=SimulationConfig.seed if self.seed is None else self.seed,
            fault_plan=self.plan(),
            num_monitors=self.num_monitors,
            max_retries=self.max_retries,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            monitor_lease_timeout=self.lease_timeout,
            store=self.store,
            store_dir=store_dir,
            trace_sample=trace_sample,
        )

    def live_configs(self, socket_dir: Optional[str] = None) -> Tuple:
        """The live cluster's and the load generator's configs for this run
        (``(LiveConfig, LoadConfig)``). Live mode is storeless, so ``store``
        is ignored (the kill9 family maps onto volatile wipes either way)."""
        # Imported lazily: repro.transport imports this package for the
        # history recorder, so the module level here must stay transport-free.
        from repro.transport.live import LiveConfig
        from repro.transport.loadgen import LoadConfig

        seed = LiveConfig.seed if self.seed is None else self.seed
        return (
            LiveConfig(
                num_servers=self.num_servers,
                num_monitors=self.num_monitors,
                transport=self.transport,
                socket_dir=socket_dir,
                heartbeat_interval=self.heartbeat_interval,
                heartbeat_timeout=self.heartbeat_timeout,
                lease_timeout=self.lease_timeout,
                seed=seed,
            ),
            LoadConfig(
                rate=self.rate,
                request_timeout=self.request_timeout,
                max_retries=self.max_retries,
                seed=seed,
            ),
        )

    def to_argv(self) -> List[str]:
        """The ``repro hunt --no-shrink`` arguments replaying this case;
        ``repro`` and these, space-joined, is the replay line every verdict
        prints (without the shrinker, so it prints the same verdict again).

        ``hunt`` runs a recipe's own knobs and one named scheme and seed;
        a case that needs other values has no hunt command (ValueError).
        """
        if self._knobs() or self.scheme is None or self.seed is None:
            raise ValueError(
                f"no hunt replay for {self.name}: hunt runs one scheme "
                f"and seed with the corpus knobs, not scheme={self.scheme} "
                f"seed={self.seed} {self._knobs()}"
            )
        argv = [
            "hunt", "--no-shrink", "--trace", self.trace,
            "--nodes", str(self.nodes), "--scale", f"{self.scale:g}",
            "--servers", str(self.num_servers), "--scheme", self.scheme,
            "--monitors", str(self.num_monitors),
            "--seeds", "1", "--seed-base", str(self.seed),
        ]
        if self.ops is not None:
            argv += ["--ops", str(self.ops)]
        if self.store != "memory":
            argv += ["--store", self.store]
        for spec in self.faults or ():
            argv += ["--fault", spec]
        return argv

    def run_sim(self, store_dir: Optional[str] = None) -> ChaosCase:
        """The simulator leg: replay, quiesce,
        :func:`~repro.chaos.harness.check_run`."""
        return run_case(self, store_dir)

    def run_live(self, socket_dir: Optional[str] = None):
        """The live leg: the same run through the asyncio transport, judged
        by the same :func:`~repro.chaos.harness.check_run`, with the
        wipe-excused volatile ledgers. Returns the ``ServeReport``."""
        from repro import registry
        from repro.transport.serve import serve_workload

        return serve_workload(
            registry.create(self.scheme),
            self.workload(),
            *self.live_configs(socket_dir),
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
