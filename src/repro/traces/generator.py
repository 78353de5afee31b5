"""Synthetic trace generator reproducing the paper's workload shapes.

For each :class:`~repro.traces.datasets.DatasetProfile` the generator builds

1. a namespace tree with the profile's exact max depth (a planted chain) and
   heavy-tailed directory fan-out,
2. a *hot set* of shallow nodes sized ``hot_fraction`` of the tree — the
   nodes a popularity-ranked 1% global layer naturally absorbs, and
3. an operation trace with the Table II read/write/update mix, Zipf-skewed
   node targeting, and ``hot_access_fraction`` of all operations directed at
   the hot set (which reproduces the paper's global-layer hit ratios).

The generated tree carries per-node popularity (from the trace itself) and
per-node update costs (update-op counts plus a structural maintenance floor),
so Algorithm 1's ``p``/``u`` inputs come from the same workload the paper's
system would observe.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.namespace import NamespaceTree
from repro.core.node import MetadataNode
from repro.traces.datasets import DatasetProfile
from repro.traces.trace import OpType, Trace, TraceRecord

__all__ = [
    "TraceGenerator",
    "GeneratedWorkload",
    "ZipfSampler",
    "load_workload",
]

#: Baseline update cost every node pays for structural maintenance.
STRUCTURAL_UPDATE_COST = 0.01

#: Simulated trace duration (the paper's traces span 24 hours).
TRACE_DURATION_SECONDS = 86_400.0

#: Client base used throughout Section VI.
DEFAULT_NUM_CLIENTS = 200


class ZipfSampler:
    """Draw ranks from a (finite) Zipf distribution ``P(r) ∝ 1/(r+1)^s``."""

    def __init__(self, size: int, exponent: float, rng: random.Random) -> None:
        if size < 1:
            raise ValueError("population must be non-empty")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self._rng = rng
        weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
        self._cumulative: List[float] = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self) -> int:
        """One rank in ``[0, size)``."""
        point = self._rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point)


@dataclass
class GeneratedWorkload:
    """Tree + trace pair generated from one dataset profile."""

    profile: DatasetProfile
    tree: NamespaceTree
    trace: Trace
    hot_nodes: List[MetadataNode] = field(default_factory=list)
    #: Paths whose first trace occurrence is a CREATE: these nodes do not
    #: exist at partition time and each scheme places them on the fly.
    late_created_paths: List[str] = field(default_factory=list)

    def truncated(self, ops: Optional[int]) -> "GeneratedWorkload":
        """This workload over only the first ``ops`` operations (None = all)."""
        if ops is None:
            return self
        return replace(self, trace=self.trace.slice(0, ops))

    def hot_hit_fraction(self) -> float:
        """Measured fraction of operations targeting the hot set (one pass)."""
        hot_paths = {node.path for node in self.hot_nodes}
        hits = 0
        total = 0
        for record in self.trace:
            total += 1
            if record.path in hot_paths:
                hits += 1
        if not total:
            return 0.0
        return hits / total


class TraceGenerator:
    """Generates a :class:`GeneratedWorkload` from a profile, deterministically."""

    def __init__(self, profile: DatasetProfile, num_clients: int = DEFAULT_NUM_CLIENTS) -> None:
        self.profile = profile
        self.num_clients = num_clients

    # ------------------------------------------------------------------
    def generate(self) -> GeneratedWorkload:
        """Build the tree, synthesise the trace, and backfill popularity."""
        rng = random.Random(self.profile.seed)
        tree, hot_nodes, cold_nodes = self._build_tree(rng)
        trace = Trace(
            name=self.profile.name,
            records=list(self._trace_stream(rng, hot_nodes, cold_nodes)),
            description=self.profile.description,
        )
        late_paths = self._mark_creates(rng, trace, cold_nodes)
        self._apply_trace_to_tree(tree, trace)
        return GeneratedWorkload(
            profile=self.profile,
            tree=tree,
            trace=trace,
            hot_nodes=hot_nodes,
            late_created_paths=late_paths,
        )

    def build_tree(self) -> NamespaceTree:
        """Convenience: generate and return only the (popularity-laden) tree."""
        return self.generate().tree

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def _build_tree(self, rng: random.Random):
        profile = self.profile
        tree = NamespaceTree()

        # 1. Plant the exact-max-depth chain (Table I's Max Depth column).
        node = tree.root
        for level in range(profile.max_depth - 1):
            node = tree.add_child(node, f"deep{level}", is_directory=True)
        deep_file = tree.add_child(node, "deepest.dat", is_directory=False)

        # 2. Hot directories near the root hosting the hot set. The hot set
        # spans many directories (a release tree has many popular folders),
        # so subtree-grained schemes can spread it too.
        hot_budget = max(2, round(profile.hot_fraction * profile.num_nodes))
        num_hot_dirs = max(2, min(64, hot_budget // 2))
        hot_nodes: List[MetadataNode] = []
        hot_dirs = []
        for i in range(num_hot_dirs):
            hot_dir = tree.add_child(tree.root, f"hot{i}", is_directory=True)
            hot_dirs.append(hot_dir)
            hot_nodes.append(hot_dir)
        hot_file_count = max(0, hot_budget - num_hot_dirs)
        for i in range(hot_file_count):
            parent = hot_dirs[i % num_hot_dirs]
            hot_nodes.append(
                tree.add_child(parent, f"hotfile{i}.bin", is_directory=False)
            )

        # 3. Bulk directories: random attachment below the depth cap, with
        #    mild preferential weighting for heavy-tailed fan-out.
        remaining = profile.num_nodes - len(tree)
        files_per_dir = max(1.0, profile.mean_branching)
        num_dirs = max(1, int(remaining / (files_per_dir + 1)))
        num_files = max(0, remaining - num_dirs)
        attachable = [d for d in tree.directories() if d.depth < profile.max_depth - 1]
        for i in range(num_dirs):
            # Two candidates, keep the one with more children: cheap
            # preferential attachment ("power of two choices").
            a = rng.choice(attachable)
            b = rng.choice(attachable)
            parent = a if len(a.children) >= len(b.children) else b
            new_dir = tree.add_child(parent, f"d{i}", is_directory=True)
            if new_dir.depth < profile.max_depth - 1:
                attachable.append(new_dir)

        cold_nodes: List[MetadataNode] = []
        dirs = [d for d in tree.directories() if d.depth < profile.max_depth]
        # Depth-biased parent choice: weight ∝ (1+depth)^file_depth_bias.
        dir_weights = list(
            itertools.accumulate((1 + d.depth) ** profile.file_depth_bias for d in dirs)
        )
        for i in range(num_files):
            point = rng.random() * dir_weights[-1]
            parent = dirs[bisect.bisect_left(dir_weights, point)]
            cold_nodes.append(
                tree.add_child(parent, f"f{i}.dat", is_directory=False)
            )
        # Cold tier also includes the deep chain's file so it is reachable.
        cold_nodes.append(deep_file)
        return tree, hot_nodes, cold_nodes

    # ------------------------------------------------------------------
    # Trace synthesis
    # ------------------------------------------------------------------
    def _trace_stream(
        self,
        rng: random.Random,
        hot_nodes: Sequence[MetadataNode],
        cold_nodes: Sequence[MetadataNode],
    ) -> Iterator[TraceRecord]:
        """Yield the raw (pre-CREATE-conversion) records."""
        profile = self.profile
        # Shuffled rank order decorrelates Zipf rank from creation order.
        hot_pool = list(hot_nodes)
        cold_pool = list(cold_nodes)
        rng.shuffle(hot_pool)
        rng.shuffle(cold_pool)
        hot_sampler = ZipfSampler(len(hot_pool), profile.hot_zipf_exponent, rng)
        cold_sampler = ZipfSampler(len(cold_pool), profile.zipf_exponent, rng)

        op_types = [OpType.READ, OpType.WRITE, OpType.UPDATE]
        op_cum = list(
            itertools.accumulate(
                [profile.read_fraction, profile.write_fraction, profile.update_fraction]
            )
        )
        step = TRACE_DURATION_SECONDS / max(1, profile.num_operations)
        ops_per_phase = max(1, profile.num_operations // max(1, profile.drift_phases))
        hot_shift = max(1, round(profile.drift_rate * len(hot_pool)))
        cold_shift = max(1, round(profile.drift_rate * len(cold_pool)))
        now = 0.0
        for index in range(profile.num_operations):
            now += rng.expovariate(1.0) * step
            # Diurnal drift: the Zipf rank order rotates a little each phase,
            # so the identity of the hottest nodes shifts through the day.
            phase = index // ops_per_phase
            roll = rng.random() * op_cum[-1]
            op = op_types[bisect.bisect_left(op_cum, roll)]
            if rng.random() < profile.hot_access_fraction:
                rank = (hot_sampler.sample() + phase * hot_shift) % len(hot_pool)
                target = hot_pool[rank]
            else:
                rank = (cold_sampler.sample() + phase * cold_shift) % len(cold_pool)
                target = cold_pool[rank]
            yield TraceRecord(
                timestamp=now,
                op=op,
                path=target.path,
                client_id=rng.randrange(self.num_clients),
            )

    # ------------------------------------------------------------------
    def _mark_creates(
        self,
        rng: random.Random,
        trace: Trace,
        cold_nodes: Sequence[MetadataNode],
    ) -> List[str]:
        """Turn the first occurrence of some cold files into CREATE ops
        (no RNG draws when ``create_fraction`` is 0)."""
        fraction = self.profile.create_fraction
        if fraction <= 0:
            return []
        files = [n for n in cold_nodes if not n.is_directory]
        count = max(1, round(fraction * len(files)))
        late = {n.path for n in rng.sample(files, min(count, len(files)))}
        seen = set()
        records = trace.records
        converted = []
        for index, record in enumerate(records):
            if record.path in late and record.path not in seen:
                records[index] = TraceRecord(
                    timestamp=record.timestamp,
                    op=OpType.CREATE,
                    path=record.path,
                    client_id=record.client_id,
                )
                converted.append(record.path)
            seen.add(record.path)
        return converted

    @staticmethod
    def _apply_trace_to_tree(tree: NamespaceTree, trace: Trace) -> None:
        """Backfill per-node popularity and update costs from the trace."""
        access: Dict[str, float] = {}
        updates: Dict[str, float] = {}
        for record in trace.records:
            access[record.path] = access.get(record.path, 0.0) + 1.0
            if record.op is OpType.UPDATE:
                updates[record.path] = updates.get(record.path, 0.0) + 1.0
        for node in tree:
            node.individual_popularity = access.get(node.path, 0.0)
            node.update_cost = STRUCTURAL_UPDATE_COST + updates.get(node.path, 0.0)
        tree.aggregate_popularity()


def load_workload(profile: DatasetProfile, num_clients: int = DEFAULT_NUM_CLIENTS) -> GeneratedWorkload:
    """Generate (or fetch the cached) workload for a profile.

    Profiles are frozen dataclasses, so identical parameters always return
    the same cached object — benchmarks across schemes share one workload.
    """
    key = (profile, num_clients)
    cached = _WORKLOAD_CACHE.get(key)
    if cached is None:
        cached = TraceGenerator(profile, num_clients=num_clients).generate()
        _WORKLOAD_CACHE[key] = cached
    return cached


_WORKLOAD_CACHE: Dict[tuple, GeneratedWorkload] = {}
