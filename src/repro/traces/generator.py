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
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from math import log
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.namespace import ROOT, NamespaceTree
from repro.traces.datasets import DatasetProfile
from repro.traces.trace import OP_CODES, OpType, Trace, first_appearance

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
        #: Running weight totals: rank ``r`` owns ``(cumulative[r-1], cumulative[r]]``.
        self.cumulative: List[float] = list(itertools.accumulate(weights))
        self.total = self.cumulative[-1]

    def sample(self) -> int:
        """One rank in ``[0, size)``."""
        return bisect.bisect_left(self.cumulative, self._rng.random() * self.total)


@dataclass
class GeneratedWorkload:
    """Tree + trace pair generated from one dataset profile."""

    profile: DatasetProfile
    tree: NamespaceTree
    trace: Trace
    hot_nodes: List[int] = field(default_factory=list)
    #: Paths whose first trace occurrence is a CREATE: these nodes do not
    #: exist at partition time and each scheme places them on the fly.
    late_created_paths: List[str] = field(default_factory=list)

    def truncated(self, ops: Optional[int]) -> "GeneratedWorkload":
        """This workload over only the first ``ops`` operations (None = all)."""
        if ops is None:
            return self
        return replace(self, trace=self.trace.slice(0, ops))

    def hot_hit_fraction(self) -> float:
        """Measured fraction of operations targeting the hot set."""
        trace = self.trace
        if not len(trace):
            return 0.0
        hot_paths = set(self.tree.paths(self.hot_nodes))
        hot = [path in hot_paths for path in trace.paths]
        return sum(map(hot.__getitem__, trace.path_ids)) / len(trace)


class TraceGenerator:
    """Generates a :class:`GeneratedWorkload` from a profile, deterministically."""

    def __init__(self, profile: DatasetProfile, num_clients: int = DEFAULT_NUM_CLIENTS) -> None:
        if num_clients < 1:
            raise ValueError("num_clients must be positive")
        self.profile = profile
        self.num_clients = num_clients

    # ------------------------------------------------------------------
    def generate(self) -> GeneratedWorkload:
        """Build the tree, synthesise the trace, and backfill popularity."""
        rng = random.Random(self.profile.seed)
        tree, hot_nodes, cold_nodes = self._build_tree(rng)
        trace, traced = self._trace_columns(rng, tree, hot_nodes, cold_nodes)
        late_paths = self._mark_creates(rng, tree, trace, traced, cold_nodes)
        self._apply_trace_to_tree(tree, trace, traced)
        return GeneratedWorkload(
            profile=self.profile,
            tree=tree,
            trace=trace,
            hot_nodes=hot_nodes,
            late_created_paths=late_paths,
        )

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def _build_tree(self, rng: random.Random):
        """The tree, written column by column: every name is unique in its
        directory by construction, so no child is looked up by name."""
        profile = self.profile
        tree = NamespaceTree()
        add_child = tree._append

        # 1. Plant the exact-max-depth chain (Table I's Max Depth column).
        node = ROOT
        for level in range(profile.max_depth - 1):
            node = add_child(node, f"deep{level}", True)
        deep_file = add_child(node, "deepest.dat", False)

        # 2. Hot directories near the root hosting the hot set. The hot set
        # spans many directories (a release tree has many popular folders),
        # so subtree-grained schemes can spread it too.
        hot_budget = max(2, round(profile.hot_fraction * profile.num_nodes))
        num_hot_dirs = max(2, min(64, hot_budget // 2))
        hot_dirs = [add_child(ROOT, f"hot{i}", True) for i in range(num_hot_dirs)]
        hot_nodes = list(hot_dirs)
        hot_file_count = max(0, hot_budget - num_hot_dirs)
        for i in range(hot_file_count):
            hot_nodes.append(add_child(hot_dirs[i % num_hot_dirs], f"hotfile{i}.bin", False))

        # Depth and child count by node id, kept as the tree grows.
        arena = tree.arena()
        depth = list(arena.depths())
        fanout = [len(arena.children(n)) for n in tree]

        # 3. Bulk directories: random attachment below the depth cap, with
        #    mild preferential weighting for heavy-tailed fan-out.
        remaining = profile.num_nodes - len(tree)
        files_per_dir = max(1.0, profile.mean_branching)
        num_dirs = max(1, int(remaining / (files_per_dir + 1)))
        num_files = max(0, remaining - num_dirs)
        cap = profile.max_depth - 1
        attachable = [d for d in tree.directories() if depth[d] < cap]
        for i in range(num_dirs):
            # Two candidates, keep the one with more children: cheap
            # preferential attachment ("power of two choices").
            a = rng.choice(attachable)
            b = rng.choice(attachable)
            parent = a if fanout[a] >= fanout[b] else b
            new_dir = add_child(parent, f"d{i}", True)
            level = depth[parent] + 1
            depth.append(level)
            fanout[parent] += 1
            fanout.append(0)
            if level < cap:
                attachable.append(new_dir)

        dirs = [d for d in tree.directories() if depth[d] < profile.max_depth]
        # Depth-biased parent choice: weight ∝ (1+depth)^file_depth_bias.
        bias = profile.file_depth_bias
        dir_weights = list(itertools.accumulate((1 + depth[d]) ** bias for d in dirs))
        total = dir_weights[-1]
        random_ = rng.random
        bisect_left = bisect.bisect_left
        cold_nodes = [
            add_child(dirs[bisect_left(dir_weights, random_() * total)], f"f{i}.dat", False)
            for i in range(num_files)
        ]
        # Cold tier also includes the deep chain's file so it is reachable.
        cold_nodes.append(deep_file)
        return tree, hot_nodes, cold_nodes

    # ------------------------------------------------------------------
    # Trace synthesis
    # ------------------------------------------------------------------
    def _trace_columns(
        self,
        rng: random.Random,
        tree: NamespaceTree,
        hot_nodes: Sequence[int],
        cold_nodes: Sequence[int],
    ) -> Tuple[Trace, List[int]]:
        """The raw (pre-CREATE-conversion) trace, written column by column,
        and the node id of each of its distinct paths.

        The path column is written as indices into the hot pool followed by
        the cold pool, then renumbered in first-appearance order; only the
        nodes the trace names have their paths rendered. The loop's draws
        are inlined with the library's own arithmetic and take the same bits
        from ``rng`` in the same order as the method calls:
        ``expovariate(1.0)`` is ``-log(1.0 - random())`` (÷1.0 is exact),
        ``ZipfSampler.sample`` is ``bisect_left(cumulative, random() *
        total)``, ``randrange(n)`` the ``getrandbits`` rejection loop.
        """
        profile = self.profile
        # Shuffled rank order decorrelates Zipf rank from creation order.
        hot_pool = list(hot_nodes)
        cold_pool = list(cold_nodes)
        rng.shuffle(hot_pool)
        rng.shuffle(cold_pool)
        hot_sampler = ZipfSampler(len(hot_pool), profile.hot_zipf_exponent, rng)
        cold_sampler = ZipfSampler(len(cold_pool), profile.zipf_exponent, rng)
        num_hot, num_cold = len(hot_pool), len(cold_pool)
        hot_cum, hot_total = hot_sampler.cumulative, hot_sampler.total
        cold_cum, cold_total = cold_sampler.cumulative, cold_sampler.total

        # Codes 0, 1, 2 are READ, WRITE, UPDATE (OP_CODES).
        op_cum = list(
            itertools.accumulate(
                [profile.read_fraction, profile.write_fraction, profile.update_fraction]
            )
        )
        op_total = op_cum[-1]
        hot_access = profile.hot_access_fraction
        num_clients = self.num_clients
        client_bits = num_clients.bit_length()
        num_ops = profile.num_operations
        step = TRACE_DURATION_SECONDS / max(1, num_ops)
        ops_per_phase = max(1, num_ops // max(1, profile.drift_phases))
        hot_shift = max(1, round(profile.drift_rate * num_hot))
        cold_shift = max(1, round(profile.drift_rate * num_cold))
        random_ = rng.random
        getrandbits = rng.getrandbits
        bisect_left = bisect.bisect_left
        timestamps = array("d")
        op_codes = array("b")
        client_ids = array("i")
        pool_ids = array("i")
        stamp = timestamps.append
        op_code = op_codes.append
        client_id = client_ids.append
        pool_id = pool_ids.append
        now = 0.0
        for phase, start in enumerate(range(0, num_ops, ops_per_phase)):
            # Diurnal drift: the Zipf rank order rotates a little each phase,
            # so the identity of the hottest nodes shifts through the day.
            hot_offset = phase * hot_shift
            cold_offset = phase * cold_shift
            for _ in range(min(ops_per_phase, num_ops - start)):
                now += -log(1.0 - random_()) * step
                stamp(now)
                op_code(bisect_left(op_cum, random_() * op_total))
                if random_() < hot_access:
                    rank = bisect_left(hot_cum, random_() * hot_total) + hot_offset
                    pool_id(rank % num_hot)
                else:
                    rank = bisect_left(cold_cum, random_() * cold_total) + cold_offset
                    pool_id(num_hot + rank % num_cold)
                client = getrandbits(client_bits)
                while client >= num_clients:
                    client = getrandbits(client_bits)
                client_id(client)
        path_ids, traced = first_appearance(pool_ids, hot_pool + cold_pool)
        trace = Trace(
            profile.name, timestamps, op_codes, client_ids, path_ids, tree.paths(traced),
            profile.description,
        )
        return trace, traced

    # ------------------------------------------------------------------
    def _mark_creates(
        self,
        rng: random.Random,
        tree: NamespaceTree,
        trace: Trace,
        traced: Sequence[int],
        cold_nodes: Sequence[int],
    ) -> List[str]:
        """Turn the first occurrence of some cold files into CREATE ops
        (no RNG draws when ``create_fraction`` is 0)."""
        fraction = self.profile.create_fraction
        if fraction <= 0:
            return []
        files = [n for n in cold_nodes if not tree.is_directory(n)]
        count = max(1, round(fraction * len(files)))
        late = set(rng.sample(files, min(count, len(files))))
        # Path ids are in first-appearance order, so the late paths' first
        # operations come in id order too: one forward scan finds them all.
        op_codes, path_ids = trace.op_codes, trace.path_ids
        converted = []
        index = 0
        for path_id, node in enumerate(traced):
            if node in late:
                index = path_ids.index(path_id, index)
                op_codes[index] = OP_CODES[OpType.CREATE]
                converted.append(trace.paths[path_id])
        return converted

    @staticmethod
    def _apply_trace_to_tree(tree: NamespaceTree, trace: Trace, traced: Sequence[int]) -> None:
        """Backfill per-node popularity and update costs from the trace:
        path id ``i`` names node ``traced[i]``.

        Counts are integers below 2**53, so ``float(count)`` is the sum of
        that many ``1.0`` additions, bit for bit."""
        path_ids = trace.path_ids
        access = Counter(path_ids)
        is_update = OP_CODES[OpType.UPDATE].__eq__
        updates = Counter(itertools.compress(path_ids, map(is_update, trace.op_codes)))
        individual, update_cost = tree.individual_popularity, tree.update_cost  # p' all 0.0
        update_cost[:] = array("d", [STRUCTURAL_UPDATE_COST]) * len(tree)
        for path_id, node in enumerate(traced):
            individual[node] = float(access[path_id])
            update_cost[node] = STRUCTURAL_UPDATE_COST + float(updates[path_id])
        tree.aggregate_popularity()


def load_workload(profile: DatasetProfile, num_clients: int = DEFAULT_NUM_CLIENTS) -> GeneratedWorkload:
    """Generate (or fetch the cached) workload for a profile.

    Profiles are frozen dataclasses, so identical parameters return the same
    cached object — benchmarks across schemes share one workload. Only the
    current recipe's workload is kept: a run over many seeds (a hunt) holds
    one workload at a time, not one per seed.
    """
    key = (profile, num_clients)
    cached = _WORKLOAD_CACHE.get(key)
    if cached is None:
        _WORKLOAD_CACHE.clear()  # before generating: one workload at a time
        cached = TraceGenerator(profile, num_clients=num_clients).generate()
        _WORKLOAD_CACHE[key] = cached
    return cached


_WORKLOAD_CACHE: Dict[tuple, GeneratedWorkload] = {}
