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

Set-up draws from ``random`` with the library's own arithmetic inlined, so
it takes the same bits in the same order as the method calls on CPython
3.10-3.13: each bulk directory's two ``choice`` calls, the pools'
``shuffle`` and the trace loop's ``randrange`` are the ``getrandbits``
rejection loop of ``_randbelow``; ``expovariate(1.0)`` is ``-log(1.0 -
random())`` (÷1.0 is exact); a Zipf rank and a file's parent directory are
``bisect_left`` over cumulative weights; the op code is ``bisect_left``'s
rule on two cut points. The trace is counted once, as its paths are
renumbered (:func:`~repro.traces.trace.first_appearance`).
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
from repro.traces.columns import node_column
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
        weights = (1.0 / (rank + 1) ** exponent for rank in range(size))
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
    #: ``(trace, tree size, column)`` behind :meth:`node_ids`.
    _node_ids: Optional[tuple] = field(default=None, repr=False, compare=False)

    def node_ids(self) -> array:
        """Each trace path's node id, by path id (-1: none): the generator's own,
        or resolved on first use and again for another trace object or tree size."""
        held = self._node_ids
        if held is None or held[0] is not self.trace or held[1] != len(self.tree):
            column = node_column(self.tree, self.trace.paths)
            held = self._node_ids = (self.trace, len(self.tree), column)
        return held[2]

    def truncated(self, ops: Optional[int]) -> "GeneratedWorkload":
        """This workload over only the first ``ops`` operations (None = all)."""
        if ops is None:
            return self
        return replace(self, trace=self.trace.slice(0, ops))

    def hot_hit_fraction(self) -> float:
        """Measured fraction of operations targeting the hot set."""
        hot = set(self.hot_nodes)
        flags = [node in hot for node in self.node_ids()]
        return sum(map(flags.__getitem__, self.trace.path_ids)) / max(1, len(self.trace))


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
        trace, traced, accesses = self._trace_columns(rng, tree, hot_nodes, cold_nodes)
        late_paths = self._mark_creates(rng, tree, trace, traced, cold_nodes)
        self._apply_trace_to_tree(tree, trace, traced, accesses)
        return GeneratedWorkload(
            profile=self.profile,
            tree=tree,
            trace=trace,
            hot_nodes=hot_nodes,
            late_created_paths=late_paths,
            _node_ids=(trace, len(tree), array("i", traced)),
        )

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def _build_tree(self, rng: random.Random):
        """The tree, a phase at a time (all parents drawn, then each column
        extended once): names are unique by construction, none is looked up."""
        profile = self.profile
        tree = NamespaceTree()
        extend = tree._extend

        # 1. Plant the exact-max-depth chain (Table I's Max Depth column).
        node = ROOT
        for level in range(profile.max_depth - 1):
            node = extend((node,), (f"deep{level}",), True)
        deep_file = extend((node,), ("deepest.dat",), False)

        # 2. Hot directories near the root hosting the hot set. The hot set
        # spans many directories (a release tree has many popular folders),
        # so subtree-grained schemes can spread it too.
        hot_budget = max(2, round(profile.hot_fraction * profile.num_nodes))
        num_hot_dirs = max(2, min(64, hot_budget // 2))
        first = extend([ROOT] * num_hot_dirs, [f"hot{i}" for i in range(num_hot_dirs)], True)
        hot_dirs = list(range(first, first + num_hot_dirs))
        hot_files = range(max(0, hot_budget - num_hot_dirs))
        parents = [hot_dirs[i % num_hot_dirs] for i in hot_files]
        first = extend(parents, [f"hotfile{i}.bin" for i in hot_files], False)
        hot_nodes = hot_dirs + list(range(first, first + len(hot_files)))

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
        getrandbits = rng.getrandbits
        parents = []
        for new_dir in range(len(tree), len(tree) + num_dirs):
            # Two candidates, keep the one with more children: cheap
            # preferential attachment ("power of two choices"). Each is
            # ``rng.choice(attachable)``: the ``getrandbits`` rejection loop.
            size = len(attachable)
            bits, a, b = size.bit_length(), size, size
            while a >= size:
                a = getrandbits(bits)
            while b >= size:
                b = getrandbits(bits)
            a, b = attachable[a], attachable[b]
            parent = a if fanout[a] >= fanout[b] else b
            parents.append(parent)
            level = depth[parent] + 1
            depth.append(level)
            fanout[parent] += 1
            fanout.append(0)
            if level < cap:
                attachable.append(new_dir)
        extend(parents, [f"d{i}" for i in range(num_dirs)], True)

        dirs = [d for d in tree.directories() if depth[d] < profile.max_depth]
        # Depth-biased parent choice: weight ∝ (1+depth)^file_depth_bias,
        # one ``**`` per depth.
        bias = profile.file_depth_bias
        weight = [(1 + level) ** bias for level in range(profile.max_depth)]
        levels = map(depth.__getitem__, dirs)
        dir_weights = list(itertools.accumulate(map(weight.__getitem__, levels)))
        total = dir_weights[-1]
        random_ = rng.random
        bisect_left = bisect.bisect_left
        parents = [dirs[bisect_left(dir_weights, random_() * total)] for _ in range(num_files)]
        first = extend(parents, [f"f{i}.dat" for i in range(num_files)], False)
        cold_nodes = list(range(first, first + num_files))
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
    ) -> Tuple[Trace, List[int], List[int]]:
        """The raw (pre-CREATE-conversion) trace, written column by column,
        and the node id and access count of each of its distinct paths.

        The path column is written as indices into the hot pool followed by
        the cold pool, then renumbered in first-appearance order; only the
        nodes the trace names have their paths rendered. The draws are
        inlined (see the module docstring)."""
        profile = self.profile
        # Shuffled rank order decorrelates Zipf rank from creation order.
        hot_pool = list(hot_nodes)
        cold_pool = list(cold_nodes)
        getrandbits = rng.getrandbits
        for pool in (hot_pool, cold_pool):
            for i in range(len(pool) - 1, 0, -1):
                bits = (i + 1).bit_length()
                j = getrandbits(bits)
                while j > i:
                    j = getrandbits(bits)
                pool[i], pool[j] = pool[j], pool[i]
        hot_sampler = ZipfSampler(len(hot_pool), profile.hot_zipf_exponent, rng)
        cold_sampler = ZipfSampler(len(cold_pool), profile.zipf_exponent, rng)
        num_hot, num_cold = len(hot_pool), len(cold_pool)
        hot_cum, hot_total = hot_sampler.cumulative, hot_sampler.total
        cold_cum, cold_total = cold_sampler.cumulative, cold_sampler.total

        # Codes 0, 1, 2 are READ, WRITE, UPDATE (OP_CODES).
        read_cut, write_cut, op_total = itertools.accumulate(
            [profile.read_fraction, profile.write_fraction, profile.update_fraction]
        )
        hot_access = profile.hot_access_fraction
        num_clients = self.num_clients
        client_bits = num_clients.bit_length()
        num_ops = profile.num_operations
        step = TRACE_DURATION_SECONDS / max(1, num_ops)
        ops_per_phase = max(1, num_ops // max(1, profile.drift_phases))
        hot_shift = max(1, round(profile.drift_rate * num_hot))
        cold_shift = max(1, round(profile.drift_rate * num_cold))
        random_ = rng.random
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
                cut = random_() * op_total
                op_code(0 if cut <= read_cut else 1 if cut <= write_cut else 2)
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
        path_ids, traced, accesses = first_appearance(pool_ids, hot_pool + cold_pool)
        trace = Trace(
            profile.name, timestamps, op_codes, client_ids, path_ids, tree.paths(traced),
            profile.description,
        )
        return trace, traced, accesses

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
    def _apply_trace_to_tree(
        tree: NamespaceTree, trace: Trace, traced: Sequence[int], accesses: Sequence[int]
    ) -> None:
        """Backfill per-node popularity and update costs from the trace:
        path id ``i`` names node ``traced[i]``, accessed ``accesses[i]`` times.

        Counts are integers below 2**53, so ``float(count)`` is the sum of
        that many ``1.0`` additions, bit for bit; a node never updated keeps
        the structural floor, which is ``floor + float(0)``."""
        individual, update_cost = tree.individual_popularity, tree.update_cost  # p' all 0.0
        for node, count in zip(traced, accesses):
            individual[node] = float(count)
        is_update = bytes(code == OP_CODES[OpType.UPDATE] for code in range(256))
        updates = Counter(
            itertools.compress(trace.path_ids, bytes(trace.op_codes).translate(is_update))
        )
        update_cost[:] = array("d", [STRUCTURAL_UPDATE_COST]) * len(tree)
        for path_id, count in updates.items():
            update_cost[traced[path_id]] = STRUCTURAL_UPDATE_COST + float(count)
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
