"""Tests for the synthetic trace generator."""

import gc
import hashlib
import random
import sys
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from repro.traces import (
    DatasetProfile,
    OpType,
    TraceGenerator,
    ZipfSampler,
    dumps_trace,
    load_workload,
)
from repro.traces.generator import STRUCTURAL_UPDATE_COST
from repro.traces.trace import round_bounds
from tests.conftest import check_structure


@pytest.fixture(scope="module")
def dtr_workload():
    return TraceGenerator(DatasetProfile.dtr(num_nodes=1500, scale=6e-5)).generate()


# ----------------------------------------------------------------------
# ZipfSampler
# ----------------------------------------------------------------------
def test_zipf_sampler_range():
    sampler = ZipfSampler(10, 1.0, random.Random(1))
    samples = [sampler.sample() for _ in range(500)]
    assert all(0 <= s < 10 for s in samples)


def test_zipf_sampler_skew():
    sampler = ZipfSampler(50, 1.2, random.Random(2))
    samples = [sampler.sample() for _ in range(3000)]
    low_ranks = sum(1 for s in samples if s < 5)
    high_ranks = sum(1 for s in samples if s >= 45)
    assert low_ranks > 5 * high_ranks


def test_zipf_sampler_uniform_when_exponent_zero():
    sampler = ZipfSampler(4, 0.0, random.Random(3))
    counts = [0] * 4
    for _ in range(4000):
        counts[sampler.sample()] += 1
    assert max(counts) < 2 * min(counts)


def test_zipf_sampler_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0, random.Random(1))
    with pytest.raises(ValueError):
        ZipfSampler(5, -1.0, random.Random(1))


# ----------------------------------------------------------------------
# Generated tree structure
# ----------------------------------------------------------------------
def test_tree_size_matches_profile(dtr_workload):
    assert len(dtr_workload.tree) == pytest.approx(1500, abs=5)


def test_exact_max_depth(dtr_workload):
    assert dtr_workload.tree.depth() == 49


def test_lmbe_shallow_depth():
    workload = TraceGenerator(DatasetProfile.lmbe(num_nodes=1200, scale=2e-5)).generate()
    assert workload.tree.depth() == 9


def test_hot_set_size(dtr_workload):
    expected = round(0.01 * 1500)
    assert len(dtr_workload.hot_nodes) == pytest.approx(expected, abs=2)


def test_tree_is_valid(dtr_workload):
    check_structure(dtr_workload.tree)


# ----------------------------------------------------------------------
# Generated trace properties
# ----------------------------------------------------------------------
def test_trace_length(dtr_workload):
    assert len(dtr_workload.trace) == dtr_workload.profile.num_operations


def test_operation_mix_close_to_table2(dtr_workload):
    breakdown = dtr_workload.trace.operation_breakdown()
    assert breakdown[OpType.READ] == pytest.approx(0.677, abs=0.03)
    assert breakdown[OpType.WRITE] == pytest.approx(0.261, abs=0.03)
    assert breakdown[OpType.UPDATE] == pytest.approx(0.061, abs=0.02)


def test_hot_hit_fraction_close_to_target(dtr_workload):
    assert dtr_workload.hot_hit_fraction() == pytest.approx(0.83, abs=0.04)


def test_timestamps_monotonic(dtr_workload):
    stamps = [r.timestamp for r in dtr_workload.trace.records]
    assert all(b >= a for a, b in zip(stamps, stamps[1:]))


def test_all_paths_resolvable(dtr_workload):
    tree = dtr_workload.tree
    assert all(tree.lookup(r.path) is not None for r in dtr_workload.trace.records)


def test_num_clients_must_be_positive():
    # The client draw is a getrandbits rejection loop: with no client to
    # draw, it would never end.
    with pytest.raises(ValueError):
        TraceGenerator(DatasetProfile.lmbe(num_nodes=1200, scale=2e-5), num_clients=0)


def test_client_ids_in_range():
    workload = TraceGenerator(
        DatasetProfile.lmbe(num_nodes=1200, scale=2e-5), num_clients=7
    ).generate()
    assert all(0 <= r.client_id < 7 for r in workload.trace.records)


# ----------------------------------------------------------------------
# Popularity / update-cost backfill
# ----------------------------------------------------------------------
def test_popularity_matches_trace_counts(dtr_workload):
    tree, trace = dtr_workload.tree, dtr_workload.trace
    counts = {}
    for record in trace.records:
        counts[record.path] = counts.get(record.path, 0) + 1
    for path, count in list(counts.items())[:50]:
        assert tree.individual_popularity[tree.lookup(path)] == count


def test_total_popularity_equals_trace_length(dtr_workload):
    assert dtr_workload.tree.total_popularity == pytest.approx(
        len(dtr_workload.trace)
    )


def test_update_costs_include_floor(dtr_workload):
    tree = dtr_workload.tree
    assert all(tree.update_cost[n] >= STRUCTURAL_UPDATE_COST for n in dtr_workload.tree)


def test_update_costs_reflect_update_ops(dtr_workload):
    tree, trace = dtr_workload.tree, dtr_workload.trace
    updates = {}
    for record in trace.records:
        if record.op is OpType.UPDATE:
            updates[record.path] = updates.get(record.path, 0) + 1
    for path, count in list(updates.items())[:20]:
        assert tree.update_cost[tree.lookup(path)] == pytest.approx(
            STRUCTURAL_UPDATE_COST + count
        )


# ----------------------------------------------------------------------
# Determinism and caching
# ----------------------------------------------------------------------
def test_generation_deterministic():
    profile = DatasetProfile.ra(num_nodes=800, scale=6e-6)
    a = TraceGenerator(profile).generate()
    b = TraceGenerator(profile).generate()
    assert [r.path for r in a.trace.records] == [r.path for r in b.trace.records]


def test_load_workload_cached():
    profile = DatasetProfile.ra(num_nodes=800, scale=6e-6)
    a = load_workload(profile)
    b = load_workload(profile)
    assert a is b


def test_load_workload_keeps_only_the_current_recipe():
    """A run over many seeds holds one workload at a time: after ten
    distinct recipes the cache keeps none of the earlier nine alive."""
    base = DatasetProfile.lmbe(num_nodes=400, scale=2e-6)
    refs = []
    for seed in range(10):
        workload = load_workload(replace(base, seed=seed))
        refs.append(weakref.ref(workload))
        assert load_workload(replace(base, seed=seed)) is workload
    del workload
    gc.collect()
    assert [ref() is not None for ref in refs] == [False] * 9 + [True]


def test_drift_shifts_hot_ranking():
    profile = DatasetProfile.dtr(num_nodes=1500, scale=2e-4)
    workload = TraceGenerator(profile).generate()
    bounds = round_bounds(len(workload.trace), profile.drift_phases)
    first = workload.trace.slice(bounds[0], bounds[1])
    last = workload.trace.slice(bounds[-2], bounds[-1])

    def top_paths(piece):
        counts = {}
        for record in piece.records:
            counts[record.path] = counts.get(record.path, 0) + 1
        return {p for p, _ in sorted(counts.items(), key=lambda kv: -kv[1])[:10]}

    # Diurnal drift: the hottest paths at the end differ from the start.
    assert top_paths(first) != top_paths(last)


# ----------------------------------------------------------------------
# The generated bytes, pinned
# ----------------------------------------------------------------------
def generated_digest(workload) -> str:
    """SHA-256 over everything ``generate()`` decides: each record's
    timestamp (``repr``, so every bit), op, path and client; each node's id,
    path, kind, ``p'``, ``p`` and ``u``; the hot set and the late paths."""
    h = hashlib.sha256()
    tree = workload.tree
    for r in workload.trace.records:
        h.update(f"{r.timestamp!r} {r.op.value} {r.path} {r.client_id}\n".encode())
    for n in workload.tree:
        h.update(
            f"{n} {tree.path(n)} {tree.is_directory(n)} {tree.individual_popularity[n]!r} "
            f"{tree.popularity[n]!r} {tree.update_cost[n]!r}\n".encode()
        )
    h.update(" ".join(tree.path(n) for n in workload.hot_nodes).encode())
    h.update(b"\n" + " ".join(workload.late_created_paths).encode())
    return h.hexdigest()[:16]


PINNED_PROFILES = {
    "dtr": DatasetProfile.dtr(num_nodes=1500, scale=1e-4),
    "lmbe": DatasetProfile.lmbe(num_nodes=1200, scale=2e-5),
    "ra": DatasetProfile.ra(num_nodes=1000, scale=2e-5),
    "ra_creates": replace(DatasetProfile.ra(num_nodes=1000, scale=2e-5), create_fraction=0.05),
}

#: Recorded before the generator's hot loops were inlined; every RNG draw,
#: float and node id must come out the same on every supported interpreter.
PINNED_DIGESTS = {
    "dtr": "0a86d369a9202826",
    "lmbe": "26d660fe91f4d824",
    "ra": "8e4514ed322ce319",
    "ra_creates": "26e14fdedbff6500",
}


@pytest.mark.parametrize("name", sorted(PINNED_PROFILES))
def test_generated_bytes_are_pinned(name):
    workload = TraceGenerator(PINNED_PROFILES[name]).generate()
    if name == "ra_creates":
        assert workload.late_created_paths  # _mark_creates ran
    assert generated_digest(workload) == PINNED_DIGESTS[name]


#: sha256 (first 16 hex digits) of each pinned profile's trace file, as
#: ``dumps_trace`` writes it: the saved form of the same trace, pinned apart
#: from the in-memory layout the trace is held in.
PINNED_TRACE_FILE_DIGESTS = {
    "dtr": "0d1e19eb9f1c88c8",
    "lmbe": "080f85f64760520c",
    "ra": "30f225cecb73e0c9",
    "ra_creates": "2a8de890b492c6c0",
}


@pytest.mark.parametrize("name", sorted(PINNED_PROFILES))
def test_trace_file_bytes_are_pinned(name):
    text = dumps_trace(TraceGenerator(PINNED_PROFILES[name]).generate().trace)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == PINNED_TRACE_FILE_DIGESTS[name]


# ----------------------------------------------------------------------
# What a generated trace keeps
# ----------------------------------------------------------------------
def trace_bytes_per_op(profile) -> float:
    """Bytes a generated trace retains per op once its workload is gone,
    beyond its distinct path strings (the tree's own, shared)."""
    tracemalloc.start()
    try:
        trace = TraceGenerator(profile).generate().trace
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    path_bytes = sum(map(sys.getsizeof, {record.path for record in trace}))
    return (retained - path_bytes) / len(trace)


def generation_transient_bytes(profile) -> int:
    """How far ``generate()``'s tracemalloc peak rises above what its
    workload retains: the temporaries set-up holds at its worst moment."""
    gc.collect()
    tracemalloc.start()
    try:
        workload = TraceGenerator(profile).generate()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del workload
    return peak - retained


def test_generation_holds_at_most_2_333_000_transient_bytes():
    """LMBE, 20 k nodes, 40 k ops. The gate is the highest reading of the
    generator before the trace was counted in one pass (2 241 375 B on
    CPython 3.10, 2 326 480 on 3.11, 2 333 000 on 3.12 and 3.13); it reads
    1.89-2.15 MB now. Keeping the renumbering's ``Counter`` alive while the
    next temporary is built reads 2.48-2.74 MB."""
    profile = DatasetProfile.lmbe(20_000).scaled(num_operations=40_000)
    assert generation_transient_bytes(profile) <= 2_333_000


def test_a_generated_trace_retains_at_most_24_bytes_per_op():
    """Four columns (8 + 1 + 4 + 4 B per op) and one table slot per
    distinct path: ~18 B per op, where a list of records held ~96."""
    assert trace_bytes_per_op(DatasetProfile.dtr(num_nodes=2000, scale=6e-4)) <= 24
