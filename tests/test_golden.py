"""Byte-identity regression against committed goldens.

The partition-tolerance machinery (FaultFabric, MonitorGroup, epoch fencing)
must cost *nothing* on a fault-free run: no RNG draws, no latency, no
serialization changes. The perfect-network goldens were captured with
`repro simulate --json` and the simulator must keep reproducing them byte
for byte.

The faulted goldens pin the rest of the model — retries and backoff,
failure detection, re-homing and rejoin, the lossy fabric, the WAL store,
the operation history, telemetry and spans. They were captured from the
per-op event-heap engine the replay loop replaced (PR 20) and are what held
the two equal while it was built; a diff here is a model change.
"""

import hashlib
import io
import json
import pathlib

import pytest

from repro import registry
from repro.cli import build_parser, main, recipe_from
from repro.obs import Telemetry, write_jsonl
from repro.simulation import FaultPlan, SimulationConfig
from repro.simulation.runner import simulate

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    (
        "perfect_network_all.json",
        [
            "simulate", "--trace", "dtr", "--nodes", "1200",
            "--scale", "5e-5", "--seed", "11", "--servers", "6", "--json",
        ],
    ),
    (
        # Captured from the string-keyed per-op planner the routing engine
        # replaced: freezes that planner's D2 routing decisions.
        "perfect_network_d2.json",
        [
            "simulate", "--trace", "lmbe", "--nodes", "800",
            "--scale", "4e-5", "--seed", "3", "--servers", "5",
            "--scheme", "d2-tree", "--json",
        ],
    ),
    # The durability subsystem must also cost nothing when disabled: an
    # explicit `--store memory` serializes byte-identically to a run that
    # never mentions a store (no "durability" key, no counter drift).
    (
        "perfect_network_all.json",
        [
            "simulate", "--trace", "dtr", "--nodes", "1200",
            "--scale", "5e-5", "--seed", "11", "--servers", "6",
            "--store", "memory", "--json",
        ],
    ),
]


def _assert_output_matches(capsys, golden, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / golden).read_text()
    assert json.loads(out) == json.loads(expected)  # readable diff first
    assert out == expected  # then the full byte-identity contract


@pytest.mark.parametrize("golden,argv", CASES, ids=[c[0] for c in CASES])
def test_fault_free_output_matches_golden(capsys, golden, argv):
    _assert_output_matches(capsys, golden, argv)


# ----------------------------------------------------------------------
# Faulted runs
# ----------------------------------------------------------------------
_FAULTED = [
    "simulate", "--trace", "dtr", "--nodes", "1500", "--scale", "2e-4",
    "--seed", "5", "--servers", "6", "--monitors", "3",
]
_DEGRADE = [
    "fail_slow:2@ops=1500:x4", "loss:3@ops=3000:p0.3", "recover:3@ops=4800",
    "recover:2@ops=5200", "crash:4@t=1.2", "recover:4@t=1.6",
]
#: crash / recover / fail_slow / loss, op-count- and time-triggered, with a
#: retry budget small enough that some operations fail.
_MEMORY_FAULTS = ["crash:1@ops=700", "recover:1@ops=2600", *_DEGRADE]
#: The same with volatile-state loss and a torn WAL tail.
_WAL_FAULTS = [
    "kill9:1@ops=700", "recover:1@ops=2600", *_DEGRADE,
    "torn_write:5@ops=3500", "recover:5@ops=5000",
]


def _faults(specs):
    return [arg for spec in specs for arg in ("--fault", spec)]


FAULTED_CASES = [
    (   # every scheme, memory store
        "faulted_sim.json",
        [*_FAULTED, *_faults(_MEMORY_FAULTS), "--max-retries", "3", "--json"],
    ),
    (
        "faulted_wal.json",
        [*_FAULTED, "--scheme", "d2-tree", "--store", "wal",
         *_faults(_WAL_FAULTS), "--json"],
    ),
    (
        "hunt_history.json",
        ["hunt", "--no-shrink", "--seeds", "3", "--ops", "600", "--json"],
    ),
]


@pytest.mark.parametrize(
    "golden,argv", FAULTED_CASES, ids=[c[0] for c in FAULTED_CASES]
)
def test_faulted_output_matches_golden(capsys, golden, argv):
    _assert_output_matches(capsys, golden, argv)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def faulted_full_jsonl(tmp_path_factory):
    """The full-telemetry JSONL of the durable faulted run, sampled 1 in
    10, as the CLI writes it."""
    out = tmp_path_factory.mktemp("faulted") / "full.jsonl"
    assert main([
        *_FAULTED, "--scheme", "d2-tree", "--store", "wal",
        *_faults(_WAL_FAULTS), "--trace-sample", "10",
        "--metrics-out", str(out),
    ]) == 0
    return out.read_text()


def test_faulted_telemetry_and_span_jsonl_match_golden(faulted_full_jsonl):
    """The full-telemetry JSONL of the durable faulted run (as the CLI
    writes it) and the span-only JSONL of the memory one: every event,
    sample, metric and span, by digest."""
    expected = json.loads((GOLDEN / "faulted_jsonl.json").read_text())
    full = faulted_full_jsonl
    assert full.count("\n") == expected["full_records"]
    assert _sha256(full) == expected["full_sha256"]

    args = build_parser().parse_args(_FAULTED)
    telemetry = Telemetry(enabled=False)
    result = simulate(
        registry.create("d2-tree"), recipe_from(args).workload(), args.servers,
        SimulationConfig(
            fault_plan=FaultPlan.parse(_MEMORY_FAULTS), num_monitors=3,
            max_retries=3, seed=args.seed, trace_sample=10,
        ),
        telemetry=telemetry,
    )
    spans = io.StringIO()
    write_jsonl(telemetry, spans, summary=result.to_dict())
    assert spans.getvalue().count("\n") == expected["span_records"]
    assert _sha256(spans.getvalue()) == expected["span_sha256"]


def test_spans_and_op_events_share_one_op_id_space(faulted_full_jsonl):
    """A sampled root span's ``op`` names the ``op_start`` of the same
    operation: same path, started at the span's ``t0``. Both are read off
    the one op log, keyed by trace position."""
    records = [json.loads(line) for line in faulted_full_jsonl.splitlines()]
    starts = {
        r["op"]: r for r in records
        if r["kind"] == "event" and r["event"] == "op_start"
    }
    roots = [
        r for r in records
        if r["kind"] == "span" and r["name"] == "client_submit"
    ]
    assert len(starts) > len(roots) > 0
    mismatched = [
        root["op"] for root in roots
        if root["op"] not in starts
        or starts[root["op"]]["path"] != root["path"]
        or starts[root["op"]]["t"] != root["t0"]
    ]
    assert mismatched == []
