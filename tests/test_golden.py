"""Byte-identity regression against committed perfect-network goldens.

The partition-tolerance machinery (SimNetwork, MonitorGroup, epoch fencing)
must cost *nothing* on a fault-free run: no RNG draws, no latency, no
serialization changes. These goldens were captured with `repro simulate
--json` and the simulator must keep reproducing them byte for byte.
"""

import json
import pathlib

import pytest

from repro.cli import main

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


@pytest.mark.parametrize("golden,argv", CASES, ids=[c[0] for c in CASES])
def test_fault_free_output_matches_golden(capsys, golden, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / golden).read_text()
    assert json.loads(out) == json.loads(expected)  # readable diff first
    assert out == expected  # then the full byte-identity contract
