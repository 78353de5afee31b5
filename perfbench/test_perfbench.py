"""The harness's own tests (``python -m pytest perfbench -q``; not in tier-1).

A shrunken pass over every workload asserts that each metric named in
``BENCHMARK.json`` comes out with its unit; a planted failed check must
turn into a non-zero exit; ``compare.py`` must call a regression a
regression and noise noise.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as harness  # noqa: E402  (puts src/ on sys.path)
import compare  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02
SECONDS = 0.05
BENCH = harness.load_benchmark()


@pytest.fixture(autouse=True)
def shrunken_workloads_in_repo_root(monkeypatch):
    """Every workload at a fiftieth of its size, so a pass takes a second."""
    monkeypatch.chdir(harness.ROOT)  # scratch paths are relative to it
    for name, spec in workloads.SPECS.items():
        monkeypatch.setitem(workloads.SPECS, name, dataclasses.replace(
            spec,
            nodes=max(600, int(spec.nodes * SCALE)),
            ops=max(400, int(spec.ops * SCALE)),
        ))


def test_benchmark_json_names_the_workloads_the_harness_has():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.SPECS)
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_every_declared_metric_is_emitted_with_its_unit(name):
    record = harness.run_one(name, seed=3, seconds=SECONDS, trace=False)
    assert record["correct"], record["checks"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert {n: m["unit"] for n, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(m["value"] > 0 for m in record["metrics"].values())
    line = json.loads(harness.contract_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())

    traced = harness.run_one(name, seed=3, seconds=SECONDS, trace=True)
    assert traced["correct"], traced["checks"]
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    measured = {n for n, m in traced["metrics"].items() if m["value"] != 0}
    expected = "runner.us_per_op" if workloads.SPECS[name].kind == "sim" else "wire.codec_us_per_hop"
    assert expected in measured
    spans = os.path.join(workloads.OUT, f"trace_{name}.jsonl")
    with open(spans) as handle:
        first = json.loads(handle.readline())
    assert {"id", "parent", "workload", "name", "start", "end"} <= set(first)


def test_sim_attribution_accounts_for_the_run():
    traced = harness.run_one("sim_replay", seed=3, seconds=SECONDS, trace=True)
    layer = {n: m["value"] for n, m in traced["metrics"].items()}
    adjust = layer["core.adjust_share"] * layer["runner.us_per_op"]
    parts = (
        layer["traces.decode_us_per_op"] + layer["routing.plan_us_per_op"]
        + adjust + layer["runner.loop_us_per_op"]
    )
    assert parts == pytest.approx(layer["runner.us_per_op"], rel=0.10)


def test_a_region_is_corrected_by_the_pace_measured_around_it(monkeypatch):
    """On a host running the kernel 1.25x slower than its reference before
    the region and 1.75x after, ten seconds of wall clock are 10 / 1.5."""
    kernel = pace.Pace(walk_weight=0.0)
    slow = iter((1.25, 1.75))
    monkeypatch.setattr(kernel, "_tight", lambda: next(slow))
    clock = iter((100.0, 110.0))
    monkeypatch.setattr(pace.time, "perf_counter", lambda: next(clock))
    with kernel.timed() as timing:
        pass
    assert timing.wall == pytest.approx(10.0)
    assert timing.slowness == pytest.approx(1.5)
    assert timing.corrected == pytest.approx(10.0 / 1.5)
    assert kernel.host_speed() == pytest.approx(1 / 1.5)


def test_a_spin_leaves_the_collector_as_it_found_it():
    import gc

    kernel = pace.Pace(walk_weight=0.5)
    assert gc.isenabled()
    assert kernel.spin() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        kernel.spin()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_planted_failed_check_exits_non_zero(monkeypatch, capsys):
    counter = itertools.count()
    monkeypatch.setattr(workloads, "digest_of", lambda results: f"planted-{next(counter)}")
    code = harness.main(["--workload", "sim_replay", "--seconds", str(SECONDS), "--trace", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "digest differs between repeats" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


def test_without_the_program_it_exits_non_zero_and_prints_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "SRC", str(tmp_path))
    assert harness.main(["--workload", "sim_replay"]) == 2
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# compare.py on hand-made inputs
# ----------------------------------------------------------------------
def _metric(value, low, high):
    return {"value": value, "min": low, "max": high}


def test_verdicts():
    parent = _metric(100.0, 99.0, 101.0)
    assert compare.verdict(parent, _metric(85.0, 84.0, 86.0), "higher", 0.08) == "regressed"
    assert compare.verdict(parent, _metric(115.0, 114.0, 116.0), "higher", 0.08) == "improved"
    assert compare.verdict(parent, _metric(101.0, 100.0, 102.0), "higher", 0.08) == "unchanged"
    assert compare.verdict(parent, _metric(115.0, 114.0, 116.0), "lower", 0.08) == "regressed"
    # Wide, interleaving repeats: the medians differ by 10 % and settle nothing.
    noisy = _metric(100.0, 80.0, 120.0)
    assert compare.verdict(noisy, _metric(90.0, 75.0, 110.0), "higher", 0.08) == "unresolved"
    # Just as wide, but every repeat of the change is worse than every one of the parent.
    assert compare.verdict(noisy, _metric(60.0, 50.0, 70.0), "higher", 0.08) == "regressed"


def _results(ops_per_s, digest="aaaa"):
    metrics = {m["name"]: _metric(10.0, 10.0, 10.0) for m in BENCH["end_to_end"]}
    metrics["ops_per_s"] = _metric(ops_per_s, ops_per_s * 0.99, ops_per_s * 1.01)
    run = {"attempted": 1000, "failed": 0, "digest": digest, "metrics": metrics}
    return {"meta": {"seed": 7}, "workloads": {"sim_replay": run}}


def test_compare_flags_a_regression_and_a_model_change(tmp_path, capsys):
    paths = {}
    for label, results in {
        "parent": _results(100.0),
        "same": _results(100.5),
        "slower": _results(50.0, digest="bbbb"),
    }.items():
        paths[label] = str(tmp_path / f"{label}.json")
        with open(paths[label], "w") as handle:
            json.dump(results, handle)

    assert compare.main([paths["parent"], paths["slower"]]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "model output changed" in out
    assert compare.main([paths["parent"], paths["same"]]) == 0
    assert compare.main(["--self", paths["parent"], paths["same"]]) == 0
    assert compare.main(["--self", paths["parent"], paths["slower"]]) == 1
    assert "DISAGREE" in capsys.readouterr().out


def test_compare_counts_new_failures_as_a_regression():
    parent, change = _results(100.0), copy.deepcopy(_results(100.0))
    change["workloads"]["sim_replay"]["failed"] = 5
    rows = compare.compare(parent, change, self_check=False)
    assert [r["verdict"] for r in rows if r["metric"] == "failed_share"] == ["regressed"]
