"""The committed chaos regression corpus stays green and replayable.

``tests/corpus/*.json`` pins minimized fault schedules that historically
exposed (or nearly exposed) an invariant violation. Every case here must
replay clean through the deterministic simulator and through the live
asyncio transport, judged by the one run audit (``check_run``). A red
replay means a regression of the exact bug class the case was promoted for.
"""

import dataclasses
import json
import os
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.chaos import CorpusCase, load_corpus, save_case
from repro.cli import build_parser, recipe_from
from repro.storage import STORE_BACKENDS
from repro.traces import PROFILES

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_corpus(CORPUS_DIR)


def case_ids(cases):
    return [case.name for case in cases]


def test_corpus_is_committed_and_nonempty():
    assert len(CORPUS) >= 3


def test_corpus_names_match_content_hashes():
    for case in CORPUS:
        assert case.name == f"case-{case.content_hash()[:10]}"


def test_corpus_round_trips_through_json(tmp_path):
    for case in CORPUS:
        path = save_case(case, str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            reloaded = CorpusCase.from_dict(json.load(handle))
        assert reloaded.to_dict() == case.to_dict()


def test_corpus_rejects_unknown_trace_profile():
    with pytest.raises(ValueError, match="unknown trace profile"):
        CorpusCase(
            scheme="d2-tree", trace="nope", nodes=10, scale=1.0, seed=0,
            num_servers=3, num_monitors=1, faults=[],
        )


def test_replay_commands_parse_through_the_cli():
    parser = build_parser()
    for case in CORPUS:
        args = parser.parse_args(case.to_argv())
        assert args.command == "hunt"
        assert args.seed_base == case.seed and args.seeds == 1
        assert args.fault == case.faults


@pytest.mark.parametrize("case", CORPUS, ids=case_ids(CORPUS))
def test_corpus_replays_green_in_the_simulator(case, tmp_path):
    replayed = case.run_sim(store_dir=str(tmp_path))
    assert replayed.violations == []
    assert replayed.operations + replayed.failed_operations > 0
    assert replayed.history["ok"] == replayed.operations


@pytest.mark.parametrize("case", CORPUS, ids=case_ids(CORPUS))
def test_corpus_replays_green_through_the_live_transport(case, tmp_path):
    report = case.run_live(socket_dir=str(tmp_path))
    assert report.violations == []
    assert report.acked + report.failed + report.indeterminate == (
        report.operations
    )


# ----------------------------------------------------------------------
# Structure: a second recipe cannot quietly grow back
# ----------------------------------------------------------------------
def test_a_chaos_run_is_described_in_exactly_one_place():
    """`hunt`, the corpus and the live leg all get their workload,
    schedule, replay command and live config from `CorpusCase`."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

    def users(pattern, under=""):
        return sorted(
            str(path.relative_to(src))
            for path in (src / under).rglob("*.py")
            if re.search(pattern, path.read_text())
        )

    # The schedule generator has one caller outside its own module.
    assert users(r"\bgenerate_plan\(") == [
        "chaos/corpus.py", "chaos/schedule.py",
    ]
    # One function assembles the replay arguments — and they are never
    # `simulate`'s, which neither quiesces nor audits.
    assert users(r"""["'](hunt|simulate)["'], ["']--""") == ["chaos/corpus.py"]
    assert users(r"""["']repro (hunt|simulate)\b""") == []
    # The chaos side regenerates its seeded workload and builds its live
    # cluster config once (cli.py's own are the generic --seed override and
    # the serve/validate flag mapping).
    assert users(r"\bload_workload\(", "chaos") == ["chaos/corpus.py"]
    assert users(r"\bLiveConfig\(", "chaos") == ["chaos/corpus.py"]
    # The --ops / --max-ops truncation is one helper.
    assert users(r"\.trace\.slice\(0,") == ["traces/generator.py"]


# ----------------------------------------------------------------------
# to_argv: the replay line parses back to the case it was rendered from
# ----------------------------------------------------------------------
#: Valid --fault specs; recipe_from keeps them verbatim (the plan parses).
SPECS = [
    "crash:1@ops=50", "recover:1@t=0.5", "kill9:2@ops=100",
    "partition:{0,1}|{2,m0}@ops=20", "heal:*@t=1.5", "loss:2@ops=80:p0.4",
    "fail_slow:0@ops=10:x8", "monitor_crash:0@ops=60",
]

cases = st.builds(
    CorpusCase,
    scheme=st.sampled_from(registry.available()),
    trace=st.sampled_from(sorted(PROFILES)),
    nodes=st.integers(1, 10**6),
    # The replay line prints the scale with %g: a case's scale is one that
    # prints exactly, as every flag-built one does.
    scale=st.floats(1e-9, 1.0).map(lambda scale: float(f"{scale:g}")),
    seed=st.integers(0, 10**6),
    num_servers=st.integers(1, 64),
    num_monitors=st.integers(1, 9),
    # None generates the schedule from the seed; hunt spells "no faults"
    # no other way, so an empty list has no replay line of its own.
    faults=st.none() | st.lists(st.sampled_from(SPECS), min_size=1),
    ops=st.none() | st.integers(1, 10**6),
    store=st.sampled_from(STORE_BACKENDS),
    origin=st.text(max_size=5),
)


def test_every_committed_case_parses_back_from_its_argv():
    parser = build_parser()
    for case in CORPUS:
        assert recipe_from(parser.parse_args(case.to_argv())) == case


@given(cases)
@settings(max_examples=200, deadline=None)
def test_to_argv_parses_back_to_the_same_recipe(case):
    assert recipe_from(build_parser().parse_args(case.to_argv())) == case


def test_a_case_chaos_cannot_run_has_no_replay_line():
    case = CORPUS[0]
    for change in ({"max_retries": 4}, {"rate": 500.0}, {"seed": None},
                   {"heartbeat_timeout": 0.25}, {"scheme": None}):
        with pytest.raises(ValueError, match="no hunt replay"):
            dataclasses.replace(case, **change).to_argv()


def test_knobs_reach_the_json_only_when_they_differ_from_the_corpus():
    case = CORPUS[0]
    knobs = {"heartbeat_interval", "heartbeat_timeout", "lease_timeout",
             "max_retries", "rate", "request_timeout", "transport"}
    assert not knobs & set(case.to_dict())
    tuned = dataclasses.replace(case, max_retries=4, lease_timeout=None, name="")
    assert knobs & set(tuned.to_dict()) == {"max_retries", "lease_timeout"}
    assert tuned.name != case.name
    assert CorpusCase.from_dict(tuned.to_dict()) == tuned


def test_the_recipe_is_the_only_builder_of_run_configs():
    """A run's `SimulationConfig` and `(LiveConfig, LoadConfig)` come from
    `CorpusCase.sim_config` / `live_configs`; elsewhere in `repro` only the
    `config or X()` fallbacks construct one."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    built = {}
    for path in sorted(src.rglob("*.py")):
        for line in path.read_text().splitlines():
            line = re.sub(r"\bor (SimulationConfig|LiveConfig|LoadConfig)\(\)",
                          "", line)
            for name in re.findall(r"\b(SimulationConfig|LiveConfig|LoadConfig)\(",
                                   line):
                built.setdefault(str(path.relative_to(src)), []).append(name)
    assert built == {
        "chaos/corpus.py": ["SimulationConfig", "LiveConfig", "LoadConfig"],
    }
