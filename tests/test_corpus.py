"""The committed chaos regression corpus stays green and replayable.

``tests/corpus/*.json`` pins minimized fault schedules that historically
exposed (or nearly exposed) an invariant violation. Every case here must
replay clean through the deterministic simulator — with the full history
audit on — and through the live asyncio transport. A red replay means a
regression of the exact bug class the case was promoted for.
"""

import json
import os
import pathlib
import re

import pytest

from repro.chaos import CorpusCase, load_corpus, save_case
from repro.cli import build_parser

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
        argv = case.replay_command().split()
        assert argv[0] == "repro"
        args = parser.parse_args(argv[1:])
        assert args.command == "chaos"
        assert args.history
        assert args.seed_base == case.seed and args.seeds == 1
        assert args.fault == case.faults


@pytest.mark.parametrize("case", CORPUS, ids=case_ids(CORPUS))
def test_corpus_replays_green_in_the_simulator(case, tmp_path):
    replayed = case.run_sim(store_dir=str(tmp_path))
    assert replayed.violations == []
    assert replayed.operations + replayed.failed_operations > 0
    assert replayed.history is not None
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
    """`chaos`, `hunt`, the corpus and the live leg all get their workload,
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
    # One function assembles a replay command — and it is never `simulate`,
    # which neither quiesces nor audits.
    assert users(r"""["']repro (chaos|simulate)\b""") == ["chaos/corpus.py"]
    # The chaos side regenerates its seeded workload and builds its live
    # cluster config once (cli.py's own are the generic --seed override and
    # the serve/validate flag mapping).
    assert users(r"\bload_workload\(", "chaos") == ["chaos/corpus.py"]
    assert users(r"\bLiveConfig\(", "chaos") == ["chaos/corpus.py"]
    # The --ops / --max-ops truncation is one helper.
    assert users(r"\.trace\.slice\(0,") == ["traces/generator.py"]
