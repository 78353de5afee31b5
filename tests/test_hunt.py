"""The adversarial chaos fuzzer: shrinker unit tests + the planted bug.

The shrinker is probed with synthetic predicates first (no simulator), so
its ddmin/cluster/trigger reductions are pinned cheaply. The end-to-end
section then plants a real bug — kill9 recovery replay silently losing the
newest acknowledged WAL record — behind a monkeypatch and asserts the full
pipeline: ``run_hunt`` finds it under generated schedules, shrinks the
counterexample to a single fault event, emits an exact replay command, the
promoted corpus case reproduces it, and the whole report is byte-identical
across repeated hunts with the same seeds.
"""

import json

import pytest

from repro.chaos import CorpusCase, load_corpus, run_hunt
from repro.chaos.shrink import shrink_plan
from repro.cli import main
from repro.simulation import FaultPlan
from repro.storage import WalStore


def plan(*specs):
    return FaultPlan.parse(list(specs))


NOISY = plan(
    "loss:1@ops=40:p0.5", "crash:0@ops=60", "kill9:2@ops=200",
    "recover:0@ops=240", "recover:1@ops=260", "delay:3@ops=80:d0.001",
    "drop_heartbeats:4@ops=120", "recover:4@ops=300",
)


def _kill9_probe(candidate, servers, monitors):
    """Fails iff a kill9 targeting server 2 survives in the plan."""
    return any(
        e.kind.value == "kill9" and e.server == 2 for e in candidate.events
    )


# ----------------------------------------------------------------------
# Shrinker mechanics (synthetic probes)
# ----------------------------------------------------------------------
def test_shrink_reduces_to_the_single_relevant_event():
    result = shrink_plan(NOISY, 6, 3, _kill9_probe)
    assert result is not None
    assert [e.kind.value for e in result.plan.events] == ["kill9"]
    assert result.num_servers == 3          # cluster shrunk to the floor
    assert result.num_monitors == 1
    # kill9 still targets server 2, so the cluster cannot shrink below 3.
    assert result.plan.events[0].server == 2
    assert any(step.startswith("ddmin:") for step in result.steps)


def test_shrink_tightens_ops_triggers():
    result = shrink_plan(NOISY, 6, 3, _kill9_probe)
    # The probe ignores the trigger entirely, so it tightens to zero.
    assert result.plan.events[0].at_ops == 0
    assert any(step.startswith("tighten:") for step in result.steps)


def test_shrink_returns_none_when_not_reproducing():
    assert shrink_plan(
        NOISY, 6, 3, lambda *_: False, initial_failure_known=False
    ) is None


def test_shrink_respects_the_probe_budget():
    calls = []

    def probe(candidate, servers, monitors):
        calls.append(1)
        return _kill9_probe(candidate, servers, monitors)

    result = shrink_plan(NOISY, 6, 3, probe, max_probes=5)
    assert result is not None
    assert result.truncated
    assert len(calls) <= 5
    # Even truncated, the result must still be a failing configuration.
    assert _kill9_probe(result.plan, result.num_servers, result.num_monitors)


def test_shrink_is_deterministic():
    a = shrink_plan(NOISY, 6, 3, _kill9_probe)
    b = shrink_plan(NOISY, 6, 3, _kill9_probe)
    assert a.to_dict() == b.to_dict()


def test_shrink_propagates_unexpected_probe_errors():
    def crashy(candidate, servers, monitors):
        if len(candidate.events) < 4:
            raise RuntimeError("probe blew up")
        return True

    with pytest.raises(RuntimeError):
        shrink_plan(NOISY, 6, 3, crashy)


# ----------------------------------------------------------------------
# End to end: the planted recovery bug
# ----------------------------------------------------------------------
@pytest.fixture()
def lossy_recovery(monkeypatch):
    """Plant the bug: kill9 recovery replay loses the newest acked record.

    The classic fsync-tail bug, scoped to real kill9 recoveries: whenever
    ``recover_server`` runs for a server whose volatile state is gone
    (``lost_volatile``), the replayed state silently drops its most recent
    acknowledged op. The independent durability ledger then flags the loss
    — but only on schedules that actually kill9 a server with acked ops.
    """
    import repro.simulation.runner as runner_mod

    current = {}
    real_init = runner_mod.ClusterSimulator.__init__

    def spy_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        current["sim"] = self

    real_recover = WalStore.recover_server

    def lossy_recover(self, server):
        recovered = real_recover(self, server)
        state = recovered.state
        sim = current.get("sim")
        if (
            sim is not None
            and server < len(sim.servers)
            and sim.servers[server].lost_volatile
            and state.acked_ops
        ):
            state.acked_ops = state.acked_ops[:-1]
        return recovered

    monkeypatch.setattr(runner_mod.ClusterSimulator, "__init__", spy_init)
    monkeypatch.setattr(WalStore, "recover_server", lossy_recover)


def _recipe(store="memory"):
    return CorpusCase(
        scheme="d2-tree", trace="lmbe", nodes=900, scale=5e-5, seed=0,
        num_servers=6, num_monitors=3, faults=[], ops=400, store=store,
    )


def _hunt(tmp_path, sub="a"):
    store_dir = tmp_path / f"store-{sub}"
    store_dir.mkdir()
    return run_hunt(
        _recipe("wal"), [3], store_dir=str(store_dir), max_probes=150,
    )


def test_hunt_finds_shrinks_and_replays_planted_bug(
    lossy_recovery, tmp_path, capsys
):
    report = _hunt(tmp_path)
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert any("durability" in v for v in finding.violations)

    # Shrunk to a minimal counterexample: one kill9-family event.
    assert finding.shrink is not None
    assert len(finding.shrink.plan) <= 3
    assert not finding.shrink.truncated
    kinds = {e.kind.value for e in finding.shrink.plan.events}
    assert kinds <= {"kill9", "torn_write", "corrupt_record"}

    # The minimized corpus case reproduces the violation on its own.
    assert finding.minimized is not None
    replayed = finding.minimized.run_sim(str(tmp_path / "replay"))
    assert any("durability" in v for v in replayed.violations)

    # And carries the exact CLI replay command.
    assert finding.replay.startswith("repro chaos ")
    assert "--history" not in finding.replay
    assert "--fault" in finding.replay
    assert finding.replay == finding.minimized.replay_command()
    for spec in finding.minimized.faults:
        assert spec in finding.replay
    # ... which, run as printed, reproduces the minimized verdict.
    assert main(finding.replay.split()[1:]) == 1
    err = capsys.readouterr().err
    for violation in replayed.violations:
        assert f"  - {violation}" in err


def test_hunt_is_byte_identical_across_runs(lossy_recovery, tmp_path):
    first = _hunt(tmp_path, "a").to_dict()
    second = _hunt(tmp_path, "b").to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_promote_writes_a_loadable_corpus_case(lossy_recovery, tmp_path):
    from repro.chaos import promote_findings

    report = _hunt(tmp_path)
    corpus_dir = tmp_path / "corpus"
    paths = promote_findings(report, str(corpus_dir))
    assert len(paths) == 1
    cases = load_corpus(str(corpus_dir))
    assert len(cases) == 1
    assert isinstance(cases[0], CorpusCase)
    assert cases[0].to_dict() == report.findings[0].minimized.to_dict()
    assert cases[0].origin.startswith("hunt seed=3")


def test_hunt_reports_clean_seed_without_plant(tmp_path):
    report = run_hunt(_recipe(), [3])
    assert report.ok
    case = report.cases[0]
    assert case.shrink is None and case.minimized is None
    assert case.history["ok"] == case.operations
    assert case.replay.startswith("repro chaos ")
    # An unshrunk case spells its generated schedule out.
    assert case.specs and case.replay.count("--fault") == len(case.specs)
    assert report.coverage  # generated schedule exercised some fault kinds


def test_hunt_records_sut_crash_as_finding(monkeypatch, tmp_path):
    def exploding_run_sim(*args, **kwargs):
        raise RuntimeError("simulator went down")

    monkeypatch.setattr(CorpusCase, "run_sim", exploding_run_sim)
    report = run_hunt(_recipe(), [0], shrink=False)
    assert len(report.findings) == 1
    assert report.findings[0].violations == [
        "crash: RuntimeError: simulator went down"
    ]
