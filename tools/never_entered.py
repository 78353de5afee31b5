"""Hold every ``src/repro`` function to being entered by what the system runs.

Runs, in this one process under a ``sys.setprofile`` hook, the CLI verbs with
the flags CI gives them, every example under ``examples/``, ``pytest
experiments`` and ``pytest perfbench``; then lists every module-level function
and method of ``src/repro`` whose code never ran, grouped by module, each with
its line count and the reason :data:`REACHED_BY` gives for keeping it. Exits
1 when a never-entered function has no reason, or when a ``REACHED_BY`` key is
entered now or names no function (a few minutes on a 2-core host).

    PYTHONPATH=src python tools/never_entered.py

A function a test alone reaches is listed: what the system does is what the
verbs, examples, experiments and perfbench run. An abstract method has no
body to enter and is not counted.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The live flags CI's serve-smoke legs share.
_LIVE = (
    "--trace dtr --nodes 4000 --scale 3e-4 --max-ops 10000 --rate 4000"
    " --servers 3 --monitors 3 --seed 7"
)

#: ``repro`` argv lines, ``{tmp}`` standing for a scratch directory: the nine
#: verbs, each with CI's flags where CI runs it.
VERBS = (
    "evaluate --trace dtr --nodes 2000 --scale 1e-4 --json",
    "evaluate --trace dtr --nodes 2000 --scale 1e-4",
    "simulate --trace dtr --nodes 2000 --scheme d2-tree --fault crash:2@ops=500 --seed 7"
    " --metrics-out {tmp}/run.jsonl --metrics-prom {tmp}/run.prom",
    "report {tmp}/run.jsonl --csv {tmp}/run",
    "simulate --trace dtr --nodes 2000 --scheme d2-tree --seed 7 --trace-sample 10"
    " --fault crash:2@ops=500 --fault recover:2@ops=2000 --metrics-out {tmp}/traced.jsonl",
    "report {tmp}/traced.jsonl --critical-path --critical-json {tmp}/critical.json"
    " --perfetto {tmp}/trace.json",
    "simulate --trace ra --nodes 2000 --scale 1e-4 --seed 7 --scheme d2-tree --store wal"
    " --max-retries 0 --trace-sample 10 --fault kill9:1@ops=400 --fault recover:1@ops=900"
    " --metrics-out {tmp}/failed.jsonl",
    "report {tmp}/failed.jsonl --perfetto {tmp}/failed-trace.json",
    "simulate --trace ra --nodes 2000 --scale 1e-4 --seed 7 --store wal --json"
    " --fault kill9:1@ops=400 --fault recover:1@ops=900",
    "simulate --trace ra --nodes 2000 --scale 1e-4 --seed 7 --store wal --json --scheme d2-tree"
    " --fault kill9:1@ops=400 --fault corrupt_record:2@ops=500 --fault recover:1@ops=900"
    " --fault recover:2@ops=1000",
    "generate --trace ra --nodes 2000 --scale 1e-4 --seed 7 {tmp}/gen.tsv",
    "stats --input {tmp}/gen.tsv",
    "stats --trace ra --nodes 2000 --scale 1e-4 --seed 7",
    "figure fig5 --nodes 2000",
    "figure fig6 --nodes 2000",
    "figure fig7 --nodes 2000 --chart",
    "hunt --no-shrink --seeds 5 --ops 2000",
    "hunt --no-shrink --seeds 3 --ops 1500 --store wal --json",
    "hunt --seeds 4 --ops 1500 --trace lmbe --nodes 2000 --scale 1e-4 --store wal",
    "hunt --seeds 2 --ops 800 --json",
    f"serve {_LIVE} --transport unix --json --fault crash:1@ops=2000 --fault recover:1@ops=6000",
    f"serve {_LIVE} --transport unix --json --fault fail_slow:1@ops=2000:x8"
    " --fault drop_heartbeats:2@ops=3000 --fault recover:1@ops=5000 --fault recover:2@ops=6000",
    f"serve {_LIVE} --transport unix --json --fault drop_heartbeats:1@ops=2000"
    " --fault recover:1@ops=6000",
    f"serve {_LIVE} --transport unix --json --fault partition:{{1}}|{{0,2,m0,m1,m2}}@ops=2000"
    " --fault recover:1@ops=4000 --fault heal:{1}|{0,2,m0,m1,m2}@ops=7000",
    f"serve {_LIVE} --transport unix --json --fault monitor_crash:0@ops=2000"
    " --fault monitor_recover:0@ops=3200",
    "serve --trace dtr --nodes 1000 --max-ops 1500 --servers 4 --rate 3000 --transport tcp",
    "serve --trace dtr --nodes 1000 --max-ops 1500 --servers 4 --rate 3000 --scheme static-hash"
    " --json --fault delay:1@ops=300:d0.002 --fault recover:1@ops=1000",
    "serve --trace dtr --nodes 1000 --max-ops 1500 --servers 4 --rate 3000 --max-retries 2"
    " --json --fault loss:1@ops=300:p0.5 --fault recover:1@ops=1000",
    "validate --trace dtr --nodes 4000 --scale 3e-4 --max-ops 5000 --rate 4000 --servers 3"
    " --monitors 3 --seed 7 --max-retries 4 --out {tmp}/validate.json",
)


_HUNT = (
    "reached only on a finding:"
    " tests/test_hunt.py::test_hunt_finds_shrinks_and_replays_planted_bug"
)

#: ``module:Qualified.name`` -> why a function no run above enters stays. A
#: reason is one of: error handling of outside input or of a failed call
#: (naming the tier-1 test that reaches it); a reference a tier-1 test holds
#: other code to; the planted-bug hunt test; a named ROADMAP item.
REACHED_BY: Dict[str, str] = {
    # The shrinker and the rest of a hunt's finding path.
    "repro.chaos.shrink:ShrinkResult.specs": _HUNT,
    "repro.chaos.shrink:ShrinkResult.to_dict": _HUNT,
    "repro.chaos.shrink:_Prober.__init__": _HUNT,
    "repro.chaos.shrink:_Prober.fails": _HUNT,
    "repro.chaos.shrink:_ddmin": _HUNT,
    "repro.chaos.shrink:_tighten_event": _HUNT,
    "repro.chaos.shrink:shrink_plan": _HUNT,
    "repro.chaos.hunt:promote_findings": "a planted bug's finding written to the corpus:"
    " tests/test_hunt.py::test_promote_writes_a_loadable_corpus_case",
    "repro.chaos.corpus:save_case": "a planted bug's finding written to the corpus:"
    " tests/test_hunt.py::test_promote_writes_a_loadable_corpus_case",
    # References the tests hold other code to.
    "repro.chaos.corpus:load_corpus": "reads the committed regression corpus that"
    " tests/test_corpus.py replays both transports against",
    "repro.chaos.corpus:CorpusCase.from_dict": "reads a corpus case that tests/test_corpus.py"
    " replays both transports against (and CI's corpus replay step)",
    "repro.cluster.client:SimClient.randbelow": "the draw the planner's inlined entry and"
    " replica picks must equal (tests/test_routing_engine.py)",
    "repro.simulation.routing:FastRoutingEngine.plan": "the per-op plan that plan_batch and the"
    " runner's inlined planner are held to (tests/test_routing_engine.py)",
    "repro.traces.generator:ZipfSampler.sample": "one draw from the cumulative weights the"
    " generator draws from in batches; tests/test_generator.py holds it to range and skew",
    "repro.analysis.cdf:EmpiricalCDF.sup_distance": "the Kolmogorov distance that Sec. V's"
    " DKW bound limits, tested against it",
    "repro.analysis.cdf:dkw_confidence": "Thm. 2's DKW bound, which dkw_epsilon's inversion"
    " is tested against (tests/test_properties.py::test_dkw_roundtrip)",
    "repro.baselines.ghba:BloomFilter.theoretical_fp_rate": "the analytic rate the G-HBA"
    " Bloom filter is tested against",
    "repro.storage.wal:pack_record": "the by-kind WAL codec the golden log bytes and the"
    " store's typed appends are held to (tests/test_storage*.py)",
    # Error handling of outside input or of a failed call.
    "repro.storage.wal:_misfit": "a record that does not fit the WAL layout:"
    " tests/test_storage.py::test_misfit_record_is_a_value_error_and_writes_nothing",
    "repro.cluster.messages:_malformed": "a malformed wire body:"
    " tests/test_wire.py::test_a_missing_field_is_a_value_error",
    "repro.cluster.messages:_unencodable": "a message the codec cannot encode:"
    " tests/test_wire.py::test_an_out_of_range_field_is_a_value_error_at_encode",
    "repro.cluster.messages:_wrong_tag": "a wire form handed to another type's decoder:"
    " tests/test_wire.py::test_typed_decoder_rejects_wrong_tag",
    "repro.cluster.messages:_tails": "a request or reply body whose tails do not fill it"
    " (from_wire reads well-formed tails inline):"
    " tests/test_wire.py::test_a_malformed_body_is_a_plain_value_error",
    "repro.transport.wire:envelope_error": "a frame too short for its envelope or of another"
    " version: tests/test_wire.py::test_the_link_opens_frames_exactly_as_decode_payload_does",
    "repro.transport.asyncio_net:FrameLink._fail": "a hostile or broken frame closes the link:"
    " tests/test_wire.py::test_a_garbage_frame_drops_the_connection_not_the_server",
    "repro.transport.loadgen:_ServerConn._send_failed": "a send that fails inside a reply"
    " callback: tests/test_loadgen.py::"
    "test_a_send_that_fails_inside_a_reply_callback_spares_the_replying_link",
    "repro.transport.loadgen:LoadGenerator._abort": "an error inside a load step ends the run:"
    " tests/test_loadgen.py::test_an_unexpected_error_in_a_callback_ends_run_instead_of_hanging_it",
    "repro.chaos.history:OpHistory._odd_ack": "an ack the audit must flag (a re-ack, or an ack"
    " of an op never invoked): tests/test_history.py::test_double_ack_is_flagged",
    "repro.simulation.runner:ClusterSimulator._create_elsewhere": "a CREATE routed at an"
    " evicted server: tests/test_routing_engine.py::test_cache_counters_are_pinned[static-hash]",
    "repro.transport.live:_discard": "a frame a peer writes on an outbound control link, where"
    " nothing answers: tests/test_transport.py::"
    "test_a_frame_on_an_outbound_control_link_is_dropped",
    # Owned by a named ROADMAP item.
    "repro.bench:machine_score": "perfbench's machine normalisation: ROADMAP item 1",
    "repro.core.partition:D2TreePlacement.demote_global_node": "behind the off-by-default"
    " demote_threshold: ROADMAP item 11",
}


def defined_functions() -> Dict[Tuple[str, str], int]:
    """``(module path, qualified name) -> lines`` of every module-level
    function and (nested-class) method under ``src/repro``, abstract
    methods aside; a function nested in a function is part of its parent."""
    found: Dict[Tuple[str, str], int] = {}

    def visit(body, prefix: str, module: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not any(
                    getattr(d, "id", getattr(d, "attr", "")) == "abstractmethod"
                    for d in node.decorator_list
                ):
                    found[module, prefix + node.name] = node.end_lineno - node.lineno + 1
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", module)

    for path in sorted((SRC / "repro").rglob("*.py")):
        module = str(path.relative_to(SRC))
        visit(ast.parse(path.read_text(encoding="utf-8")).body, "", module)
    return found


def run_everything(entered: Set) -> None:
    """Every verb, example, experiment and perfbench test, with the
    profiler hook set (from before ``repro`` is imported: decorators run at
    import)."""

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        from repro.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            for line in VERBS:
                with contextlib.redirect_stdout(io.StringIO()):
                    main(line.replace("{tmp}", tmp).split())
        for example in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(example)]
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(example), run_name="__main__")
        import pytest

        with contextlib.redirect_stdout(io.StringIO()):
            for suite in ("experiments", "perfbench"):
                pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / suite)])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def reached_by_key(module: str, name: str) -> str:
    """``repro/chaos/shrink.py``, ``shrink_plan`` -> ``repro.chaos.shrink:shrink_plan``."""
    return f"{module[:-3].replace(os.sep, '.')}:{name}"


def main() -> int:
    os.chdir(ROOT)
    entered_codes: Set = set()
    run_everything(entered_codes)
    prefix = str(SRC) + os.sep
    filenames = {code: os.path.abspath(code.co_filename) for code in entered_codes}
    entered = {
        (filename[len(prefix):], code.co_qualname)
        for code, filename in filenames.items()
        if filename.startswith(prefix)
    }
    defined = defined_functions()
    keys = {reached_by_key(module, name): (module, name) for module, name in defined}
    missing: Dict[str, List[Tuple[str, int]]] = {}
    for (module, name), lines in defined.items():
        if (module, name) not in entered:
            missing.setdefault(module, []).append((name, lines))
    total_lines = sum(defined.values())
    missed = sum(lines for names in missing.values() for _, lines in names)
    count = sum(map(len, missing.values()))
    print(
        f"never entered: {count} of {len(defined)} functions, "
        f"{missed} of {total_lines} function lines"
    )
    unexplained = []
    for module, names in sorted(missing.items(), key=lambda item: -sum(n for _, n in item[1])):
        print(f"{module} ({sum(n for _, n in names)} lines)")
        for name, lines in names:
            reason = REACHED_BY.get(reached_by_key(module, name))
            if reason is None:
                unexplained.append(reached_by_key(module, name))
            print(f"    {name} {lines}: {reason or 'NO REASON'}")
    stale = sorted(
        key for key in REACHED_BY if key not in keys or keys[key] in entered
    )
    for key in unexplained:
        print(f"unexplained: {key} is never entered and REACHED_BY gives no reason")
    for key in stale:
        print(f"stale: REACHED_BY names {key}, which is entered now or not defined")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
