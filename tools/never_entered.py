"""Print the ``src/repro`` functions that no verb, example or experiment enters.

Runs, in this one process under a ``sys.setprofile`` hook, the ten CLI verbs
with the flags CI gives them, every example under ``examples/``, and
``pytest experiments``; then lists every module-level function and method
of ``src/repro`` whose code never ran, grouped by module, each with its
line count. It prints and gates nothing (a few minutes on a 2-core host).

    PYTHONPATH=src python tools/never_entered.py

A function a test alone reaches is listed: what the system does is what
the verbs, examples and experiments run.
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

#: ``repro`` argv lines, ``{tmp}`` standing for a scratch directory: the ten
#: verbs, each with CI's flags where CI runs it.
VERBS = (
    "evaluate --trace dtr --nodes 2000 --scale 1e-4 --json",
    "simulate --trace dtr --nodes 2000 --scheme d2-tree --fault crash:2@ops=500 --seed 7"
    " --metrics-out {tmp}/run.jsonl --metrics-prom {tmp}/run.prom",
    "report {tmp}/run.jsonl --csv {tmp}/run",
    "simulate --trace dtr --nodes 2000 --scheme d2-tree --seed 7 --trace-sample 10"
    " --fault crash:2@ops=500 --fault recover:2@ops=2000 --metrics-out {tmp}/traced.jsonl",
    "report {tmp}/traced.jsonl --critical-path --critical-json {tmp}/critical.json"
    " --perfetto {tmp}/trace.json",
    "simulate --trace ra --nodes 2000 --scale 1e-4 --seed 7 --store wal --json"
    " --fault kill9:1@ops=400 --fault recover:1@ops=900",
    "generate --trace ra --nodes 2000 --scale 1e-4 --seed 7 {tmp}/gen.tsv",
    "stats --input {tmp}/gen.tsv",
    "stats --trace ra --nodes 2000 --scale 1e-4 --seed 7",
    "figure fig5 --nodes 2000",
    "figure fig6 --nodes 2000",
    "figure fig7 --nodes 2000 --chart",
    "chaos --seeds 5 --ops 2000",
    "chaos --seeds 3 --ops 1500 --store wal --json",
    "hunt --seeds 4 --ops 1500 --trace lmbe --nodes 2000 --scale 1e-4 --store wal",
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
    "validate --trace dtr --nodes 4000 --scale 3e-4 --max-ops 5000 --rate 4000 --servers 3"
    " --monitors 3 --seed 7 --max-retries 4 --out {tmp}/validate.json",
)


def defined_functions() -> Dict[Tuple[str, str], int]:
    """``(module path, qualified name) -> lines`` of every module-level
    function and (nested-class) method under ``src/repro``; a function
    nested in a function is part of its parent."""
    found: Dict[Tuple[str, str], int] = {}

    def visit(body, prefix: str, module: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[module, prefix + node.name] = node.end_lineno - node.lineno + 1
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", module)

    for path in sorted((SRC / "repro").rglob("*.py")):
        module = str(path.relative_to(SRC))
        visit(ast.parse(path.read_text(encoding="utf-8")).body, "", module)
    return found


def run_everything(entered: Set) -> None:
    """Every verb, example and experiment, with the profiler hook set (from
    before ``repro`` is imported: decorators run at import)."""

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
            pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "experiments")])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def main() -> None:
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
    for module, names in sorted(missing.items(), key=lambda item: -sum(n for _, n in item[1])):
        print(f"{module} ({sum(n for _, n in names)} lines)")
        for name, lines in names:
            print(f"    {name} {lines}")


if __name__ == "__main__":
    main()
