"""perfbench: the repo's one benchmark.

One workload, as the driver of ``BENCHMARK.json`` calls it::

    python3 perfbench/run.py --workload sim_replay --seed 7 --seconds 10 --trace 0

prints every metric by name with its unit, checks the outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``;
``--trace 1`` is the separate traced run that prints the per-layer metrics
instead. Every workload in a fresh subprocess, into one results file::

    python3 perfbench/run.py --all --seed 7 --out perfbench/out/results.json

(add ``--trace 1`` to also make the traced runs and merge them under
``layers``). Exit code 1 on a failed output check, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def load_benchmark() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _with_units(values: Dict[str, dict], declared: List[dict]) -> Dict[str, dict]:
    """Attach each declared metric's unit; the two name sets must agree."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(values) != set(units):
        raise KeyError(
            f"measured and declared metrics differ: {sorted(set(values) ^ set(units))}"
        )
    return {name: {**values[name], "unit": unit} for name, unit in units.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Measure one workload in this process; returns its full record."""
    import layers
    import workloads

    bench = load_benchmark()
    spec = workloads.SPECS[name]
    if trace:
        raw = layers.trace(spec, seed, seconds)
        # A layer the workload never enters did no work there: 0.
        values = {entry["name"]: {"value": 0.0} for entry in bench["per_layer"]}
        values.update({key: {"value": float(v)} for key, v in raw["layers"].items()})
        metrics = _with_units(values, bench["per_layer"])
    else:
        raw = workloads.measure(spec, seed, seconds)
        metrics = _with_units(raw["metrics"], bench["end_to_end"])
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not raw["checks"],
        "checks": raw["checks"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "digest": raw["digest"],
        "host_speed": raw["host_speed"],
        "metrics": metrics,
    }


def print_record(record: Dict[str, object]) -> None:
    verdict = "correct" if record["correct"] else "FAILED CHECKS"
    print(
        f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{verdict}, {record['attempted']} ops attempted, {record['failed']} failed"
        + (f", digest {record['digest']}" if record["digest"] else "")
    )
    for problem in record["checks"]:
        print(f"   check failed: {problem}")
    print(f"   host speed {record['host_speed']:.3f} of the reference's (pace.py); "
          + ("layer times are as measured" if record["trace"] else "times are corrected to it"))
    for name, metric in record["metrics"].items():
        line = f"   {name:<34} {metric['value']:>16.6f} {metric['unit']}"
        samples = metric.get("samples", ())
        if len(samples) > 1:
            line += f"   (min {metric['min']:.6g}, max {metric['max']:.6g}, n={len(samples)})"
        print(line)


def contract_line(record: Dict[str, object]) -> str:
    """The one JSON object the driver reads off the last line of stdout."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in record["metrics"].items()
        },
    })


# ----------------------------------------------------------------------
# --all: one subprocess per workload, one results file
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _filesystem_of(path: str) -> str:
    """Filesystem type holding ``path`` (the WAL's disk), from /proc/mounts."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                if target.startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _child(name: str, args, trace: int) -> Optional[Dict[str, object]]:
    """Run one workload in a fresh interpreter; returns its record (None if it died)."""
    import workloads

    record_path = os.path.join(workloads.OUT, f"record_{name}_{trace}.json")
    if os.path.exists(record_path):
        os.unlink(record_path)
    subprocess.run([
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--record", record_path,
    ])
    if not os.path.exists(record_path):
        return None
    with open(record_path) as handle:
        record = json.load(handle)
    os.unlink(record_path)
    return record


def run_all(args) -> int:
    import workloads
    from repro.bench import machine_score

    os.makedirs(workloads.OUT, exist_ok=True)
    results = {
        "meta": {
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine_score": machine_score(),
            "seed": args.seed,
            "run_seconds": args.seconds,
            "store_fs": _filesystem_of(workloads.OUT),
        },
        "workloads": {},
    }
    ok = True
    for name in workloads.SPECS:
        record = _child(name, args, 0)
        if record is None:
            print(f"== {name}: the run died without a record")
            ok = False
            continue
        if args.trace:
            traced = _child(name, args, 1)
            if traced is None:
                print(f"== {name}: the traced run died without a record")
                ok = False
            else:
                record["layers"] = traced["metrics"]
                ok = ok and traced["correct"]
                # Layer times are as measured; bring this one to the reference pace.
                traced_rate = traced["metrics"]["runner.us_per_op"]["value"] * traced["host_speed"]
                if traced_rate:
                    untraced = 1e6 / record["metrics"]["ops_per_s"]["value"]
                    print(
                        f"   tracing overhead: {traced_rate / untraced - 1:+.2%} "
                        f"({traced_rate:.3f} us/op traced, {untraced:.3f} untraced)"
                    )
        ok = ok and record["correct"]
        results["workloads"][name] = record
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"results written to {args.out}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=names)
    what.add_argument("--all", action="store_true", help="every workload, each in a fresh subprocess")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics, span file)")
    parser.add_argument("--out", help="with --all: write the results JSON here")
    parser.add_argument("--record", help=argparse.SUPPRESS)  # --all's child hand-off
    args = parser.parse_args(argv)

    if args.out:
        args.out = os.path.abspath(args.out)
    # Scratch paths are relative to the repo root (unix socket paths are short).
    os.chdir(ROOT)
    if args.all:
        return run_all(args)
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record, handle)
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
