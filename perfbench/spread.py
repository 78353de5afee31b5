"""Steadiness check: ten seeds per workload, spread of each end-to-end metric.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1 2 3 ...]

For every (workload, metric) it prints the median over the seeds and the
distance between the first and third quartile as a share of that median,
next to the metric's bound from ``BENCHMARK.json``. The benchmark is steady
enough when every spread but ``setup_s``'s is under a third of its bound.
Exit code 1 when a spread exceeds its bound or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import List, Optional

import run as harness


def spread_of(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    bench = harness.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    parser.add_argument("--seeds", nargs="*", type=int, default=list(range(1, 11)))
    parser.add_argument("--out", help="write every run's metrics here as JSON")
    args = parser.parse_args(argv)

    bad = False
    everything = {}
    for name in args.workload:
        runs = []
        for seed in args.seeds:
            began = time.perf_counter()
            done = subprocess.run(
                [sys.executable, harness.__file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            wall = time.perf_counter() - began
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
                bad = True
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{name} seed {seed}: {wall:.1f} s", flush=True)
        everything[name] = runs
        if len(runs) < 2:
            continue
        for entry in bench["end_to_end"]:
            values = [r[entry["name"]] for r in runs]
            spread = spread_of(values)
            verdict = "ok"
            if entry["name"] != "setup_s":
                if spread > entry["bound"]:
                    verdict, bad = "OVER BOUND", True
                elif spread > entry["bound"] / 3:
                    verdict = "over a third of bound"
            print(
                f"   {name:<20} {entry['name']:<16} median {statistics.median(values):>14.4f} "
                f"{entry['unit']:<8} spread {spread:7.4f}  bound {entry['bound']:.2f}  {verdict}"
            )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(everything, handle, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
