"""Compare two results files of ``run.py --all`` under the benchmark's bounds.

    python3 perfbench/compare.py A.json B.json          # A is the parent, B the change
    python3 perfbench/compare.py --self A.json B.json   # two sets of runs of one commit

One row per (workload, end-to-end metric): both medians with their min and
max over the timed repeats, the change, the bound from ``BENCHMARK.json``
and a verdict:

``regressed`` / ``improved``  the median moved by more than the bound;
``unchanged``                 it did not;
``unresolved``                the repeats of one side spread wider than the
                              bound and the two sides interleave, so the
                              medians settle nothing.

``failed_share`` (failed / attempted) gets a row with an absolute bound of
0.001, and a changed result digest is flagged: the simulator's output for
the same seed differs, so ``hops_per_op`` and ``model_ops_per_s`` are no
longer the same model's. ``--self`` instead asks whether two sets of runs
of the same code agree within the bounds (digests: exactly). Exit code 1
on a regression, or on a disagreement under ``--self``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

import run as harness

FAILED_SHARE_BOUND = 0.001


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    """Judge metric summaries ``{"value", "min", "max"}`` of parent ``a`` and change ``b``."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max(a["max"] - a["min"], b["max"] - b["min"]) / abs(a["value"])
    interleave = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and interleave:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def agrees(a: Dict[str, float], b: Dict[str, float], bound: float) -> str:
    return "agree" if abs(b["value"] - a["value"]) <= bound * abs(a["value"]) else "DISAGREE"


def _cell(metric: Dict[str, float]) -> str:
    return f"{metric['value']:.6g} [{metric['min']:.4g}..{metric['max']:.4g}]"


def compare(a: Dict[str, object], b: Dict[str, object], self_check: bool) -> List[Dict[str, object]]:
    """Rows for every workload both files hold."""
    bench = harness.load_benchmark()
    rows: List[Dict[str, object]] = []
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"].get(name)
        if run_b is None:
            continue
        for entry in bench["end_to_end"]:
            metric_a, metric_b = run_a["metrics"][entry["name"]], run_b["metrics"][entry["name"]]
            rows.append({
                "workload": name,
                "metric": entry["name"],
                "a": _cell(metric_a),
                "b": _cell(metric_b),
                "change": (metric_b["value"] - metric_a["value"]) / abs(metric_a["value"]),
                "bound": f"{entry['bound']:.0%}",
                "verdict": (
                    agrees(metric_a, metric_b, entry["bound"]) if self_check
                    else verdict(metric_a, metric_b, entry["better"], entry["bound"])
                ),
            })
        share_a = run_a["failed"] / run_a["attempted"]
        share_b = run_b["failed"] / run_b["attempted"]
        if self_check:
            failed_verdict = "agree" if share_a == share_b else "DISAGREE"
        elif share_b - share_a > FAILED_SHARE_BOUND:
            failed_verdict = "regressed"
        else:
            failed_verdict = "improved" if share_a - share_b > FAILED_SHARE_BOUND else "unchanged"
        rows.append({
            "workload": name, "metric": "failed_share", "a": f"{share_a:.6g}", "b": f"{share_b:.6g}",
            "change": share_b - share_a, "bound": f"+{FAILED_SHARE_BOUND}", "verdict": failed_verdict,
        })
        if run_a["digest"] != run_b["digest"]:
            rows.append({
                "workload": name, "metric": "digest", "a": run_a["digest"], "b": run_b["digest"],
                "change": float("nan"), "bound": "exact",
                "verdict": "DISAGREE" if self_check else "model output changed",
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results JSON of the parent (or the first set of runs)")
    parser.add_argument("b", help="results JSON of the change (or the second set)")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="both files are runs of the same code: do they agree?")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        a = json.load(handle)
    with open(args.b) as handle:
        b = json.load(handle)
    if a["meta"]["seed"] != b["meta"]["seed"]:
        print(f"note: seeds differ ({a['meta']['seed']} vs {b['meta']['seed']}): "
              "the inputs are not the same and digests will not match")

    rows = compare(a, b, args.self_check)
    print(f"{'workload':<20} {'metric':<16} {'A':<32} {'B':<32} {'change':>9} {'bound':>7}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<20} {row['metric']:<16} {row['a']:<32} {row['b']:<32} "
            f"{row['change']:>+9.2%} {row['bound']:>7}  {row['verdict']}"
        )
    failing = ("DISAGREE",) if args.self_check else ("regressed",)
    return 1 if any(row["verdict"] in failing for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
