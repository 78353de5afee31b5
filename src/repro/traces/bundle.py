"""Workload bundles: persist a complete workload (tree + trace) to disk.

A *bundle* is a single JSON-lines file carrying the dataset profile, every
namespace node (path, kind, popularity, update cost), the trace records, and
the workload metadata (hot set, late-created paths). Loading a bundle
reconstructs a :class:`GeneratedWorkload` bit-for-bit, so experiments can be
archived and replayed on another machine without re-running the generator.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import List, Union

from repro.core.namespace import NamespaceTree
from repro.traces.datasets import DatasetProfile
from repro.traces.generator import GeneratedWorkload
from repro.traces.io import check_path, check_record
from repro.traces.trace import OpType, Trace, TraceRecord

__all__ = ["save_workload", "load_workload_bundle", "BUNDLE_VERSION"]

BUNDLE_VERSION = 1


def save_workload(workload: GeneratedWorkload, path: Union[str, Path]) -> None:
    """Write a workload bundle to ``path`` (JSON lines)."""
    workload.tree.ensure_popularity()
    with open(path, "w", encoding="utf-8") as out:
        header = {
            "kind": "repro-workload-bundle",
            "version": BUNDLE_VERSION,
            "profile": dataclasses.asdict(workload.profile),
            "trace_name": workload.trace.name,
            "trace_description": workload.trace.description,
            "hot_paths": [node.path for node in workload.hot_nodes],
            "late_created_paths": list(workload.late_created_paths),
            "root": {
                "ip": workload.tree.root.individual_popularity,
                "u": workload.tree.root.update_cost,
            },
        }
        out.write(json.dumps(header) + "\n")
        for node in workload.tree:
            if node.parent is None:
                continue  # the root is implicit
            out.write(
                json.dumps(
                    {
                        "t": "n",
                        "p": node.path,
                        "d": int(node.is_directory),
                        "ip": node.individual_popularity,
                        "u": node.update_cost,
                    }
                )
                + "\n"
            )
        for record in workload.trace.records:
            out.write(
                json.dumps(
                    {
                        "t": "r",
                        "ts": record.timestamp,
                        "op": record.op.value,
                        "p": record.path,
                        "c": record.client_id,
                    }
                )
                + "\n"
            )


def _count(value) -> float:
    """A popularity / cost / time field: a finite, non-negative number."""
    number = float(value)
    if not math.isfinite(number) or number < 0:
        raise ValueError(f"{value!r} is not a finite non-negative number")
    return number


def _paths(value) -> List[str]:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of paths, got {value!r}")
    for path in value:
        check_path(path)
    return value


def _parse_header(payload) -> dict:
    if not isinstance(payload, dict) or payload.get("kind") != "repro-workload-bundle":
        raise ValueError("not a workload bundle")
    if payload.get("version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {payload.get('version')}")
    root = payload.get("root", {})
    return {
        "profile": DatasetProfile(**payload["profile"]),
        "trace_name": str(payload["trace_name"]),
        "trace_description": str(payload["trace_description"]),
        "hot_paths": _paths(payload["hot_paths"]),
        "late_created_paths": _paths(payload.get("late_created_paths", [])),
        "root_ip": _count(root.get("ip", 0.0)),
        "root_u": _count(root.get("u", 0.0)),
    }


def load_workload_bundle(path: Union[str, Path]) -> GeneratedWorkload:
    """Reconstruct a workload from a bundle written by :func:`save_workload`.

    A bundle is hostile input: every malformed line — bad JSON, a missing or
    mistyped field, a non-finite or negative number, a non-absolute path —
    is a ``ValueError("line N: …")``.
    """
    tree = NamespaceTree()
    records = []
    header = None
    with open(path, "r", encoding="utf-8") as source:
        for line_number, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if header is None:
                    header = _parse_header(payload)
                elif payload["t"] == "n":
                    check_path(payload["p"])
                    node = tree.add_path(payload["p"], is_directory=bool(payload["d"]))
                    node.individual_popularity = _count(payload["ip"])
                    node.update_cost = _count(payload["u"])
                elif payload["t"] == "r":
                    record = TraceRecord(
                        timestamp=float(payload["ts"]),
                        op=OpType(payload["op"]),
                        path=payload["p"],
                        client_id=int(payload["c"]),
                    )
                    check_record(record)
                    records.append(record)
                else:
                    raise ValueError(f"unknown entry {payload['t']!r}")
            except KeyError as error:
                raise ValueError(f"line {line_number}: missing field {error}") from None
            except (TypeError, ValueError) as error:
                raise ValueError(f"line {line_number}: {error}") from None
    if header is None:
        raise ValueError("empty bundle")
    tree.root.individual_popularity = header["root_ip"]
    tree.root.update_cost = header["root_u"]
    tree.aggregate_popularity()
    trace = Trace(
        name=header["trace_name"],
        records=records,
        description=header["trace_description"],
    )
    hot_nodes = [tree.lookup(p) for p in header["hot_paths"]]
    return GeneratedWorkload(
        profile=header["profile"],
        tree=tree,
        trace=trace,
        hot_nodes=[node for node in hot_nodes if node is not None],
        late_created_paths=header["late_created_paths"],
    )
