"""Trace substrate: synthetic equivalents of the paper's Microsoft traces."""

from repro.traces.columns import (
    DEFAULT_BATCH_OPS,
    OP_CODES,
    OP_FROM_CODE,
    OpBatch,
    iter_op_batches,
)
from repro.traces.datasets import (
    DEFAULT_SCALE,
    PAPER_RECORD_COUNTS,
    PAPER_TRACE_SIZES_GB,
    PROFILES,
    DatasetProfile,
    all_profiles,
)
from repro.traces.generator import (
    GeneratedWorkload,
    TraceGenerator,
    ZipfSampler,
    load_workload,
)
from repro.traces.io import dumps_trace, load_trace, loads_trace, save_trace
from repro.traces.trace import OpType, Trace, TraceRecord

__all__ = [
    "DEFAULT_BATCH_OPS",
    "DEFAULT_SCALE",
    "DatasetProfile",
    "GeneratedWorkload",
    "OP_CODES",
    "OP_FROM_CODE",
    "OpBatch",
    "OpType",
    "PAPER_RECORD_COUNTS",
    "PAPER_TRACE_SIZES_GB",
    "PROFILES",
    "Trace",
    "TraceGenerator",
    "TraceRecord",
    "ZipfSampler",
    "all_profiles",
    "dumps_trace",
    "iter_op_batches",
    "load_trace",
    "load_workload",
    "loads_trace",
    "save_trace",
]
