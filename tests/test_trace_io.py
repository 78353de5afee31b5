"""Tests for trace (de)serialization."""

import dataclasses
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.traces import (
    DatasetProfile,
    OpType,
    Trace,
    TraceGenerator,
    TraceRecord,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
)
from tests.conftest import trace_of


def small_trace():
    return trace_of(
        "sample",
        [
            TraceRecord(0.5, OpType.READ, "/a/b.txt", 1),
            TraceRecord(1.25, OpType.UPDATE, "/a", 2),
            TraceRecord(2.0, OpType.WRITE, "/c d/e.txt", 0),
        ],
        description="a small test trace",
    )


def test_roundtrip_in_memory():
    trace = small_trace()
    parsed = loads_trace(dumps_trace(trace))
    assert parsed.name == trace.name
    assert parsed.description == trace.description
    assert parsed.records == trace.records


def test_roundtrip_via_file(tmp_path):
    trace = small_trace()
    path = tmp_path / "trace.tsv"
    save_trace(trace, path)
    parsed = load_trace(path)
    assert parsed.records == trace.records


def test_loaders_rebuild_the_generated_records():
    """The trace file keeps microseconds of the timestamp and everything
    else."""
    workload = TraceGenerator(DatasetProfile.ra(num_nodes=600, scale=6e-6)).generate()
    records = workload.trace.records
    rounded = [dataclasses.replace(r, timestamp=float(f"{r.timestamp:.6f}")) for r in records]
    assert loads_trace(dumps_trace(workload.trace)).records == rounded


def test_paths_with_spaces_survive():
    parsed = loads_trace(dumps_trace(small_trace()))
    assert parsed.records[2].path == "/c d/e.txt"


def test_missing_header_rejected():
    with pytest.raises(ValueError):
        loads_trace("1.0\tread\t0\t/a\n")


def test_malformed_line_rejected():
    text = dumps_trace(small_trace()) + "not-enough-fields\n"
    with pytest.raises(ValueError):
        loads_trace(text)


def test_malformed_header_rejected():
    with pytest.raises(ValueError):
        loads_trace("#trace\n")


def test_blank_lines_skipped():
    text = dumps_trace(small_trace()) + "\n\n"
    parsed = loads_trace(text)
    assert len(parsed) == 3


def test_description_newlines_flattened():
    trace = Trace(name="x", description="line1\nline2")
    parsed = loads_trace(dumps_trace(trace))
    assert "\n" not in parsed.description


def test_generated_workload_roundtrip(tmp_path):
    workload = TraceGenerator(DatasetProfile.ra(num_nodes=600, scale=5e-6)).generate()
    path = tmp_path / "ra.tsv"
    save_trace(workload.trace, path)
    parsed = load_trace(path)
    assert len(parsed) == len(workload.trace)
    assert parsed.operation_breakdown() == workload.trace.operation_breakdown()


def test_empty_trace_roundtrip():
    trace = Trace(name="empty")
    parsed = loads_trace(dumps_trace(trace))
    assert parsed.records == []


# ----------------------------------------------------------------------
# Trace files are hostile input, in both directions
# ----------------------------------------------------------------------
#: One bad record line each; the loader must name line 3 (header, one good
#: record, then this).
HOSTILE_LINES = {
    "unknown-op": "1.0\tbogus\t0\t/a",
    "bad-timestamp": "soon\tread\t0\t/a",
    "nan-timestamp": "nan\tread\t0\t/a",
    "inf-timestamp": "inf\tread\t0\t/a",
    "negative-timestamp": "-1.0\tread\t0\t/a",
    "bad-client": "1.0\tread\tzero\t/a",
    "negative-client": "1.0\tread\t-3\t/a",
    "client-past-the-column": "1.0\tread\t2147483648\t/a",
    "relative-path": "1.0\tread\t0\ta/b",
    "empty-path": "1.0\tread\t0\t",
    "too-few-fields": "1.0\tread\t0",
    "too-many-fields": "1.0\tread\t0\t/a\t/b",
}


@pytest.mark.parametrize("line", HOSTILE_LINES.values(), ids=HOSTILE_LINES.keys())
def test_loads_trace_names_the_bad_line(line, tmp_path):
    text = "#trace\tx\t\n0.5\tread\t0\t/ok\n" + line + "\n"
    with pytest.raises(ValueError, match=r"^line 3: "):
        loads_trace(text)
    path = tmp_path / "bad.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"^line 3: "):
        load_trace(path)


def test_carriage_return_never_reaches_a_path(tmp_path):
    """Text-mode reads turn a lone ``\\r`` into a line break, so a path may
    not hold one: in memory the record is refused, from a file the break
    makes a (malformed) line of its own."""
    text = "#trace\tx\t\n0.5\tread\t0\t/a\rb\n"
    with pytest.raises(ValueError, match=r"^line 2: "):
        loads_trace(text)
    (tmp_path / "cr.tsv").write_text(text)
    with pytest.raises(ValueError, match=r"^line 3: "):
        load_trace(tmp_path / "cr.tsv")


@pytest.mark.parametrize("text", ["", "1.0\tread\t0\t/a\n", "#trace\n", "#tracer\tx\n"])
def test_bad_header_names_line_one(text):
    with pytest.raises(ValueError, match=r"^line 1: "):
        loads_trace(text)


@pytest.mark.parametrize(
    "record",
    [
        TraceRecord(1.0, OpType.READ, "/a\n2.0\tupdate\t0\t/evil", 0),  # forges a record
        TraceRecord(1.0, OpType.READ, "/a\tb", 0),
        TraceRecord(1.0, OpType.READ, "/a\rb", 0),
        TraceRecord(1.0, OpType.READ, "relative", 0),
        TraceRecord(float("nan"), OpType.READ, "/a", 0),
        TraceRecord(1.0, OpType.READ, "/a", -1),
    ],
)
def test_writer_refuses_what_would_not_read_back(record, tmp_path):
    trace = trace_of("x", [TraceRecord(0.5, OpType.READ, "/ok", 0), record])
    with pytest.raises(ValueError, match=r"^record 1: "):
        dumps_trace(trace)
    with pytest.raises(ValueError):
        save_trace(trace, tmp_path / "t.tsv")
    assert not (tmp_path / "t.tsv").exists()


def test_header_name_cannot_forge_a_record():
    trace = Trace(name="x\n1.0\tupdate\t0\t/evil", description="d\te\rf")
    parsed = loads_trace(dumps_trace(trace))
    assert parsed.records == []
    assert parsed.name == "x 1.0 update 0 /evil" and parsed.description == "d e f"


_paths = st.lists(
    st.text(st.characters(blacklist_characters="/\t\r\n", blacklist_categories=("Cs",)), min_size=1, max_size=6),
    min_size=1, max_size=4,
).map(lambda parts: "/" + "/".join(parts))
_records = st.builds(
    TraceRecord,
    # Microsecond grid: what the ``%.6f`` column keeps exactly.
    timestamp=st.integers(0, 10**11).map(lambda n: n / 1e6),
    op=st.sampled_from(list(OpType)),
    path=_paths,
    client_id=st.integers(0, 10**6),
)
_names = st.text(st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",)), max_size=8)
_traces = st.builds(
    trace_of, name=_names, records=st.lists(_records, max_size=8), description=_names
)


@settings(max_examples=200, deadline=None)
@given(trace=_traces)
def test_any_trace_roundtrips(trace):
    assert loads_trace(dumps_trace(trace)) == trace


@settings(max_examples=300, deadline=None)
@given(
    trace=_traces,
    pick=st.integers(0, 10**6),
    garbage=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
    | st.sampled_from(list(HOSTILE_LINES.values())),
    mode=st.sampled_from(["replace", "splice", "truncate"]),
    at=st.integers(0, 40),
)
@example(trace=Trace(name="", description=""), pick=0,
         garbage="\r", mode="splice", at=7)  # a CR inside the header's name
@example(trace=trace_of("", [TraceRecord(0.0, OpType.READ, "/", 0)]),
         pick=1, garbage="1", mode="splice", at=8)  # 0.000000 -> 0.0000001
def test_single_line_corruption_parses_or_names_its_line(trace, pick, garbage, mode, at):
    """Damage one line of a valid file: the loader either returns a trace
    every record of which the writer would accept, or raises a ValueError
    naming a line at or after the damaged one — never any other exception."""
    lines = dumps_trace(trace).split("\n")[:-1]
    index = pick % len(lines)
    line = lines[index]
    if mode == "replace":
        lines[index] = garbage
    elif mode == "splice":
        lines[index] = line[: at % (len(line) + 1)] + garbage + line[at % (len(line) + 1):]
    else:
        lines[index] = line[: at % (len(line) + 1)]
    try:
        parsed = loads_trace("\n".join(lines) + "\n")
    except ValueError as error:
        found = re.match(r"line (\d+): ", str(error))
        assert found, error
        assert index + 1 <= int(found.group(1)) <= index + 1 + garbage.count("\n")
    else:
        assert loads_trace(dumps_trace(parsed)) == parsed
