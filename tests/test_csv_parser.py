"""``parse_csv`` against the row loop it replaced.

``reference_parse_csv`` below is that parser, kept as the oracle, together
with conftest's ``reference_parse_timestamp``: on the fixtures and on generated
documents, ``parse_csv`` must return an equal log or raise the same error
class with the same message.  The generated documents leave out the two
inputs the reference accepted and ``parse_csv`` now rejects: a header name
that appears twice, and a row with more cells than the header.
"""

from __future__ import annotations

import csv
import io
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf.event_log import (
    DEFAULT_CSV_MAPPING,
    CsvMapping,
    EmptyDocument,
    Event,
    EventLog,
    EventLogError,
    MalformedDocument,
    MissingActivity,
    MissingCaseId,
    MissingColumn,
    Scalar,
    Trace,
    UnparsableTimestamp,
    parse_csv,
)

from conftest import DATA_DIR, csv_log_text, reference_parse_timestamp


# ---------------------------------------------------------------------------
# The reference: the row loop that parse_csv replaced
# ---------------------------------------------------------------------------

def _sorted_events(events: list[Event]) -> tuple[Event, ...]:
    # stable: equal timestamps keep source-document order
    return tuple(sorted(events, key=lambda e: e.timestamp))


def reference_parse_csv(document: str, mapping: CsvMapping, source_name: str = "") -> EventLog:
    """Parse CSV text (RFC-4180, header row mandatory) into an EventLog.

    Rows are grouped by the case column in first-appearance order; the
    remaining columns become event attributes (kept as text).  Events are
    re-sorted by timestamp within each trace, preserving row order on ties.
    """
    reader = csv.reader(io.StringIO(document))
    try:
        return _reference_csv_log(reader, mapping, source_name)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedDocument(f"row {reader.line_num}: {exc}") from exc


def _reference_csv_log(reader, mapping: CsvMapping, source_name: str) -> EventLog:
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDocument("document has no header row") from None
    if not any(cell.strip() for cell in header):
        raise EmptyDocument("document has no header row")

    index: dict[str, int] = {name: i for i, name in enumerate(header)}
    for needed in (mapping.case_column, mapping.activity_column, mapping.timestamp_column):
        if needed not in index:
            raise MissingColumn(f"column {needed!r} not in header {header!r}")
    case_idx = index[mapping.case_column]
    act_idx = index[mapping.activity_column]
    ts_idx = index[mapping.timestamp_column]
    attr_columns = [
        (name, i)
        for name, i in index.items()
        if i not in (case_idx, act_idx, ts_idx)
    ]

    grouped: dict[str, list[Event]] = {}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) < len(header):
            row = row + [""] * (len(header) - len(row))
        case_id = row[case_idx]
        if not case_id:
            raise MissingCaseId(f"row {line}: empty value in case column")
        activity = row[act_idx]
        if not activity:
            raise MissingActivity(f"row {line}: empty value in activity column")
        ts_text = row[ts_idx]
        try:
            moment = reference_parse_timestamp(ts_text)
        except ValueError:
            raise UnparsableTimestamp(
                f"row {line}: cannot parse timestamp {ts_text!r}"
            ) from None
        attributes: dict[str, Scalar] = {name: row[i] for name, i in attr_columns}
        grouped.setdefault(case_id, []).append(
            Event(activity=activity, timestamp=moment, attributes=attributes)
        )

    traces = tuple(
        Trace(case_id=cid, case_attributes={}, events=_sorted_events(events))
        for cid, events in grouped.items()
    )
    return EventLog(traces=traces, source_name=source_name)


def summary(log: EventLog) -> tuple:
    """What the two parsers must agree on; ``isoformat`` keeps the offset."""
    return log.source_name, [
        (trace.case_id, dict(trace.case_attributes), [
            (event.activity, event.timestamp.isoformat(), dict(event.attributes))
            for event in trace.events
        ])
        for trace in log.traces
    ]


def outcome(parse, document: str, mapping: CsvMapping):
    try:
        return summary(parse(document, mapping, "doc"))
    except EventLogError as exc:
        return type(exc), str(exc)


def assert_same_outcome(document: str, mapping: CsvMapping) -> None:
    assert outcome(parse_csv, document, mapping) == outcome(reference_parse_csv, document, mapping)


# ---------------------------------------------------------------------------
# Fixtures and generated documents
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.csv")), ids=lambda path: path.name)
def test_parse_csv_matches_the_reference_on_fixture(path):
    assert_same_outcome(path.read_text(encoding="utf-8"), DEFAULT_CSV_MAPPING)


def test_parse_csv_matches_the_reference_on_a_generated_log():
    assert_same_outcome(csv_log_text(300), DEFAULT_CSV_MAPPING)


MAPPING = CsvMapping("case", "act", "ts")
EXTRA_COLUMNS = ("team", "cost", "note", "")
#: valid cells, with the one invalid cell of each key column last
CASES = ("c1", "c2", "c3") * 8 + ("",)
ACTIVITIES = ("A", "B", "Pay, twice", "two\nlines", 'say "hi"') * 5 + ("",)
TIMESTAMPS = (
    "2024-03-01T09:00:00+00:00", "2024-03-01T09:00:00Z", "2024-03-01T09:00:00z",
    "2024-03-01T08:59:00", "2024-03-01 09:05", "2024-03-01T10:30:00+02:00",
    " 2024-03-01T09:00:00+00:00 ", "2024-03-01", "20240301T090000",
) * 3 + ("2024-13-45", "not a date", "")
VALUES = ("x", "y", "", "a,b", 'q"uote', "line\nbreak", "  padded  ")
HEADERS = (("case", "act", "ts"), ("ts", "case", "act"), ("act", "ts", "case")) * 3 + (
    ("case", "act"), ("case", "ts"), ("",), (" ", ""))


def serialize_cell(cell: str, quote: bool) -> str:
    if quote or any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def documents(draw):
    header = list(draw(st.sampled_from(HEADERS)))
    for extra in draw(st.lists(st.sampled_from(EXTRA_COLUMNS), max_size=2, unique=True)):
        if extra not in header:
            header.insert(draw(st.integers(0, len(header))), extra)
    cells_for = {"case": st.sampled_from(CASES), "act": st.sampled_from(ACTIVITIES),
                 "ts": st.sampled_from(TIMESTAMPS)}
    rows = [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            rows.append([])  # a blank line
            continue
        row = [draw(cells_for.get(name, st.sampled_from(VALUES))) for name in header]
        rows.append(row[:draw(st.integers(1, len(row)))] if draw(st.integers(0, 4)) == 0 else row)
    newline = draw(st.sampled_from(("\n", "\r\n")))
    cells = [[serialize_cell(cell, draw(st.integers(0, 5)) == 0) for cell in row]
             for row in rows]
    # damage that never lengthens a row: a quote opened before the last cell
    # and never closed, or a lone carriage return, which the csv module
    # rejects in an unquoted cell
    damage = draw(st.sampled_from(("none",) * 6 + ("open quote", "carriage return")))
    if damage == "open quote" and rows[-1]:
        cells[-1][-1] = '"' + rows[-1][-1].replace('"', '""')
    text = newline.join(map(",".join, cells)) + draw(st.sampled_from((newline, "")))
    if damage == "carriage return":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\r" + text[at:]
    return text


@given(documents())
@settings(max_examples=500, deadline=None)
def test_parse_csv_matches_the_reference_on_generated_documents(document):
    assert_same_outcome(document, MAPPING)
