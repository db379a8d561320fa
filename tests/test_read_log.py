"""``read_log``: a log file gives the log that its whole text gives.

A file is decoded as UTF-8 with universal newlines, as
``Path.read_text(encoding="utf-8")`` decodes it, whichever way it is read:
a CRLF or a lone CR is one newline, inside a quoted CSV cell too, and a
byte-order mark stays in the text.  A file that is not UTF-8 is reported
as such, with the offset of its first bad byte in the file: the
``log-not-utf8-late-*`` cases of ``test_cli.HOSTILE`` check that text.
"""

from __future__ import annotations

import gc
import io
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf.event_log import (
    DEFAULT_CSV_MAPPING,
    EventLogError,
    MalformedDocument,
    MissingActivity,
    MissingColumn,
    parse_csv,
    parse_xes,
)
from agwf import pm_tools
from agwf.pm_tools import read_log

from conftest import csv_log_text, xes_log_text


def written(tmp_path, name: str, content: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(content)
    return str(path)


def whole_text_log(path: str):
    """The log parsed from the file's whole text."""
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".csv"):
        return parse_csv(text, DEFAULT_CSV_MAPPING, source_name=path)
    return parse_xes(text, source_name=path)


# ---------------------------------------------------------------------------
# Newlines, byte-order marks and encoding declarations
# ---------------------------------------------------------------------------

def test_a_quoted_crlf_or_lone_cr_in_a_csv_cell_reads_as_one_newline(tmp_path):
    path = written(tmp_path, "l.csv", b'case_id,activity,timestamp,note\r\n'
                   b'c1,A,2024-03-01T09:00:00Z,"a\r\nb"\r\n'
                   b'c1,B,2024-03-01T10:00:00Z,"c\rd"\r\n')
    events = read_log(path).traces[0].events
    assert [event.attributes["note"] for event in events] == ["a\nb", "c\nd"]


def test_a_csv_byte_order_mark_stays_in_the_first_header_name(tmp_path):
    path = written(tmp_path, "l.csv",
                   "\ufeffcase_id,activity,timestamp\nc1,A,2024-03-01T09:00:00Z\n".encode())
    with pytest.raises(MissingColumn) as err:
        read_log(path)
    assert str(err.value) == (
        "column 'case_id' not in header ['\\ufeffcase_id', 'activity', 'timestamp']")


EVENT = '<event><string key="concept:name" value="{}"/>' \
        '<date key="time:timestamp" value="2024-03-01T09:00:00Z"/></event>'


def test_an_xes_byte_order_mark_is_skipped(tmp_path):
    path = written(tmp_path, "l.xes", (
        '\ufeff<?xml version="1.0" encoding="UTF-8"?>'
        f"<log><trace>{EVENT.format('A')}</trace></log>").encode())
    [trace] = read_log(path).traces
    assert [event.activity for event in trace.events] == ["A"]


def test_an_xes_encoding_declaration_is_ignored(tmp_path):
    path = written(tmp_path, "l.xes", (
        '<?xml version="1.0" encoding="ISO-8859-1"?>'
        f"<log><trace>{EVENT.format('Zahlung é€')}</trace></log>").encode())
    [trace] = read_log(path).traces
    assert [event.activity for event in trace.events] == ["Zahlung é€"]


# ---------------------------------------------------------------------------
# Read boundaries: the file is read 8 KiB at a time, and XES text goes to
# expat 16 KiB at a time
# ---------------------------------------------------------------------------

BOUNDARIES = (8192, 16384, 65536)

CSV_ROW = "c1,A,2024-03-01T09:00:00Z,filler\n"
#: a CSV log: (head, one filler row, text before the piece, text after it, tail)
CSV_LAYOUT = ("case_id,activity,timestamp,note\n", CSV_ROW,
              "c2,B,2024-03-01T10:00:00Z,{open}", "{close}", CSV_ROW * 3)
#: piece -> (its text, what opens the cell that holds it, what closes that row)
CSV_PIECES = {
    "two-byte character": ("é", "", "\n"),
    "non-BMP character": ("\U0001d11e", "", "\n"),
    "CRLF": ("\r\n", "", ""),
    "quoted newline": ("\n", '"', '"\n'),
    "quoted CRLF": ("\r\n", '"', '"\n'),
}

XES_TRACE = f"<trace>{EVENT.format('A')}</trace>\n"
#: an XES log, whose traces have no case id and so get one each
XES_LAYOUT = ('<?xml version="1.0" encoding="UTF-8"?>\n<log>\n', XES_TRACE,
              '<trace><event><string key="concept:name" value="B"/>'
              '<date key="time:timestamp" value="2024-03-01T10:00:00Z"/>'
              '<string key="note" value="', '"/></event></trace>\n', XES_TRACE * 3 + "</log>\n")
#: piece -> its text, in an attribute value
XES_PIECES = {
    "two-byte character": "é",
    "non-BMP character": "\U0001d11e",
    "CRLF": "\r\n",
    "quoted newline": "\n",
}


def placed(layout, piece: str, at: int, **cell) -> bytes:
    """A log in ``layout`` whose ``piece`` starts at byte offset ``at``,
    after ASCII filler rows and padding."""
    head, filler, before, after, tail = layout
    before, after = before.format(**cell), after.format(**cell)
    count = (at - len(head) - len(before)) // len(filler)
    text = head + filler * count + before
    text += "x" * (at - len(text)) + piece + after + tail
    content = text.encode()
    assert content[at:at + len(piece.encode())] == piece.encode()
    return content


def offsets(piece: str) -> list[int]:
    """Each start of ``piece`` that puts a read boundary before it, after
    its first byte, or before its last byte."""
    size = len(piece.encode())
    return sorted({at for boundary in BOUNDARIES
                   for at in (boundary, boundary - 1, boundary - size + 1)})


@pytest.mark.parametrize("name", CSV_PIECES)
def test_csv_read_across_a_boundary_gives_the_whole_text_log(name, tmp_path):
    piece, open_cell, close_row = CSV_PIECES[name]
    for at in offsets(piece):
        path = written(tmp_path, f"{at}.csv",
                       placed(CSV_LAYOUT, piece, at, open=open_cell, close=close_row))
        assert read_log(path) == whole_text_log(path), at


@pytest.mark.parametrize("name", XES_PIECES)
def test_xes_read_across_a_boundary_gives_the_whole_text_log(name, tmp_path):
    piece = XES_PIECES[name]
    for at in offsets(piece):
        path = written(tmp_path, f"{at}.xes", placed(XES_LAYOUT, piece, at))
        assert read_log(path) == whole_text_log(path), at


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, content, error, message", [
    ("l.csv", b"case_id,activity,timestamp\nc1,,2024-03-01T09:00:00Z\n" + CSV_ROW.encode() * 3000,
     MissingActivity, "row 2: empty value in activity column"),
    ("l.xes", b"<log>" + XES_TRACE.encode() * 1000 + b"</trace>",
     MalformedDocument, "not well-formed XML at line 1001, column 2: mismatched tag"),
], ids=["csv", "xes"])
def test_an_error_in_a_utf8_file_is_raised_as_itself(tmp_path, name, content, error, message):
    with pytest.raises(error) as err:
        read_log(written(tmp_path, name, content))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Memory: the peak of a read stays near the log it builds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, text", [("l.csv", csv_log_text), ("l.xes", xes_log_text)])
def test_read_log_peaks_at_most_1_15_times_the_parsed_log(tmp_path, name, text):
    path = written(tmp_path, name, text(1000).encode())
    gc.collect()
    tracemalloc.start()
    try:
        log = read_log(path)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.traces) == 1000
    assert peak <= 1.15 * live, (peak, live)


#: bytes that are mostly UTF-8: text, bytes of any value, and pieces of
#: multi-byte sequences
MOSTLY_UTF8 = st.lists(st.one_of(
    st.text(max_size=4).map(str.encode),
    st.binary(max_size=3),
    st.sampled_from(["\u00e9", "\u20ac", "\U0001d11e", "\ud800"]).map(
        lambda c: c.encode("utf-8", "surrogatepass")).flatmap(
        lambda b: st.integers(1, len(b)).map(lambda n: b[:n])),
), max_size=12).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(MOSTLY_UTF8)
def test_the_bad_byte_is_named_as_bytes_decode_names_it(content):
    try:
        content.decode("utf-8")
        expected = None
    except UnicodeDecodeError as exc:
        expected = str(exc)
    for piece_bytes in (1, 2, 3, 5, 64):
        assert pm_tools._utf8_error(io.BytesIO(content), piece_bytes) == expected, piece_bytes


def early_error(name: str) -> bytes:
    """A 1,000-case log whose first event has no timestamp (XES) or whose
    second row's timestamp does not parse (CSV)."""
    if name.endswith(".csv"):
        head, first, second, rest = csv_log_text(1000).split("\n", 3)
        second = second.replace(second.split(",")[2], "not a time")
        return "\n".join((head, first, second, rest)).encode()
    text = xes_log_text(1000)
    start = text.index("<date")
    return (text[:start] + text[text.index("/>", start) + 2:]).encode()


@pytest.mark.parametrize("name", ["l.csv", "l.xes"])
def test_a_failing_read_peaks_at_most_a_quarter_of_the_file(tmp_path, name):
    content = early_error(name)
    path = written(tmp_path, name, content)
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(EventLogError):
            read_log(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * len(content), (peak, len(content))


def failing_read_log(path: str) -> None:
    with pytest.raises(MalformedDocument, match="not UTF-8 text"):
        read_log(path)


@pytest.mark.parametrize("name, text", [("l.csv", csv_log_text), ("l.xes", xes_log_text)])
def test_a_read_failing_at_its_last_byte_peaks_as_the_successful_read(tmp_path, name, text):
    """The parse reaches its peak before the UTF-8 check starts, so the
    check holds nothing beyond it."""
    content = text(1000).encode()
    peaks = []
    for read, path in ((read_log, written(tmp_path, name, content)),
                       (failing_read_log, written(tmp_path, "bad-" + name, content + b"\xff"))):
        gc.collect()
        tracemalloc.start()
        try:
            read(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    good, bad = peaks
    assert bad <= 1.05 * good, (bad, good)
