"""``parse_xes`` against the element-tree parser it replaced.

``reference_parse_xes`` below is that parser, kept as the oracle, with
conftest's ``reference_parse_timestamp`` for its dates: on the fixtures
and on generated documents, ``parse_xes`` must return an equal
EventLog or raise the same error class with the same message.  The one
intended difference is the MalformedDocument text, which now states the
position once; ``reference_outcome`` derives the new text from the
reference's own ParseError, so line and column are still checked.
"""

from __future__ import annotations

import gc
import tracemalloc
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta
from pathlib import Path
from xml.parsers.expat import ErrorString
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf.event_log import (
    DuplicateCaseId,
    Event,
    EventLog,
    EventLogError,
    MalformedDocument,
    MissingActivity,
    MissingTimestamp,
    Scalar,
    Trace,
    UnparsableTimestamp,
    parse_xes,
)

from conftest import DATA_DIR, T0, reference_parse_timestamp

SHIPPED_DIR = Path(__file__).resolve().parents[1] / "src" / "agwf" / "data"


# ---------------------------------------------------------------------------
# The reference: the element-tree parser
# ---------------------------------------------------------------------------

def _sorted_events(events: list[Event]) -> tuple[Event, ...]:
    return tuple(sorted(events, key=lambda e: e.timestamp))


def _local_tag(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _convert_xes_value(type_tag: str, value: str) -> Scalar:
    if type_tag == "int":
        try:
            return int(value)
        except ValueError:
            return value
    if type_tag == "float":
        try:
            return float(value)
        except ValueError:
            return value
    if type_tag == "boolean":
        lowered = value.strip().lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        return value
    if type_tag == "date":
        return reference_parse_timestamp(value)
    # "string" and any unknown type are preserved as text
    return value


def _collect_attributes(element: ET.Element, where: str) -> dict[str, Scalar]:
    attrs: dict[str, Scalar] = {}
    for child in element:
        tag = _local_tag(child.tag)
        if tag == "event":
            continue
        key = child.get("key")
        value = child.get("value")
        if key is None or value is None:
            continue
        try:
            attrs[key] = _convert_xes_value(tag, value)
        except ValueError:
            raise UnparsableTimestamp(
                f"{where}: cannot parse timestamp {value!r} for key {key!r}"
            ) from None
    return attrs


def reference_parse_xes(document: str, source_name: str = "") -> EventLog:
    """The element-tree parser that ``parse_xes`` replaced.

    Interprets log/trace/event elements and string/date/int/float/boolean
    attribute elements keyed by ``key``/``value``; unknown attribute types
    are preserved as text.  At event level ``concept:name`` becomes the
    activity and ``time:timestamp`` the timestamp; at trace level
    ``concept:name`` becomes the case id (``case_<index>`` when absent).

    Raises MalformedDocument, MissingActivity, MissingTimestamp,
    UnparsableTimestamp, or DuplicateCaseId.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = exc.position
        raise MalformedDocument(
            f"not well-formed XML at line {line}, column {column}: {exc.msg if hasattr(exc, 'msg') else exc}"
        ) from exc

    traces: list[Trace] = []
    seen_ids: set[str] = set()
    trace_index = 0
    for node in root:
        if _local_tag(node.tag) != "trace":
            continue
        case_attrs = _collect_attributes(node, f"trace {trace_index}")
        raw_case_id = case_attrs.pop("concept:name", None)
        case_id = str(raw_case_id) if raw_case_id is not None else f"case_{trace_index}"
        if case_id in seen_ids:
            raise DuplicateCaseId(f"case id {case_id!r} appears more than once")
        seen_ids.add(case_id)

        events: list[Event] = []
        event_index = 0
        for child in node:
            if _local_tag(child.tag) != "event":
                continue
            where = f"trace {case_id!r}, event {event_index}"
            attrs = _collect_attributes(child, where)
            raw_activity = attrs.pop("concept:name", None)
            activity = str(raw_activity) if raw_activity is not None else ""
            if not activity:
                raise MissingActivity(f"{where}: no concept:name")
            raw_ts = attrs.pop("time:timestamp", None)
            if raw_ts is None:
                raise MissingTimestamp(f"{where}: no time:timestamp")
            if not isinstance(raw_ts, datetime):
                # tolerated: timestamp encoded with a non-date element type
                try:
                    raw_ts = reference_parse_timestamp(str(raw_ts))
                except ValueError:
                    raise UnparsableTimestamp(
                        f"{where}: cannot parse timestamp {raw_ts!r}"
                    ) from None
            events.append(Event(activity=activity, timestamp=raw_ts, attributes=attrs))
            event_index += 1

        traces.append(
            Trace(case_id=case_id, case_attributes=case_attrs, events=_sorted_events(events))
        )
        trace_index += 1

    return EventLog(traces=tuple(traces), source_name=source_name)


def reference_outcome(document: str):
    try:
        return reference_parse_xes(document, "doc")
    except MalformedDocument as exc:
        # the reference quotes expat's position twice; parse_xes states it once
        cause = exc.__cause__
        line, column = cause.position
        return MalformedDocument, (
            f"not well-formed XML at line {line}, column {column}: {ErrorString(cause.code)}"
        )
    except EventLogError as exc:
        return type(exc), str(exc)


def outcome(document: str):
    try:
        return parse_xes(document, "doc")
    except EventLogError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Fixtures and generated documents
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "path",
    sorted(DATA_DIR.glob("*.xes")) + sorted(SHIPPED_DIR.glob("*.xes")),
    ids=lambda path: path.name,
)
def test_parse_xes_matches_the_reference_on_fixture(path):
    document = path.read_text(encoding="utf-8")
    assert outcome(document) == reference_outcome(document)


NS = "http://www.xes-standard.org/"
TYPES = ("string", "date", "int", "float", "boolean", "id", "mystery")
KEYS = ("concept:name", "time:timestamp", "gender", "age", "org:resource")
VALUES = (
    "A", "B", "c1", "c2", "", "x", "7", " 8 ", "2.5", "true", "FALSE", "é<&>\"'",
    "2024-03-01T09:00:00+00:00", "2024-03-01T09:00:00Z", "2024-03-01 09:05",
    "2024-13-45", "not a date",
)
TIMESTAMPS = (
    "2024-03-01T09:00:00+00:00", "2024-03-01T09:00:00Z", "2024-03-01T08:59:00",
    "2024-03-01T10:30:00+02:00", "2024-03-01T09:00:00+00:00", "bad",
)


def node(name: str, attrs: dict | None = None, children=()) -> tuple:
    return name, dict(attrs or {}), list(children)


def attribute(type_tag: str, key: str | None, value: str | None, key_name: str = "key"):
    attrs = {}
    if key is not None:
        attrs[key_name] = key
    if value is not None:
        attrs["value"] = value
    return node(type_tag, attrs)


#: attribute elements, now and then without key or value, or with a
#: prefixed ``x:key`` that is no ``key``
attributes = st.builds(
    attribute,
    st.sampled_from(TYPES),
    st.sampled_from(KEYS + (None,)),
    st.sampled_from(VALUES + (None,)),
    st.sampled_from(("key",) * 19 + ("x:key",)),
)
#: a list/container holds attributes (and has no value, or is itself one)
containers = st.builds(
    lambda name, key, value, children: node(name, {"key": key, **value}, children),
    st.sampled_from(("list", "container")),
    st.sampled_from(KEYS),
    st.sampled_from(({}, {}, {"value": "v"})),
    st.lists(attributes, max_size=2),
)


def _insert_somewhere(draw, children: list, child) -> None:
    children.insert(draw(st.integers(0, len(children))), child)


@st.composite
def events(draw):
    children = []
    if draw(st.integers(0, 9)):
        children.append(attribute("string", "concept:name", draw(st.sampled_from("ABC"))))
    if draw(st.integers(0, 9)):
        children.append(attribute(draw(st.sampled_from(("date",) * 5 + ("string",))),
                                  "time:timestamp", draw(st.sampled_from(TIMESTAMPS))))
    # an <event> below an event is no attribute, even with key and value
    nested_event = st.builds(lambda value: node("event", {"key": "k", "value": value}),
                             st.sampled_from(VALUES))
    for extra in draw(st.lists(st.one_of(attributes, containers, nested_event), max_size=3)):
        _insert_somewhere(draw, children, extra)
    return node("event", {}, children)


#: a <trace> below a trace: read as an attribute when it has key and value
nested_traces = st.builds(
    lambda attrs, children: node("trace", attrs, children),
    st.sampled_from(({}, {"key": "t", "value": "v"})),
    st.lists(events(), max_size=1),
)


@st.composite
def traces(draw):
    children = draw(st.lists(
        st.one_of(events(), events(), attributes, containers, nested_traces), max_size=4))
    if draw(st.integers(0, 4)):
        # the case id, possibly after the events, possibly a duplicate
        case_id = attribute("string", "concept:name", draw(st.sampled_from(("c1", "c2", "c3", "c4"))))
        _insert_somewhere(draw, children, case_id)
    return node("trace", {}, children)


#: log-level elements, some holding a <trace> below depth 2
log_children = st.one_of(
    traces(), traces(), traces(), attributes, containers,
    st.builds(lambda children: node("global", {"scope": "event"}, children),
              st.lists(st.one_of(attributes, traces()), max_size=2)),
    st.builds(lambda children: node("list", {"key": "l"}, children),
              st.lists(traces(), max_size=1)),
    st.just(node("extension", {"name": "Concept", "prefix": "concept", "uri": NS + "concept"})),
)


def serialize(element: tuple, tag_of) -> str:
    name, attrs, children = element
    tag = tag_of(name)
    text = "".join(f" {key}={quoteattr(value)}" for key, value in attrs.items())
    if not children:
        return f"<{tag}{text}/>"
    inner = "\n".join(serialize(child, tag_of) for child in children)
    return f"<{tag}{text}>\n{inner}\n</{tag}>"


@st.composite
def documents(draw):
    root = node(draw(st.sampled_from(("log", "log", "trace"))), {"xes.version": "1.0"},
                draw(st.lists(log_children, max_size=5)))
    mode = draw(st.sampled_from(("plain", "default", "prefix", "mixed")))
    if mode in ("default", "mixed"):
        root[1]["xmlns"] = NS
    if mode in ("prefix", "mixed"):
        root[1]["xmlns:x"] = NS + "other" if mode == "mixed" else NS
    if mode == "prefix":
        tag_of = "x:{}".format
    elif mode == "mixed":
        tag_of = lambda name: ("x:" if draw(st.booleans()) else "") + name  # noqa: E731
    else:
        tag_of = str
    text = draw(st.sampled_from(("", '<?xml version="1.0" encoding="UTF-8"?>\n<!-- c -->\n')))
    text += serialize(root, tag_of) + "\n"
    # a tail that breaks the syntax, often after a semantic error
    damage = draw(st.sampled_from(("none",) * 6 + ("truncate", "mismatch", "junk", "entity")))
    closing = text.rfind("</")
    if damage == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif damage in ("mismatch", "entity") and closing > 0:
        text = text[:closing] + ("</zzz>" if damage == "mismatch" else "&bogus;") + text[closing:]
    elif damage != "none":
        text += "<junk/>"
    return text


@given(documents())
@settings(max_examples=600, deadline=None)
def test_parse_xes_matches_the_reference_on_generated_documents(document):
    assert outcome(document) == reference_outcome(document)


# ---------------------------------------------------------------------------
# Order of errors
# ---------------------------------------------------------------------------

EVENT_WITHOUT_ACTIVITY = (
    '<event><date key="time:timestamp" value="2024-03-01T09:00:00Z"/></event>'
)


def test_a_syntax_error_after_a_semantic_error_wins():
    document = f"<log><trace>{EVENT_WITHOUT_ACTIVITY}</trace><trace></log>"
    with pytest.raises(MalformedDocument) as err:
        parse_xes(document)
    column = document.rindex("</log>") + 2  # expat points past the "</"
    assert str(err.value) == f"not well-formed XML at line 1, column {column}: mismatched tag"


def test_a_duplicate_case_id_after_the_events_comes_before_their_errors():
    case_id = '<string key="concept:name" value="c1"/>'
    document = (f"<log><trace>{case_id}</trace>"
                f"<trace>{EVENT_WITHOUT_ACTIVITY}{case_id}</trace></log>")
    with pytest.raises(DuplicateCaseId):
        parse_xes(document)
    with pytest.raises(MissingActivity):
        parse_xes(document.replace('value="c1"/></trace></log>', 'value="c2"/></trace></log>'))


# ---------------------------------------------------------------------------
# Memory: one trace at a time
# ---------------------------------------------------------------------------

def generated_log(cases: int) -> str:
    """A log in the layout of scripts/make_demo_fixtures.py."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">']
    for case in range(cases):
        lines += ["  <trace>",
                  f'    <string key="concept:name" value="case_{case:05d}"/>',
                  f'    <string key="gender" value="{"FM"[case % 2]}"/>',
                  f'    <int key="age" value="{20 + case % 45}"/>']
        for step in range(5 + case % 11):
            moment = T0 + timedelta(minutes=case + 7 * step)
            lines += ["    <event>",
                      f'      <string key="concept:name" value="Check Step {step % 9}"/>',
                      f'      <date key="time:timestamp" value="{moment.isoformat()}"/>',
                      "    </event>"]
        lines.append("  </trace>")
    lines.append("</log>")
    return "\n".join(lines) + "\n"


def test_parse_xes_peak_memory_stays_within_five_times_the_document():
    document = generated_log(1000)
    gc.collect()
    tracemalloc.start()
    try:
        log = parse_xes(document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log.traces) == 1000
    assert peak <= 5 * len(document.encode())
