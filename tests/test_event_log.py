from __future__ import annotations

import gc
import tracemalloc
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf.event_log import (
    DEFAULT_CSV_MAPPING,
    DURATION_SHIFT,
    FREQUENCY_SHIFT,
    NO_ATTRIBUTES,
    ONLY_IN_A,
    ONLY_IN_B,
    CsvMapping,
    Dfg,
    DfgEdgeStats,
    DuplicateCaseId,
    EmptyDocument,
    EmptyExpression,
    Event,
    EventLog,
    MalformedDocument,
    MissingActivity,
    MissingCaseId,
    MissingColumn,
    MissingTimestamp,
    PredicateSyntaxError,
    Trace,
    UnparsableTimestamp,
    compare_dfgs,
    discover_dfg,
    discover_variants,
    parse_csv,
    parse_predicate,
    parse_timestamp,
    parse_xes,
    split_log,
)

from conftest import T0, csv_log_text, make_log


# ---------------------------------------------------------------------------
# Independent oracles: naive double-loop counters
# ---------------------------------------------------------------------------

def naive_dfg(log: EventLog) -> Dfg:
    counts = {}
    durations = {}
    starts = {}
    ends = {}
    for trace in log.traces:
        if len(trace.events) == 0:
            continue
        starts[trace.events[0].activity] = starts.get(trace.events[0].activity, 0) + 1
        ends[trace.events[-1].activity] = ends.get(trace.events[-1].activity, 0) + 1
        for i in range(len(trace.events) - 1):
            a = trace.events[i]
            b = trace.events[i + 1]
            key = (a.activity, b.activity)
            counts[key] = counts.get(key, 0) + 1
            durations.setdefault(key, []).append(
                (b.timestamp - a.timestamp).total_seconds()
            )
    edges = {
        key: DfgEdgeStats(counts[key], sum(durations[key]) / counts[key])
        for key in counts
    }
    return Dfg(edges=edges, start_activities=starts, end_activities=ends)


def naive_variants(log: EventLog):
    groups = {}
    for trace in log.traces:
        seq = tuple(e.activity for e in trace.events)
        groups[seq] = groups.get(seq, 0) + 1
    return sorted(groups.items(), key=lambda kv: (-kv[1], kv[0]))


# ---------------------------------------------------------------------------
# XES parsing
# ---------------------------------------------------------------------------

MINIMAL_XES = """<?xml version="1.0"?>
<log>
  <trace>
    <string key="concept:name" value="c1"/>
    <event>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2024-03-01T09:00:00+00:00"/>
    </event>
    <event>
      <string key="concept:name" value="B"/>
      <date key="time:timestamp" value="2024-03-01T09:01:00+00:00"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes_minimal():
    log = parse_xes(MINIMAL_XES)
    assert len(log.traces) == 1
    trace = log.traces[0]
    assert trace.case_id == "c1"
    assert [e.activity for e in trace.events] == ["A", "B"]
    assert trace.events[0].timestamp == datetime(2024, 3, 1, 9, 0, tzinfo=timezone.utc)


def test_parse_xes_missing_timestamp_is_rejected(data_dir):
    doc = (data_dir / "missing_timestamp.xes").read_text()
    with pytest.raises(MissingTimestamp) as err:
        parse_xes(doc)
    assert "c1" in str(err.value)
    assert "event 1" in str(err.value)


def test_parse_xes_missing_activity_is_rejected(data_dir):
    doc = (data_dir / "missing_activity.xes").read_text()
    with pytest.raises(MissingActivity) as err:
        parse_xes(doc)
    assert "event 0" in str(err.value)


def test_parse_xes_malformed_reports_line(data_dir):
    doc = (data_dir / "malformed.xes").read_text()
    with pytest.raises(MalformedDocument) as err:
        parse_xes(doc)
    assert str(err.value) == "not well-formed XML at line 6, column 2: mismatched tag"


def test_parse_xes_two_trace_fixture_counts(data_dir):
    log = parse_xes((data_dir / "two_traces.xes").read_text())
    assert len(log.traces) == 2
    assert sum(len(t.events) for t in log.traces) == 5


def test_parse_xes_typed_attributes(data_dir):
    log = parse_xes((data_dir / "two_traces.xes").read_text())
    first, second = log.traces
    assert first.case_attributes == {"region": "north", "priority": 3}
    assert first.events[1].attributes == {"automated": True}
    assert second.events[0].attributes == {"cost": 12.5}


def test_parse_xes_unknown_attribute_type_kept_as_text():
    doc = """<log><trace>
      <string key="concept:name" value="c"/>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2024-01-01T00:00:00Z"/>
        <id key="ref" value="u-17"/>
      </event>
    </trace></log>"""
    log = parse_xes(doc)
    assert log.traces[0].events[0].attributes == {"ref": "u-17"}


def test_parse_xes_synthesizes_case_id():
    doc = """<log><trace>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2024-01-01T00:00:00Z"/>
      </event>
    </trace></log>"""
    log = parse_xes(doc)
    assert log.traces[0].case_id == "case_0"


def test_parse_xes_duplicate_case_id_rejected():
    doc = """<log>
      <trace><string key="concept:name" value="c"/></trace>
      <trace><string key="concept:name" value="c"/></trace>
    </log>"""
    with pytest.raises(DuplicateCaseId):
        parse_xes(doc)


def test_parse_xes_sorts_events_by_timestamp():
    doc = """<log><trace>
      <string key="concept:name" value="c"/>
      <event>
        <string key="concept:name" value="B"/>
        <date key="time:timestamp" value="2024-01-01T01:00:00Z"/>
      </event>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2024-01-01T00:00:00Z"/>
      </event>
    </trace></log>"""
    log = parse_xes(doc)
    assert [e.activity for e in log.traces[0].events] == ["A", "B"]


def test_parse_xes_namespaced_document():
    doc = MINIMAL_XES.replace("<log>", '<log xmlns="http://www.xes-standard.org/">')
    log = parse_xes(doc)
    assert [e.activity for e in log.traces[0].events] == ["A", "B"]


def test_parse_determinism(data_dir):
    doc = (data_dir / "two_traces.xes").read_text()
    assert parse_xes(doc) == parse_xes(doc)


def test_parse_timestamp_naive_is_utc():
    moment = parse_timestamp("2024-03-01T09:00:00")
    assert moment.tzinfo is not None
    assert moment.utcoffset().total_seconds() == 0


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

CSV_MAPPING = CsvMapping("case", "act", "ts")


def test_parse_csv_groups_by_case():
    doc = (
        "case,act,ts\n"
        "c1,A,2024-03-01T09:00:00+00:00\n"
        "c2,A,2024-03-01T09:00:00+00:00\n"
        "c1,B,2024-03-01T09:05:00+00:00\n"
    )
    log = parse_csv(doc, CSV_MAPPING)
    assert [t.case_id for t in log.traces] == ["c1", "c2"]
    assert [e.activity for e in log.traces[0].events] == ["A", "B"]


def test_parse_csv_resorts_out_of_order_rows():
    doc = (
        "case,act,ts\n"
        "c1,B,2024-03-01T09:05:00+00:00\n"
        "c1,A,2024-03-01T09:00:00+00:00\n"
    )
    log = parse_csv(doc, CSV_MAPPING)
    assert [e.activity for e in log.traces[0].events] == ["A", "B"]


def test_parse_csv_stable_on_duplicate_timestamps():
    doc = (
        "case,act,ts\n"
        "c1,A,2024-03-01T09:00:00+00:00\n"
        "c1,B,2024-03-01T09:00:00+00:00\n"
    )
    log = parse_csv(doc, CSV_MAPPING)
    assert [e.activity for e in log.traces[0].events] == ["A", "B"]


def test_parse_csv_extra_columns_become_attributes():
    doc = "case,act,ts,team\nc1,A,2024-03-01T09:00:00+00:00,ops\n"
    log = parse_csv(doc, CSV_MAPPING)
    assert log.traces[0].events[0].attributes == {"team": "ops"}


def test_parse_csv_missing_column():
    with pytest.raises(MissingColumn):
        parse_csv("case,act\nc1,A\n", CSV_MAPPING)


def test_parse_csv_empty_document():
    with pytest.raises(EmptyDocument):
        parse_csv("", CSV_MAPPING)


def test_parse_csv_unparsable_timestamp_reports_row(data_dir):
    doc = (data_dir / "bad_timestamp.csv").read_text()
    with pytest.raises(UnparsableTimestamp) as err:
        parse_csv(doc, CsvMapping("case_id", "activity", "timestamp"))
    assert "row 3" in str(err.value)


TS = "2024-03-01T09:00:00+00:00"


def test_parse_csv_skips_blank_rows_and_pads_short_ones():
    doc = f"case,act,ts,team\nc1,A,{TS},ops\n\nc1,B,{TS}\n"
    events = parse_csv(doc, CSV_MAPPING).traces[0].events
    assert [(e.activity, e.attributes) for e in events] == [
        ("A", {"team": "ops"}), ("B", {"team": ""})]


@pytest.mark.parametrize("doc, error, message", [
    (",,\n", EmptyDocument, "document has no header row"),
    (f"case,act,ts\nc1,A,{TS}\n,B,{TS}\n", MissingCaseId, "row 3: empty value in case column"),
    (f"case,act,ts\n\nc1,,{TS}\n", MissingActivity, "row 3: empty value in activity column"),
    ("case,act,ts\nc1,A\n", UnparsableTimestamp, "row 2: cannot parse timestamp ''"),
])
def test_parse_csv_row_errors_name_their_row(doc, error, message):
    with pytest.raises(error) as err:
        parse_csv(doc, CSV_MAPPING)
    assert str(err.value) == message


def test_parse_csv_rejects_a_row_longer_than_the_header():
    doc = f"case,act,ts\nc1,A,{TS}\n\nc1,B,{TS},extra,more\n"
    with pytest.raises(MalformedDocument) as err:
        parse_csv(doc, CSV_MAPPING)
    assert str(err.value) == "row 4: 5 cells, but the header has 3"


@pytest.mark.parametrize("header, column", [
    ("case,act,ts,case", "case"),
    ("case,act,ts,team,team", "team"),
    ("case,act,ts,,", ""),
])
def test_parse_csv_rejects_a_duplicate_header_name(header, column):
    with pytest.raises(MalformedDocument) as err:
        parse_csv(f"{header}\nc1,A,{TS},x,y\n", CSV_MAPPING)
    assert str(err.value) == f"column {column!r} appears more than once in the header"


def test_parse_csv_rfc4180_quoting():
    doc = 'case,act,ts\nc1,"Pay, twice",2024-03-01T09:00:00+00:00\n'
    log = parse_csv(doc, CSV_MAPPING)
    assert log.traces[0].events[0].activity == "Pay, twice"


# ---------------------------------------------------------------------------
# The log model: slotted classes, shared read-only attributes
# ---------------------------------------------------------------------------

def test_event_attributes_are_read_only():
    csv_event = parse_csv(f"case,act,ts,team\nc1,A,{TS},ops\n", CSV_MAPPING).traces[0].events[0]
    xes_event = parse_xes(MINIMAL_XES).traces[0].events[0]
    for event in (csv_event, xes_event, Event("A", T0)):
        with pytest.raises(TypeError):
            event.attributes["team"] = "x"


@pytest.mark.parametrize("columns, cells", [
    ("team", ["ops", "ops", "dev", "ops"]),
    ("team,cost", ["ops,1", "ops,1", "ops,2", "ops,1"]),
])
def test_csv_events_with_equal_cells_share_one_mapping(columns, cells):
    doc = f"case,act,ts,{columns}\n" + "".join(
        f"c{i % 2},A,{TS},{row}\n" for i, row in enumerate(cells))
    events = [event for trace in parse_csv(doc, CSV_MAPPING).traces for event in trace.events]
    first, third, second, fourth = events  # c0's two rows, then c1's
    assert first.attributes is second.attributes is fourth.attributes
    assert third.attributes is not first.attributes
    assert dict(third.attributes) != dict(first.attributes)


def test_events_without_extra_attributes_share_the_empty_mapping():
    xes_events = [event for trace in parse_xes(MINIMAL_XES).traces for event in trace.events]
    csv_events = parse_csv(f"case,act,ts\nc1,A,{TS}\n", CSV_MAPPING).traces[0].events
    for event in (*xes_events, *csv_events, Event("A", T0)):
        assert event.attributes is NO_ATTRIBUTES
    assert NO_ATTRIBUTES == {}


def test_traces_without_case_attributes_share_the_empty_mapping(data_dir):
    csv_traces = parse_csv(f"case,act,ts,team\nc1,A,{TS},ops\nc2,A,{TS},dev\n", CSV_MAPPING).traces
    for trace in (*csv_traces, *parse_xes(MINIMAL_XES).traces, Trace("c1")):
        assert trace.case_attributes is NO_ATTRIBUTES
    # a trace with case attributes besides its concept:name keeps a dict of its own
    first, second = parse_xes((data_dir / "two_traces.xes").read_text()).traces
    assert type(first.case_attributes) is dict and type(second.case_attributes) is dict
    assert first.case_attributes is not second.case_attributes


def test_each_parse_keeps_one_string_per_activity():
    # a one-character name would be one object anyway
    doc = f"case,act,ts\nc1,Approve,{TS}\nc2,Approve,{TS}\n"
    first, second = (trace.events[0] for trace in parse_csv(doc, CSV_MAPPING).traces)
    assert first.activity is second.activity
    xes = MINIMAL_XES.replace('value="A"', 'value="Approve"').replace('value="B"', 'value="Approve"')
    first, second = parse_xes(xes).traces[0].events
    assert first.activity is second.activity


def test_events_and_traces_have_no_instance_dict():
    trace = parse_csv(f"case,act,ts\nc1,A,{TS}\n", CSV_MAPPING).traces[0]
    assert not hasattr(trace, "__dict__")
    assert not hasattr(trace.events[0], "__dict__")


def test_a_parsed_csv_log_holds_at_most_250_bytes_per_event():
    document = csv_log_text(300)
    gc.collect()
    tracemalloc.start()
    try:
        log = parse_csv(document, DEFAULT_CSV_MAPPING)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    events = sum(len(trace.events) for trace in log.traces)
    assert events > 2500
    assert live / events <= 250


# ---------------------------------------------------------------------------
# DFG discovery
# ---------------------------------------------------------------------------

def test_discover_dfg_example():
    log = make_log([["a", "b", "c"], ["a", "c"]])
    dfg = discover_dfg(log)
    freqs = {edge: stats.frequency for edge, stats in dfg.edges.items()}
    assert freqs == {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1}
    assert dfg.start_activities == {"a": 2}
    assert dfg.end_activities == {"c": 2}


def test_discover_dfg_empty_log():
    dfg = discover_dfg(EventLog())
    assert dfg.edges == {}
    assert dfg.start_activities == {}
    assert dfg.end_activities == {}


def test_discover_dfg_self_loop():
    dfg = discover_dfg(make_log([["a", "a", "a"]]))
    assert dfg.edges[("a", "a")].frequency == 2


def test_discover_dfg_mean_duration():
    # a->b occurs twice: 60s and 180s apart -> mean 120s
    log = make_log([["a", "b"]], step_seconds=60)
    log2 = make_log([["a", "b"]], step_seconds=180)
    merged = EventLog(traces=log.traces + log2.traces)
    dfg = discover_dfg(merged)
    assert dfg.edges[("a", "b")].mean_duration_seconds == 120.0


# ---------------------------------------------------------------------------
# Variant discovery
# ---------------------------------------------------------------------------

def test_discover_variants_example():
    table = discover_variants(make_log([["a", "b"], ["a", "b"], ["a", "c"]]))
    assert [(v.activity_sequence, v.count) for v in table.variants] == [
        (("a", "b"), 2),
        (("a", "c"), 1),
    ]


def test_discover_variants_empty():
    assert discover_variants(EventLog()).variants == ()


def test_discover_variants_tie_break_is_lexicographic():
    table = discover_variants(make_log([["b", "a"], ["a", "b"]]))
    assert [v.activity_sequence for v in table.variants] == [("a", "b"), ("b", "a")]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def test_parse_predicate_single_comparison():
    pred = parse_predicate('gender = "F"')
    assert len(pred.comparisons) == 1
    assert pred.comparisons[0].attribute == "gender"
    assert pred.comparisons[0].operator == "="
    assert pred.comparisons[0].literal == "F"


def test_parse_predicate_conjunction():
    pred = parse_predicate('gender = "F" and age < 30')
    assert len(pred.comparisons) == 2
    assert pred.comparisons[1].literal == 30


def test_parse_predicate_double_equals_rejected():
    expr = "gender =="
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate(expr)
    assert err.value.offset == expr.index("==")


def test_parse_predicate_empty():
    with pytest.raises(EmptyExpression):
        parse_predicate("   ")


def test_parse_predicate_literals_and_operators():
    pred = parse_predicate("x != 1.5 and done = true and name >= 'k'")
    assert pred.comparisons[0].literal == 1.5
    assert pred.comparisons[1].literal is True
    assert pred.comparisons[2].operator == ">="


def test_parse_predicate_unicode_operators():
    pred = parse_predicate("age ≤ 30 and age ≠ 20")
    assert pred.comparisons[0].operator == "<="
    assert pred.comparisons[1].operator == "!="


def test_predicate_missing_attribute_is_false():
    pred = parse_predicate("age < 30")
    log = make_log([["a"]], case_attrs=[{}])
    assert not pred.matches(log.traces[0])


def test_predicate_incomparable_types_are_false():
    pred = parse_predicate("age < 30")
    log = make_log([["a"]], case_attrs=[{"age": "young"}])
    assert not pred.matches(log.traces[0])


def test_predicate_numeric_and_bool_semantics():
    log = make_log([["a"]], case_attrs=[{"age": 25, "active": True}])
    trace = log.traces[0]
    assert parse_predicate("age < 30").matches(trace)
    assert parse_predicate("active = true").matches(trace)
    # bool never compares against numbers
    assert not parse_predicate("active = 1").matches(trace)


#: (case attribute value, predicate on attribute "v", expected match)
PREDICATE_TABLE = [
    # int against int
    (25, "v = 25", True), (25, "v = 30", False),
    (25, "v != 25", False), (25, "v != 30", True),
    (25, "v < 30", True), (25, "v < 25", False),
    (25, "v <= 25", True), (25, "v <= 24", False),
    (25, "v > 24", True), (25, "v > 25", False),
    (25, "v >= 25", True), (25, "v >= 26", False),
    # float against int and float, int against float
    (2.5, "v = 2.5", True), (2.5, "v = 2", False),
    (2.5, "v != 2", True), (2.5, "v != 2.5", False),
    (2.5, "v < 3", True), (2.5, "v < 2.5", False),
    (2.5, "v <= 2.5", True), (2.5, "v <= 2.4", False),
    (2.5, "v > 2", True), (2.5, "v > 2.5", False),
    (2.5, "v >= 2.5", True), (2.5, "v >= 2.6", False),
    (25, "v = 25.0", True), (25, "v < 25.5", True), (25, "v > 24.5", True),
    # text against text, ordered by code point
    ("m", "v = 'm'", True), ("m", 'v = "n"', False),
    ("m", "v != 'm'", False), ("m", "v != 'n'", True),
    ("m", "v < 'n'", True), ("m", "v < 'm'", False),
    ("m", "v <= 'm'", True), ("m", "v <= 'l'", False),
    ("m", "v > 'l'", True), ("m", "v > 'm'", False),
    ("m", "v >= 'm'", True), ("m", "v >= 'n'", False),
    ("B", "v < 'a'", True),
    # bool against bool: equality only, ordering never matches
    (True, "v = true", True), (True, "v = false", False),
    (True, "v != false", True), (True, "v != true", False),
    (False, "v = false", True), (False, "v != true", True),
    (True, "v < true", False), (False, "v < true", False),
    (True, "v <= true", False), (True, "v > false", False),
    (True, "v >= true", False), (False, "v >= false", False),
    # mixed kinds never match, not even under !=
    (True, "v = 1", False), (True, "v != 1", False), (False, "v != 0", False),
    (1, "v = true", False), (0, "v != true", False), (1.0, "v >= false", False),
    ("25", "v = 25", False), ("25", "v != 25", False), ("25", "v < 30", False),
    (25, "v = '25'", False), (25, "v != '25'", False), (2.5, "v > 'a'", False),
    ("true", "v = true", False), (True, "v = 'true'", False),
]


@pytest.mark.parametrize("value, expression, expected", PREDICATE_TABLE)
def test_predicate_operator_table(value, expression, expected):
    trace = make_log([["a"]], case_attrs=[{"v": value}]).traces[0]
    assert parse_predicate(expression).matches(trace) is expected


#: (expression, error message, character offset)
PREDICATE_SYNTAX_ERRORS = [
    ("= 5", "expected attribute name", 0),
    ("  9x = 1", "expected attribute name", 2),
    ("age = 1 and = 2", "expected attribute name", 12),
    ("gender == 'F'", "unsupported operator '=='", 7),
    ("age ~ 3", "expected comparison operator", 4),
    ("age", "expected comparison operator", 3),
    ("age <", "expected literal", 5),
    ("age < x", "expected literal", 6),
    ("name = 'abc", "unterminated quoted text", 7),
    ('name = "abc', "unterminated quoted text", 7),
    ("age < 3 or b = 1", "expected 'and'", 8),
    ("a = 1 andy = 2", "expected 'and'", 6),
]


@pytest.mark.parametrize("expression, message, offset", PREDICATE_SYNTAX_ERRORS)
def test_predicate_syntax_error_message_and_offset(expression, message, offset):
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate(expression)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (at offset {offset})"


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def test_split_log_by_gender(data_dir):
    log = parse_xes((data_dir / "fairness_small.xes").read_text())
    protected, rest = split_log(log, parse_predicate('gender = "F"'))
    assert len(protected.traces) == 2
    assert len(rest.traces) == 2
    assert {t.case_id for t in protected.traces} == {"p1", "p2"}


def test_split_log_unknown_attribute_puts_all_in_rest():
    log = make_log([["a"], ["b"]], case_attrs=[{}, {}])
    protected, rest = split_log(log, parse_predicate("ghost = 1"))
    assert protected.traces == ()
    assert len(rest.traces) == 2


def test_split_log_all_match():
    log = make_log([["a"], ["b"]], case_attrs=[{"k": 1}, {"k": 1}])
    protected, rest = split_log(log, parse_predicate("k = 1"))
    assert len(protected.traces) == 2
    assert rest.traces == ()


# ---------------------------------------------------------------------------
# DFG comparison
# ---------------------------------------------------------------------------

def _dfg(freqs, durs=None):
    durs = durs or {}
    return Dfg(
        edges={
            edge: DfgEdgeStats(n, durs.get(edge, 0.0)) for edge, n in freqs.items()
        },
        start_activities={},
        end_activities={},
    )


def test_compare_dfgs_only_in_a():
    a = _dfg({("Request", "Extra Check"): 5})
    b = _dfg({("Request", "Approve"): 5})
    cmp = compare_dfgs(a, b, 0.05)
    kinds = {f.edge: f.kind for f in cmp.findings}
    assert kinds[("Request", "Extra Check")] == ONLY_IN_A
    assert kinds[("Request", "Approve")] == ONLY_IN_B


def test_compare_dfgs_identical_is_empty():
    a = _dfg({("x", "y"): 3}, {("x", "y"): 10.0})
    assert compare_dfgs(a, a, 0.05).findings == ()


def test_compare_dfgs_frequency_shift_value():
    # x->y carries 9 of 10 in a but 1 of 10 in b -> relative difference 0.8
    a = _dfg({("x", "y"): 9, ("y", "z"): 1})
    b = _dfg({("x", "y"): 1, ("y", "z"): 9})
    cmp = compare_dfgs(a, b, 0.05)
    shift = [f for f in cmp.findings if f.kind == FREQUENCY_SHIFT and f.edge == ("x", "y")]
    assert len(shift) == 1
    assert shift[0].relative_difference == pytest.approx(0.8)
    assert cmp.total_a == 10 and cmp.total_b == 10


def test_compare_dfgs_duration_shift():
    a = _dfg({("x", "y"): 2}, {("x", "y"): 10.0})
    b = _dfg({("x", "y"): 2}, {("x", "y"): 40.0})
    cmp = compare_dfgs(a, b, 0.05)
    assert [f.kind for f in cmp.findings] == [DURATION_SHIFT]
    assert cmp.findings[0].relative_difference == pytest.approx(-0.75)


def test_compare_dfgs_sorted_by_magnitude():
    a = _dfg({("x", "y"): 9, ("y", "z"): 1, ("q", "r"): 0 or 1})
    b = _dfg({("x", "y"): 1, ("y", "z"): 9, ("s", "t"): 1})
    cmp = compare_dfgs(a, b, 0.05)
    mags = [abs(f.relative_difference) for f in cmp.findings]
    assert mags == sorted(mags, reverse=True)


def test_compare_dfgs_empty_inputs():
    cmp = compare_dfgs(_dfg({}), _dfg({}), 0.05)
    assert cmp.findings == ()
    assert cmp.total_a == 0 and cmp.total_b == 0


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

activity_names = st.sampled_from(["a", "b", "c", "d"])
log_shapes = st.lists(
    st.lists(activity_names, min_size=0, max_size=6), min_size=0, max_size=6
)


@given(log_shapes)
@settings(max_examples=150, deadline=None)
def test_dfg_matches_naive_counter(shapes):
    log = make_log(shapes)
    assert discover_dfg(log) == naive_dfg(log)


@given(log_shapes)
@settings(max_examples=150, deadline=None)
def test_variants_match_naive_grouping(shapes):
    log = make_log(shapes)
    table = discover_variants(log)
    assert [(v.activity_sequence, v.count) for v in table.variants] == naive_variants(log)


@given(log_shapes)
@settings(max_examples=100, deadline=None)
def test_variant_counts_sum_to_trace_count(shapes):
    log = make_log(shapes)
    assert sum(v.count for v in discover_variants(log).variants) == len(log.traces)


@given(
    st.lists(
        st.fixed_dictionaries({"group": st.sampled_from(["F", "M"]), "age": st.integers(0, 90)}),
        min_size=0,
        max_size=8,
    ),
    st.sampled_from(['group = "F"', "age < 40", 'group != "M" and age >= 10']),
)
@settings(max_examples=100, deadline=None)
def test_split_recombines_to_input(attrs, expression):
    log = make_log([["a"]] * len(attrs), case_attrs=attrs)
    left, right = split_log(log, parse_predicate(expression))
    combined = sorted(t.case_id for t in left.traces + right.traces)
    assert combined == sorted(t.case_id for t in log.traces)
    assert set(t.case_id for t in left.traces).isdisjoint(
        t.case_id for t in right.traces
    )


@given(log_shapes.filter(lambda s: len(s) > 0), st.data())
@settings(max_examples=100, deadline=None)
def test_removing_a_trace_never_increases_counts(shapes, data):
    log = make_log(shapes)
    drop = data.draw(st.integers(0, len(shapes) - 1))
    smaller = EventLog(traces=log.traces[:drop] + log.traces[drop + 1:])
    full_dfg = discover_dfg(log)
    small_dfg = discover_dfg(smaller)
    for edge, stats in small_dfg.edges.items():
        assert stats.frequency <= full_dfg.edges[edge].frequency
    full_counts = {v.activity_sequence: v.count for v in discover_variants(log).variants}
    for variant in discover_variants(smaller).variants:
        assert variant.count <= full_counts[variant.activity_sequence]
