"""Event-log model and deterministic process-mining operations.

Parses XES and CSV documents into an in-memory model (EventLog / Trace /
Event) and computes the behavioral artifacts the tool layer exposes:
directly-follows graphs, variants, predicate splits, and DFG comparison
findings.  Every operation is a pure function of its inputs; parsing
the same document twice yields structurally identical results.

Event and Trace are slotted classes, so a log of many events stays small.
An event's attributes are a read-only mapping that events may share: every
event without extra attributes holds ``NO_ATTRIBUTES``, and within one CSV
parse, events with equal attribute cells hold one mapping.  Every trace
without case attributes holds ``NO_ATTRIBUTES`` too, and within one XES
parse, traces whose case attributes are written alike hold one mapping.
Each parse keeps one string object per distinct activity name.
"""

from __future__ import annotations

import csv
import io
import operator
import re
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from types import MappingProxyType
from typing import Callable, Mapping, TextIO, Union
from xml.parsers.expat import ErrorString

from ._value import FrozenValue, Value

Scalar = Union[str, int, float, bool, datetime]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class EventLogError(Exception):
    """Base class for parsing and predicate errors in this module."""


class MalformedDocument(EventLogError):
    pass


class MissingActivity(EventLogError):
    pass


class MissingTimestamp(EventLogError):
    pass


class UnparsableTimestamp(EventLogError):
    pass


class MissingColumn(EventLogError):
    pass


class MissingCaseId(EventLogError):
    pass


class DuplicateCaseId(EventLogError):
    pass


class EmptyDocument(EventLogError):
    pass


class EmptyExpression(EventLogError):
    pass


class PredicateSyntaxError(EventLogError):
    """Carries the character offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

#: the one empty attribute mapping: the default, and what every parsed event
#: or trace without extra attributes holds
NO_ATTRIBUTES: Mapping[str, Scalar] = MappingProxyType({})


class Event(Value):
    """One activity execution: non-empty label, tz-aware timestamp, extras."""

    __slots__ = ("activity", "timestamp", "attributes")

    def __init__(self, activity: str, timestamp: datetime,
                 attributes: Mapping[str, Scalar] = NO_ATTRIBUTES):
        self.activity = activity
        self.timestamp = timestamp
        self.attributes = attributes


class Trace(Value):
    """One case: events sorted by timestamp (stable on ties)."""

    __slots__ = ("case_id", "case_attributes", "events")

    def __init__(self, case_id: str, case_attributes: Mapping[str, Scalar] = NO_ATTRIBUTES,
                 events: tuple[Event, ...] = ()):
        self.case_id = case_id
        self.case_attributes = case_attributes
        self.events = events


class EventLog(FrozenValue):
    __slots__ = ("traces", "source_name")

    def __init__(self, traces: tuple[Trace, ...] = (), source_name: str = ""):
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "source_name", source_name)


class DfgEdgeStats(FrozenValue):
    __slots__ = ("frequency", "mean_duration_seconds")

    def __init__(self, frequency: int, mean_duration_seconds: float):
        object.__setattr__(self, "frequency", frequency)
        object.__setattr__(self, "mean_duration_seconds", mean_duration_seconds)


class Dfg(FrozenValue):
    """Directly-follows graph: edge frequencies/durations plus endpoints.

    Its maps are not changed after it is built, so what is derived from
    them, such as ranked_edges, is computed once per DFG.
    """

    __slots__ = ("edges", "start_activities", "end_activities", "_ranked_edges")

    def __init__(self, edges: dict[tuple[str, str], DfgEdgeStats] | None = None,
                 start_activities: dict[str, int] | None = None,
                 end_activities: dict[str, int] | None = None):
        object.__setattr__(self, "edges", {} if edges is None else edges)
        object.__setattr__(self, "start_activities",
                           {} if start_activities is None else start_activities)
        object.__setattr__(self, "end_activities",
                           {} if end_activities is None else end_activities)
        object.__setattr__(self, "_ranked_edges", None)

    @property
    def ranked_edges(self) -> tuple[tuple[str, str], ...]:
        """The edge keys, strongest first: by (-frequency, edge)."""
        if self._ranked_edges is None:
            edges = self.edges
            object.__setattr__(self, "_ranked_edges", tuple(
                sorted(edges, key=lambda edge: (-edges[edge].frequency, edge))))
        return self._ranked_edges


class Variant(FrozenValue):
    """A distinct activity sequence and the number of traces that follow it."""

    __slots__ = ("activity_sequence", "count")

    def __init__(self, activity_sequence: tuple[str, ...], count: int):
        object.__setattr__(self, "activity_sequence", activity_sequence)
        object.__setattr__(self, "count", count)


class Comparison(FrozenValue):
    __slots__ = ("attribute", "operator", "literal")

    def __init__(self, attribute: str, operator: str, literal: Scalar):
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "literal", literal)


class CasePredicate(FrozenValue):
    """Conjunction of attribute comparisons over case-level attributes.

    Evaluation is total: a missing attribute or an incomparable value
    pair makes the individual comparison false, never an error.
    """

    __slots__ = ("comparisons",)

    def __init__(self, comparisons: tuple[Comparison, ...]):
        object.__setattr__(self, "comparisons", comparisons)

    def matches(self, trace: Trace) -> bool:
        return all(
            _evaluate_comparison(trace.case_attributes, c) for c in self.comparisons
        )


ONLY_IN_A = "only_in_a"
ONLY_IN_B = "only_in_b"
FREQUENCY_SHIFT = "frequency_shift"
DURATION_SHIFT = "duration_shift"


class ComparisonFinding(FrozenValue):
    """One behavioral difference of an edge between graphs A and B.

    ``kind`` is one of ONLY_IN_A, ONLY_IN_B, FREQUENCY_SHIFT and
    DURATION_SHIFT.  ``relative_difference`` ranks findings: its magnitude
    is the finding's strength.  ``a`` and ``b`` are the two quantities
    compared, as the finding's text prints them: the edge's frequencies
    (ints) for ONLY_IN_A and ONLY_IN_B, its relative frequencies (edge
    frequency over the graph's total) for FREQUENCY_SHIFT, and its mean
    durations in seconds for DURATION_SHIFT.
    """

    __slots__ = ("edge", "kind", "relative_difference", "a", "b")

    def __init__(self, edge: tuple[str, str], kind: str, relative_difference: float,
                 a: float, b: float):
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "relative_difference", relative_difference)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


# ---------------------------------------------------------------------------
# Timestamp handling
# ---------------------------------------------------------------------------

def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 instant; naive values are taken as UTC."""
    try:
        moment = datetime.fromisoformat(text)
    except ValueError:  # surrounding whitespace, a "z" suffix, or junk
        cleaned = text.strip()
        if cleaned.endswith(("Z", "z")):
            cleaned = cleaned[:-1] + "+00:00"
        moment = datetime.fromisoformat(cleaned)  # ValueError on junk
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment


_timestamp_of = operator.attrgetter("timestamp")


def _sorted_events(events: list[Event]) -> tuple[Event, ...]:
    # stable: equal timestamps keep source-document order
    return tuple(sorted(events, key=_timestamp_of))


# ---------------------------------------------------------------------------
# XES parsing
# ---------------------------------------------------------------------------

#: the document goes to expat in reads of this many characters, so no UTF-8
#: copy of the whole document is made
_FEED_CHARS = 1 << 14


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
        return parse_timestamp(value)
    # "string" and any unknown type are preserved as text
    return value


def _attributes(
    triples: list[tuple[str, str, str]], where: Callable[[], str]
) -> dict[str, Scalar]:
    """Convert (type, key, value) triples in document order; a later key
    wins.  ``where()`` names the element in an error message."""
    attrs: dict[str, Scalar] = {}
    for type_tag, key, value in triples:
        try:
            attrs[key] = _convert_xes_value(type_tag, value)
        except ValueError:
            raise UnparsableTimestamp(
                f"{where()}: cannot parse timestamp {value!r} for key {key!r}"
            ) from None
    return attrs


class _XesReader:
    """Parser target that builds one Trace at each ``</trace>``.

    Depth 1 is the root element.  A depth-2 element named ``trace`` is a
    trace.  In a trace, a depth-3 ``event`` is an event, and any other
    depth-3 element with both ``key`` and ``value`` is a trace attribute
    whose type is its local name.  Below an event, any depth-4 element
    except ``event`` with both is an event attribute.  Nothing else is
    read.  An open trace keeps only raw (type, key, value) triples, which
    are converted once it ends, so its attributes and case id are checked
    before its events.  Traces whose raw case triples other than
    ``concept:name`` are equal share one mapping: the raw text, not the
    converted values, so ``int 1`` and ``boolean true`` stay apart.  The
    first semantic error is recorded, not raised, so that a syntax error
    later in the document still wins.
    """

    def __init__(self):
        self.traces: list[Trace] = []
        self.error: EventLogError | None = None
        self._seen_ids: set[str] = set()
        self._names: dict[str, str] = {}  # tag -> local name
        self._strings: dict[str, str] = {}  # one object per activity name and attribute key
        self._case_attributes: dict[str, Mapping[str, Scalar]] = {}  # raw text -> mapping
        self._depth = 0
        self._trace: list[tuple[str, str, str]] | None = None
        self._events: list[list[tuple[str, str, str]]] = []
        self._event: list[tuple[str, str, str]] | None = None

    def _local(self, tag: str) -> str:
        name = self._names.get(tag)
        if name is None:
            name = self._names[tag] = tag.rsplit("}", 1)[-1]
        return name

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        self._depth = depth = self._depth + 1
        if depth == 4:
            if self._event is not None:
                key, value = attrib.get("key"), attrib.get("value")
                if key is not None and value is not None:
                    name = self._local(tag)
                    if name != "event":
                        self._event.append((name, self._strings.setdefault(key, key), value))
        elif depth == 3:
            if self._trace is not None:
                name = self._local(tag)
                if name == "event":
                    self._event = []
                    self._events.append(self._event)
                else:
                    key, value = attrib.get("key"), attrib.get("value")
                    if key is not None and value is not None:
                        self._trace.append((name, self._strings.setdefault(key, key), value))
        elif depth == 2 and self.error is None and self._local(tag) == "trace":
            self._trace, self._events = [], []

    def end(self, tag: str) -> None:
        depth = self._depth
        self._depth = depth - 1
        if depth == 3:
            self._event = None
        elif depth == 2 and self._trace is not None:
            try:
                self.traces.append(self._build_trace(self._trace, self._events))
            except EventLogError as exc:
                self.error = exc
            self._trace, self._events = None, []

    def _build_trace(self, case_triples, event_triples) -> Trace:
        trace_index = len(self.traces)
        case_attrs = _attributes(case_triples, lambda: f"trace {trace_index}")
        raw_case_id = case_attrs.pop("concept:name", None)
        case_id = str(raw_case_id) if raw_case_id is not None else f"case_{trace_index}"
        if case_id in self._seen_ids:
            raise DuplicateCaseId(f"case id {case_id!r} appears more than once")
        self._seen_ids.add(case_id)

        def where() -> str:  # formatted only for an error, at the current event_index
            return f"trace {case_id!r}, event {event_index}"

        intern = self._strings.setdefault
        events: list[Event] = []
        for event_index, triples in enumerate(event_triples):
            attrs = _attributes(triples, where)
            raw_activity = attrs.pop("concept:name", None)
            activity = str(raw_activity) if raw_activity is not None else ""
            if not activity:
                raise MissingActivity(f"{where()}: no concept:name")
            raw_ts = attrs.pop("time:timestamp", None)
            if raw_ts is None:
                raise MissingTimestamp(f"{where()}: no time:timestamp")
            if not isinstance(raw_ts, datetime):
                # tolerated: timestamp encoded with a non-date element type
                try:
                    raw_ts = parse_timestamp(str(raw_ts))
                except ValueError:
                    raise UnparsableTimestamp(
                        f"{where()}: cannot parse timestamp {raw_ts!r}"
                    ) from None
            events.append(Event(intern(activity, activity), raw_ts,
                                MappingProxyType(attrs) if attrs else NO_ATTRIBUTES))
        if case_attrs:
            # expat delivers no U+0000 or U+0001 in a name or value
            key = "\0".join("\1".join(triple) for triple in case_triples
                            if triple[1] != "concept:name")
            shared = self._case_attributes.get(key)
            if shared is None:
                shared = self._case_attributes[key] = MappingProxyType(case_attrs)
        else:
            shared = NO_ATTRIBUTES
        return Trace(case_id, shared, _sorted_events(events))


def parse_xes(document: str | TextIO, source_name: str = "") -> EventLog:
    """Parse an XES document, given as text or a text stream, into an
    EventLog, one trace at a time.

    Interprets log/trace/event elements and string/date/int/float/boolean
    attribute elements keyed by ``key``/``value``; unknown attribute types
    are preserved as text.  At event level ``concept:name`` becomes the
    activity and ``time:timestamp`` the timestamp; at trace level
    ``concept:name`` becomes the case id (``case_<index>`` when absent).
    See ``_XesReader`` for which elements are read.

    Raises MalformedDocument (which wins over any other error),
    MissingActivity, MissingTimestamp, UnparsableTimestamp, or
    DuplicateCaseId.
    """
    if isinstance(document, str):
        document = io.StringIO(document)
    reader = _XesReader()
    parser = ET.XMLParser(target=reader)
    try:
        # text is fed as text, so an encoding declaration is not honoured
        for chunk in iter(lambda: document.read(_FEED_CHARS), ""):
            parser.feed(chunk)
        parser.close()
    except ET.ParseError as exc:
        line, column = exc.position
        raise MalformedDocument(
            f"not well-formed XML at line {line}, column {column}: {ErrorString(exc.code)}"
        ) from exc
    if reader.error is not None:
        raise reader.error
    return EventLog(traces=tuple(reader.traces), source_name=source_name)


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

class CsvMapping(FrozenValue):
    """Column mapping for CSV ingestion; timestamps are ISO-8601."""

    __slots__ = ("case_column", "activity_column", "timestamp_column")

    def __init__(self, case_column: str, activity_column: str, timestamp_column: str):
        object.__setattr__(self, "case_column", case_column)
        object.__setattr__(self, "activity_column", activity_column)
        object.__setattr__(self, "timestamp_column", timestamp_column)


#: convention used when a CSV file is referenced without an explicit mapping
DEFAULT_CSV_MAPPING = CsvMapping("case_id", "activity", "timestamp")


def parse_csv(document: str | TextIO, mapping: CsvMapping, source_name: str = "") -> EventLog:
    """Parse CSV text or a text stream (RFC-4180, header row mandatory)
    into an EventLog.

    Rows are grouped by the case column in first-appearance order; the
    remaining columns become event attributes (kept as text), and events
    with equal attribute cells share one mapping.  Events are re-sorted by
    timestamp within each trace, preserving row order on ties.  Blank rows
    are skipped and short rows padded with empty cells.

    Raises EmptyDocument, MissingColumn, MalformedDocument (a header name
    that appears twice, a row longer than the header, or a CSV syntax
    error), MissingCaseId, MissingActivity, or UnparsableTimestamp.  An
    error in a row names the line the row starts on; a syntax error, the
    line the reader stopped on.
    """
    reader = csv.reader(io.StringIO(document) if isinstance(document, str) else document)
    try:
        return _csv_log(reader, mapping, source_name)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedDocument(f"row {reader.line_num}: {exc}") from exc


def _csv_log(reader, mapping: CsvMapping, source_name: str) -> EventLog:
    header = next(reader, [])
    if not any(cell.strip() for cell in header):
        raise EmptyDocument("document has no header row")
    index: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in index:
            raise MalformedDocument(f"column {name!r} appears more than once in the header")
        index[name] = i
    for needed in (mapping.case_column, mapping.activity_column, mapping.timestamp_column):
        if needed not in index:
            raise MissingColumn(f"column {needed!r} not in header {header!r}")
    case_idx = index[mapping.case_column]
    act_idx = index[mapping.activity_column]
    ts_idx = index[mapping.timestamp_column]
    attr_columns = [i for i in range(len(header)) if i not in (case_idx, act_idx, ts_idx)]
    attr_names = [header[i] for i in attr_columns]
    # the key of a row's attribute mapping: its cell, or the tuple of its cells
    cells = operator.itemgetter(*attr_columns) if attr_columns else None
    shared: dict[object, Mapping[str, Scalar]] = {}
    intern: dict[str, str] = {}
    width = len(header)

    grouped: dict[str, list[Event]] = {}
    end = reader.line_num  # a record starts on the line after the last one ended
    for row in reader:
        line, end = end + 1, reader.line_num
        if len(row) != width:
            if not row:
                continue
            if len(row) > width:
                raise MalformedDocument(
                    f"row {line}: {len(row)} cells, but the header has {width}"
                )
            row += [""] * (width - len(row))
        case_id = row[case_idx]
        events = grouped.get(case_id)
        if events is None:
            if not case_id:
                raise MissingCaseId(f"row {line}: empty value in case column")
            events = grouped[case_id] = []
        activity = row[act_idx]
        if not activity:
            raise MissingActivity(
                f"row {line}: empty value in activity column")
        ts_text = row[ts_idx]
        try:
            moment = parse_timestamp(ts_text)
        except ValueError:
            raise UnparsableTimestamp(
                f"row {line}: cannot parse timestamp {ts_text!r}"
            ) from None
        if cells is None:
            attributes = NO_ATTRIBUTES
        else:
            key = cells(row)
            attributes = shared.get(key)
            if attributes is None:
                values = key if len(attr_columns) > 1 else (key,)
                attributes = shared[key] = MappingProxyType(dict(zip(attr_names, values)))
        events.append(Event(intern.setdefault(activity, activity), moment, attributes))

    # each case's list is freed once its sorted tuple exists
    traces = tuple(
        Trace(cid, NO_ATTRIBUTES, _sorted_events(grouped.pop(cid))) for cid in list(grouped)
    )
    return EventLog(traces=traces, source_name=source_name)


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------

def discover_dfg(log: EventLog) -> Dfg:
    """Count directly-follows pairs over all traces.

    Edge durations are the arithmetic mean, in seconds, of the timestamp
    gaps over all occurrences of the pair.
    """
    counts: dict[tuple[str, str], int] = {}
    total_seconds: dict[tuple[str, str], float] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    for trace in log.traces:
        events = trace.events
        if not events:
            continue
        starts[events[0].activity] = starts.get(events[0].activity, 0) + 1
        ends[events[-1].activity] = ends.get(events[-1].activity, 0) + 1
        for first, second in zip(events, events[1:]):
            edge = (first.activity, second.activity)
            counts[edge] = counts.get(edge, 0) + 1
            gap = (second.timestamp - first.timestamp).total_seconds()
            total_seconds[edge] = total_seconds.get(edge, 0.0) + gap
    edges = {
        edge: DfgEdgeStats(frequency=n, mean_duration_seconds=total_seconds[edge] / n)
        for edge, n in counts.items()
    }
    return Dfg(edges=edges, start_activities=starts, end_activities=ends)


def discover_variants(log: EventLog) -> tuple[Variant, ...]:
    """Group traces by activity sequence; order by count desc, then sequence."""
    counts: dict[tuple[str, ...], int] = {}
    for trace in log.traces:
        sequence = tuple(event.activity for event in trace.events)
        counts[sequence] = counts.get(sequence, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return tuple(Variant(activity_sequence=s, count=n) for s, n in ordered)


# ---------------------------------------------------------------------------
# Predicate language
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_:.]*")
_NUMBER_RE = re.compile(r"[+-]?\d+(\.\d+)?")
_AND_RE = re.compile(r"and\b", re.IGNORECASE)
# longest-match order; "==" is detected separately and rejected
_OPERATOR_FORMS = (
    ("!=", "!="),
    ("<=", "<="),
    (">=", ">="),
    ("≠", "!="),
    ("≤", "<="),
    ("≥", ">="),
    ("=", "="),
    ("<", "<"),
    (">", ">"),
)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _read_identifier(text: str, pos: int) -> tuple[str, int]:
    match = _IDENT_RE.match(text, pos)
    if not match:
        raise PredicateSyntaxError("expected attribute name", pos)
    return match.group(0), match.end()


def _read_operator(text: str, pos: int) -> tuple[str, int]:
    if text.startswith("==", pos):
        raise PredicateSyntaxError("unsupported operator '=='", pos)
    for form, canonical in _OPERATOR_FORMS:
        if text.startswith(form, pos):
            return canonical, pos + len(form)
    raise PredicateSyntaxError("expected comparison operator", pos)


def _read_literal(text: str, pos: int) -> tuple[Scalar, int]:
    if pos >= len(text):
        raise PredicateSyntaxError("expected literal", pos)
    quote = text[pos]
    if quote in ("'", '"'):
        end = text.find(quote, pos + 1)
        if end < 0:
            raise PredicateSyntaxError("unterminated quoted text", pos)
        return text[pos + 1:end], end + 1
    if text.startswith("true", pos):
        return True, pos + 4
    if text.startswith("false", pos):
        return False, pos + 5
    match = _NUMBER_RE.match(text, pos)
    if match:
        raw = match.group(0)
        return (float(raw) if "." in raw else int(raw)), match.end()
    raise PredicateSyntaxError("expected literal", pos)


def parse_predicate(expression: str) -> CasePredicate:
    """Parse ``attr op literal ("and" attr op literal)*``.

    Literals are quoted text, integers, reals, or true/false; operators are
    = != < <= > >= (Unicode forms accepted).  Whitespace-insensitive.
    """
    if not expression.strip():
        raise EmptyExpression("predicate expression is empty")
    comparisons: list[Comparison] = []
    pos = _skip_ws(expression, 0)
    while True:
        attribute, pos = _read_identifier(expression, pos)
        pos = _skip_ws(expression, pos)
        op, pos = _read_operator(expression, pos)
        pos = _skip_ws(expression, pos)
        literal, pos = _read_literal(expression, pos)
        comparisons.append(Comparison(attribute=attribute, operator=op, literal=literal))
        pos = _skip_ws(expression, pos)
        if pos >= len(expression):
            break
        match = _AND_RE.match(expression, pos)
        if not match:
            raise PredicateSyntaxError("expected 'and'", pos)
        pos = _skip_ws(expression, match.end())
    return CasePredicate(comparisons=tuple(comparisons))


#: the canonical operators; booleans admit only the first two
_COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _evaluate_comparison(attributes: dict[str, Scalar], comparison: Comparison) -> bool:
    if comparison.attribute not in attributes:
        return False
    value = attributes[comparison.attribute]
    literal = comparison.literal
    # bool is an int subclass; keep booleans in their own universe
    if isinstance(value, bool) or isinstance(literal, bool):
        comparable = (isinstance(value, bool) and isinstance(literal, bool)
                      and comparison.operator in ("=", "!="))
    else:
        comparable = (
            isinstance(value, (int, float)) and isinstance(literal, (int, float))
            or isinstance(value, str) and isinstance(literal, str)
        )
    return comparable and _COMPARE[comparison.operator](value, literal)


def split_log(log: EventLog, predicate: CasePredicate) -> tuple[EventLog, EventLog]:
    """Partition traces into (matching, rest), preserving trace order."""
    matching: list[Trace] = []
    rest: list[Trace] = []
    for trace in log.traces:
        (matching if predicate.matches(trace) else rest).append(trace)
    return (
        EventLog(traces=tuple(matching), source_name=log.source_name),
        EventLog(traces=tuple(rest), source_name=log.source_name),
    )


# ---------------------------------------------------------------------------
# DFG comparison
# ---------------------------------------------------------------------------

#: the relative change in an edge's frequency or duration that compare_dfgs
#: reports as a shift unless told otherwise
DEFAULT_SHIFT_THRESHOLD = 0.05


def compare_dfgs(
    a: Dfg, b: Dfg, shift_threshold: float = DEFAULT_SHIFT_THRESHOLD
) -> tuple[ComparisonFinding, ...]:
    """Contrast two DFGs; return their findings, strongest first.

    Edges present in exactly one graph yield only_in_a / only_in_b
    findings.  For shared edges, a frequency_shift is reported when the
    relative frequencies (edge frequency over the graph's total edge
    frequency) differ by more than shift_threshold, and a duration_shift
    when the mean durations differ relatively by more than the same
    threshold.  Findings are ordered by |relative_difference| descending,
    then by edge and kind.  A graph whose total edge frequency is 0 gives
    its edges relative frequency 0.
    """
    if not 0.0 <= shift_threshold <= 1.0:
        raise ValueError(f"shift_threshold must be in [0, 1], got {shift_threshold}")
    total_a = sum(stats.frequency for stats in a.edges.values())
    total_b = sum(stats.frequency for stats in b.edges.values())
    findings: list[ComparisonFinding] = []
    for edge in set(a.edges) | set(b.edges):
        stats_a = a.edges.get(edge)
        stats_b = b.edges.get(edge)
        freq_a = stats_a.frequency if stats_a else 0
        freq_b = stats_b.frequency if stats_b else 0
        rel_a = freq_a / total_a if total_a else 0.0
        rel_b = freq_b / total_b if total_b else 0.0
        if stats_b is None:
            findings.append(ComparisonFinding(edge, ONLY_IN_A, rel_a, freq_a, 0))
        elif stats_a is None:
            findings.append(ComparisonFinding(edge, ONLY_IN_B, -rel_b, 0, freq_b))
        else:
            if abs(rel_a - rel_b) > shift_threshold:
                findings.append(
                    ComparisonFinding(edge, FREQUENCY_SHIFT, rel_a - rel_b, rel_a, rel_b))
            dur_a = stats_a.mean_duration_seconds
            dur_b = stats_b.mean_duration_seconds
            scale = max(dur_a, dur_b)
            if scale > 0.0 and abs(dur_diff := (dur_a - dur_b) / scale) > shift_threshold:
                findings.append(
                    ComparisonFinding(edge, DURATION_SHIFT, dur_diff, dur_a, dur_b))
    findings.sort(key=lambda f: (-abs(f.relative_difference), f.edge, f.kind))
    return tuple(findings)
