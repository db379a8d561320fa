"""Value semantics of agwf's record types, one table row per class.

Each row names a class and its fields in constructor order: the field's
name, a value, another value, and its default (REQUIRED when it has
none).  Every class is built by position and by keyword, with and
without its defaults, and then checked for equality by type and fields,
its repr, and hashing and assignment: a frozen class is hashable when
its values are, and refuses assignment; any other class is unhashable
and takes assignment.
"""

from __future__ import annotations

from datetime import datetime, timezone
from types import MappingProxyType

import pytest

from agwf.agents import AgentProfile, ScriptedRule
from agwf.event_log import (
    NO_ATTRIBUTES,
    CasePredicate,
    Comparison,
    ComparisonFinding,
    CsvMapping,
    Dfg,
    DfgEdgeStats,
    Event,
    EventLog,
    Trace,
    Variant,
)
from agwf.pm_tools import Tool, ToolRegistry
from agwf.task_kinds import EVALUATOR, PLAIN, RouterGuard
from agwf.workflow_engine import (
    EvaluatorConfig,
    ExecutionRecord,
    TaskDetail,
    TaskSpec,
    Violation,
    WorkflowSpec,
)

REQUIRED = object()
T0 = datetime(2024, 3, 1, 9, tzinfo=timezone.utc)
T1 = datetime(2024, 3, 1, 10, tzinfo=timezone.utc)


def echo(state, memory):
    return state


def shout(state, memory):
    return state.upper()


EVENT = Event("A", T0)
TRACE = Trace("c1", events=(EVENT,))
TOOL = Tool("echo", "Returns the state.", echo)
AGENT = AgentProfile("analyst", "You analyze.")
TASK = TaskSpec("t1", "analyst", "do it")

#: (class, frozen, hashable, [(field, value, other value, default), ...])
ROWS = [
    (Event, False, False, [
        ("activity", "A", "B", REQUIRED),
        ("timestamp", T0, T1, REQUIRED),
        ("attributes", MappingProxyType({"r": "x"}), MappingProxyType({"r": "y"}), NO_ATTRIBUTES),
    ]),
    (Trace, False, False, [
        ("case_id", "c1", "c2", REQUIRED),
        ("case_attributes", MappingProxyType({"d": "s"}), MappingProxyType({"d": "t"}),
         NO_ATTRIBUTES),
        ("events", (EVENT,), (EVENT, Event("B", T1)), ()),
    ]),
    (EventLog, True, True, [
        ("traces", (), (TRACE,), ()),
        ("source_name", "log.xes", "other.xes", ""),
    ]),
    (DfgEdgeStats, True, True, [
        ("frequency", 3, 4, REQUIRED),
        ("mean_duration_seconds", 1.5, 2.5, REQUIRED),
    ]),
    (Dfg, True, False, [
        ("edges", {("a", "b"): DfgEdgeStats(1, 0.0)}, {("a", "c"): DfgEdgeStats(1, 0.0)}, {}),
        ("start_activities", {"a": 1}, {"a": 2}, {}),
        ("end_activities", {"b": 1}, {"c": 1}, {}),
    ]),
    (Variant, True, True, [
        ("activity_sequence", ("a", "b"), ("a", "c"), REQUIRED),
        ("count", 2, 3, REQUIRED),
    ]),
    (Comparison, True, True, [
        ("attribute", "dept", "region", REQUIRED),
        ("operator", "==", "!=", REQUIRED),
        ("literal", "sales", 7, REQUIRED),
    ]),
    (CasePredicate, True, True, [
        ("comparisons", (Comparison("d", "==", "s"),), (), REQUIRED),
    ]),
    (ComparisonFinding, True, True, [
        ("edge", ("a", "b"), ("a", "c"), REQUIRED),
        ("kind", "frequency_shift", "duration_shift", REQUIRED),
        ("relative_difference", 0.5, -0.5, REQUIRED),
        ("a", 0.25, 0.3, REQUIRED),
        ("b", 0.75, 0.7, REQUIRED),
    ]),
    (CsvMapping, True, True, [
        ("case_column", "case", "id", REQUIRED),
        ("activity_column", "act", "activity", REQUIRED),
        ("timestamp_column", "ts", "time", REQUIRED),
    ]),
    (EvaluatorConfig, True, True, [
        ("threshold", 6.0, 7.0, REQUIRED),
        ("target_task_id", "t1", "t2", REQUIRED),
        ("max_retries", 3, 1, 2),
    ]),
    (TaskSpec, True, True, [
        ("id", "t1", "t2", REQUIRED),
        ("agent_id", "analyst", "critic", REQUIRED),
        ("instruction", "do it", "do that", REQUIRED),
        ("kind", EVALUATOR, "router", PLAIN),
        ("expected_output", "a list", "a table", ""),
        ("tool_names", ("echo",), ("shout",), ()),
        ("guard", RouterGuard("r", "a"), RouterGuard("r", "b"), None),
        ("callback_names", ("log_scores",), ("other",), ()),
        ("evaluator_config", EvaluatorConfig(6.0, "t0"), EvaluatorConfig(7.0, "t0"), None),
        ("prec", frozenset({"t0"}), frozenset({"t9"}), frozenset()),
    ]),
    (WorkflowSpec, True, False, [
        ("tasks", (TASK,), (TASK, TaskSpec("t2", "analyst", "next")), REQUIRED),
        ("initial_task", "t1", "t2", REQUIRED),
        ("final_task", "t1", "t2", REQUIRED),
        ("agents", (AGENT,), (AgentProfile("critic", "You judge."),), REQUIRED),
        ("registry", ToolRegistry.of(TOOL), ToolRegistry(), REQUIRED),
    ]),
    (TaskDetail, False, False, [
        ("selected_tool", "echo", "shout", None),
        ("tool_output", "out", "other out", ""),
        ("prompt", "prompt", "other prompt", None),
        ("raw_response", "reply", "other reply", ""),
        ("retries_used", 1, 2, 0),
        ("skipped", True, False, False),
        ("score", 7.0, 8.0, None),
        ("low_quality", True, False, False),
        ("selection", "choose", "choose again", None),
    ]),
    (ExecutionRecord, True, False, [
        ("task_sequence", ("t1",), ("t2",), REQUIRED),
        ("final_state", "Q\n\n--- t1 ---\nreply", "Q", REQUIRED),
        ("state_ends", (1, 19), (1,), REQUIRED),
        ("details", {"t1": TaskDetail(raw_response="reply")}, {}, REQUIRED),
        ("memory_final", MappingProxyType({}), MappingProxyType({"k": EventLog()}), REQUIRED),
    ]),
    (Violation, True, True, [
        ("code", "UnknownTask", "UnknownAgent", REQUIRED),
        ("subject", "t1", "t2", REQUIRED),
        ("message", "no such task", "no such agent", REQUIRED),
    ]),
    (AgentProfile, True, True, [
        ("id", "analyst", "critic", REQUIRED),
        ("role_prompt", "You analyze.", "You judge.", REQUIRED),
        ("model_ref", "m1", "m2", ""),
        ("temperature", 0.5, 0.25, 0.0),
    ]),
    (ScriptedRule, True, True, [
        ("match", "Choose", "Decide", REQUIRED),
        ("responses", ("alpha",), ("beta", "alpha"), REQUIRED),
        ("regex", True, False, False),
    ]),
    (Tool, True, True, [
        ("name", "echo", "shout", REQUIRED),
        ("documentation", "Returns the state.", "Returns it loud.", REQUIRED),
        ("function", echo, shout, REQUIRED),
    ]),
    (ToolRegistry, True, False, [
        ("tools", {"echo": TOOL}, {}, {}),
    ]),
    (RouterGuard, True, True, [
        ("router_task_id", "r", "s", REQUIRED),
        ("expected_route_token", "a", "b", REQUIRED),
    ]),
]

IDS = [cls.__name__ for cls, *_ in ROWS]


def build(cls, fields, **changes):
    return cls(**{name: changes.get(name, value) for name, value, _, _ in fields})


def test_the_table_covers_every_record_type():
    assert len(ROWS) == len(set(IDS)) == 21


@pytest.mark.parametrize("cls, frozen, hashable, fields", ROWS, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, frozen, hashable, fields):
    values = [value for _, value, _, _ in fields]
    by_position = cls(*values)
    by_keyword = cls(**{name: value for name, value, _, _ in fields})
    for name, value, _, _ in fields:
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    required = [value for _, value, _, default in fields if default is REQUIRED]
    for least in (cls(*required),
                  cls(**{name: value for name, value, _, default in fields
                         if default is REQUIRED})):
        for name, value, _, default in fields:
            expected = value if default is REQUIRED else default
            assert getattr(least, name) == expected
            assert type(getattr(least, name)) is type(expected)
    with pytest.raises(TypeError):
        cls(*values, values[-1])


def test_defaults_that_are_shared_and_defaults_that_are_fresh():
    assert Event("A", T0).attributes is NO_ATTRIBUTES
    assert Trace("c1").case_attributes is NO_ATTRIBUTES
    assert ToolRegistry().tools is not ToolRegistry().tools
    assert Dfg().edges is not Dfg().edges


@pytest.mark.parametrize("cls, frozen, hashable, fields", ROWS, ids=IDS)
def test_equal_by_type_and_fields(cls, frozen, hashable, fields):
    value = build(cls, fields)
    copy = build(cls, fields)
    assert value == copy and not value != copy
    assert value != object() and value != tuple(getattr(value, f[0]) for f in fields)
    assert value.__eq__(object()) is NotImplemented
    for name, _, other, _ in fields:
        changed = build(cls, fields, **{name: other})
        assert value != changed and not value == changed


def test_records_of_two_types_with_equal_fields_are_unequal():
    assert Comparison("a", "==", "b") != Violation("a", "==", "b")
    assert CsvMapping("a", "b", "c") != Violation("a", "b", "c")
    assert DfgEdgeStats(("a",), 1) != Variant(("a",), 1)


@pytest.mark.parametrize("cls, frozen, hashable, fields", ROWS, ids=IDS)
def test_repr_names_the_class_and_its_fields(cls, frozen, hashable, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value, _, _ in fields)
    assert repr(build(cls, fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, frozen, hashable, fields", ROWS, ids=IDS)
def test_frozen_values_hash_and_refuse_assignment(cls, frozen, hashable, fields):
    value = build(cls, fields)
    if hashable:
        assert hash(value) == hash(build(cls, fields))
    else:
        with pytest.raises(TypeError):
            hash(value)
    for name, _, other, _ in fields:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(value, name, other)
            with pytest.raises(AttributeError):
                delattr(value, name)
        else:
            setattr(value, name, other)
            assert getattr(value, name) is other


def test_only_frozen_classes_are_hashable():
    assert all(frozen for _, frozen, hashable, _ in ROWS if hashable)
    assert {cls for cls, frozen, _, _ in ROWS if not frozen} == {Event, Trace, TaskDetail}


def test_a_dfg_ranks_its_edges_once():
    dfg = Dfg({("a", "b"): DfgEdgeStats(1, 0.0), ("b", "c"): DfgEdgeStats(2, 0.0)})
    assert dfg.ranked_edges == (("b", "c"), ("a", "b"))
    assert dfg.ranked_edges is dfg.ranked_edges
    assert dfg == Dfg(dict(dfg.edges))


@pytest.mark.parametrize("build_it, message", [
    (lambda: AgentProfile("", "role"), "agent id must be non-empty"),
    (lambda: AgentProfile("a", ""), "agent 'a': role_prompt must be non-empty"),
    (lambda: AgentProfile("a", "role", temperature=-1.0),
     "agent 'a': temperature must be a finite number >= 0"),
    (lambda: AgentProfile(id="a", role_prompt="role", temperature=float("nan")),
     "agent 'a': temperature must be a finite number >= 0"),
    (lambda: AgentProfile("a", "role", "m", float("inf")),
     "agent 'a': temperature must be a finite number >= 0"),
    (lambda: ScriptedRule("x", ()), "'responses' must not be empty"),
    (lambda: ScriptedRule(match="x", responses=(), regex=True), "'responses' must not be empty"),
    (lambda: Tool("1x", "doc", echo), "tool name must be identifier-shaped: '1x'"),
    (lambda: Tool(name="x", documentation=" \n", function=echo), "tool 'x' has no documentation"),
    (lambda: EvaluatorConfig(0.5, "t1"), "threshold must be in [1, 10], got 0.5"),
    (lambda: EvaluatorConfig(threshold=11, target_task_id="t1"),
     "threshold must be in [1, 10], got 11"),
    (lambda: EvaluatorConfig(6.0, "t1", -1), "max_retries must be >= 0"),
])
def test_validation_messages(build_it, message):
    with pytest.raises(ValueError) as raised:
        build_it()
    assert str(raised.value) == message
