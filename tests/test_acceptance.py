"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Everything runs on scripted backends and bundled or
in-memory fixtures; the whole module finishes in seconds.

Run with: pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import functools
import random
import re
from datetime import timedelta

import pytest

from agwf.agents import ScriptedBackend, ToolSelectionFailed, rule, select_tool, selection_prompt
from agwf.demos import bundle
from agwf.event_log import (
    Dfg,
    DfgEdgeStats,
    Event,
    EventLog,
    MalformedDocument,
    MissingActivity,
    MissingColumn,
    MissingTimestamp,
    Trace,
    UnparsableTimestamp,
    CsvMapping,
    discover_dfg,
    discover_variants,
    parse_csv,
    parse_xes,
)
from agwf.pm_tools import Tool, ToolRegistry
from agwf.task_kinds import EVALUATOR, ROUTER, RouterGuard
from agwf.workflow_config import load_scripted_rules, load_workflow
from agwf.workflow_engine import (
    CYCLE_DETECTED,
    INITIAL_TASK_HAS_PREDECESSORS,
    EvaluatorConfig,
    execute,
    extract_section,
    linearize,
    validate,
)

from conftest import (AGENT, T0, CountingBackend, joined_prompt, plain_task, random_valid_spec,
                      spec_of)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# 1. Sequential-execution golden test on the four-task demo
# ---------------------------------------------------------------------------

@criterion(1, "four-task demo: labeled sections in order, byte-identical x10")
def test_criterion_1_golden_demo():
    anomaly = bundle("anomaly")
    spec = load_workflow(anomaly.workflow)
    inquiry = anomaly.inquiry
    order = linearize(spec)

    final_states = []
    for _ in range(10):
        record = execute(spec, inquiry, load_scripted_rules(anomaly.rules))
        # prefix monotonicity: every state strictly extends its predecessor
        for before, after in zip(record.states, record.states[1:]):
            assert after.startswith(before) and len(after) > len(before)
        markers = re.findall(r"^=== output of (.+) ===$", record.final_state, re.M)
        assert markers == order
        assert len(markers) == 4
        ensemble_id = order[-1]
        assert (
            extract_section(record.final_state, ensemble_id)
            == record.details[ensemble_id].raw_response
        )
        final_states.append(record.final_state)
    assert len(set(final_states)) == 1


# ---------------------------------------------------------------------------
# 2. Tool output is consumed by the prompt but never persisted
# ---------------------------------------------------------------------------

@criterion(2, "tool sentinel appears in prompt_sent but not in the state")
def test_criterion_2_tool_non_persistence():
    sentinel = Tool("emit_marker", "emits a sentinel marker", lambda s, m: "XTOOLX")
    spec = spec_of(
        [plain_task("T", tool_names=("emit_marker",))],
        {"T": set()}, "T", "T",
        registry=ToolRegistry.of(sentinel),
    )
    record = execute(spec, "Q", ScriptedBackend([], fallback="noted"))
    assert "XTOOLX" in joined_prompt(record, "T")
    assert "XTOOLX" not in record.states[1]


# ---------------------------------------------------------------------------
# 3. Discovery equals brute force on 200 random logs
# ---------------------------------------------------------------------------

def random_log(rng):
    alphabet = ["a", "b", "c", "d"][: rng.randint(1, 4)]
    traces = []
    for i in range(rng.randint(0, 6)):
        moment = T0
        events = []
        for _ in range(rng.randint(0, 6)):
            moment = moment + timedelta(seconds=rng.randint(0, 120))
            events.append(Event(activity=rng.choice(alphabet), timestamp=moment))
        traces.append(Trace(case_id=f"c{i}", events=tuple(events)))
    return EventLog(traces=tuple(traces))


def brute_force_dfg(log):
    edges, durations, starts, ends = {}, {}, {}, {}
    for trace in log.traces:
        if not trace.events:
            continue
        starts[trace.events[0].activity] = starts.get(trace.events[0].activity, 0) + 1
        ends[trace.events[-1].activity] = ends.get(trace.events[-1].activity, 0) + 1
        for i in range(len(trace.events) - 1):
            key = (trace.events[i].activity, trace.events[i + 1].activity)
            edges[key] = edges.get(key, 0) + 1
            gap = (trace.events[i + 1].timestamp - trace.events[i].timestamp).total_seconds()
            durations[key] = durations.get(key, 0.0) + gap
    return Dfg(
        edges={k: DfgEdgeStats(n, durations[k] / n) for k, n in edges.items()},
        start_activities=starts,
        end_activities=ends,
    )


def brute_force_variants(log):
    groups = {}
    for trace in log.traces:
        key = tuple(e.activity for e in trace.events)
        groups[key] = groups.get(key, 0) + 1
    return sorted(groups.items(), key=lambda kv: (-kv[1], kv[0]))


@criterion(3, "DFG/variants equal brute-force counters on 200 random logs")
def test_criterion_3_oracle_equivalence():
    rng = random.Random(2024)
    for _ in range(200):
        log = random_log(rng)
        assert discover_dfg(log) == brute_force_dfg(log)
        variants = discover_variants(log)
        assert [(v.activity_sequence, v.count) for v in variants] == (
            brute_force_variants(log)
        )


# ---------------------------------------------------------------------------
# 4. Linearization over random DAGs; violation classes on broken ones
# ---------------------------------------------------------------------------

@criterion(4, "random DAGs linearize correctly; injected faults are classified")
def test_criterion_4_dag_properties():
    rng = random.Random(7)
    for _ in range(200):
        spec = random_valid_spec(rng)
        assert validate(spec) == []
        order = linearize(spec)
        assert order[0] == spec.initial_task
        assert order[-1] == spec.final_task
        assert sorted(order) == sorted(t.id for t in spec.tasks)
        position = {tid: i for i, tid in enumerate(order)}
        for task in spec.tasks:
            for pred in task.prec:
                assert position[pred] < position[task.id]

    for i in range(50):
        spec = random_valid_spec(rng)
        prec = {task.id: set(task.prec) for task in spec.tasks}
        if i % 2 == 0:
            # reverse an existing edge to force a cycle
            after = rng.choice([t for t, p in prec.items() if p])
            before = rng.choice(sorted(prec[after]))
            prec[before].add(after)
            expected = CYCLE_DETECTED
        else:
            others = [t.id for t in spec.tasks if t.id != spec.initial_task]
            prec[spec.initial_task].add(rng.choice(others))
            expected = INITIAL_TASK_HAS_PREDECESSORS
        broken = spec_of(spec.tasks, prec, spec.initial_task, spec.final_task)
        assert expected in [v.code for v in validate(broken)]


# ---------------------------------------------------------------------------
# 5. Fairness demo flags the planted discriminatory edge
# ---------------------------------------------------------------------------

@criterion(5, "fairness demo reports (Request, Extra Check) as protected-only")
def test_criterion_5_fairness_demo():
    fairness = bundle("fairness")
    record = execute(
        load_workflow(fairness.workflow), fairness.inquiry, load_scripted_rules(fairness.rules)
    )
    split_summary = record.details["identify_groups"].tool_output
    assert re.fullmatch(r"protected=\d+ cases, non-protected=\d+ cases", split_summary)
    comparison = record.details["compare_groups"].tool_output
    match = re.search(
        r"^edge Request -> Extra Check: only in group A \(freq (\d+) vs 0\)$",
        comparison, re.M,
    )
    assert match is not None
    assert int(match.group(1)) >= 1


# ---------------------------------------------------------------------------
# 6. Router guards: exactly one branch runs, and the token picks it
# ---------------------------------------------------------------------------

def router_spec():
    tasks = [
        plain_task("decide", kind=ROUTER, instruction="pick the branch"),
        plain_task("branch_a", guard=RouterGuard("decide", "alpha"), instruction="do alpha"),
        plain_task("branch_b", guard=RouterGuard("decide", "beta"), instruction="do beta"),
        plain_task("finish", kind="ensemble", instruction="finish up"),
    ]
    prec = {
        "decide": set(),
        "branch_a": {"decide"},
        "branch_b": {"decide"},
        "finish": {"branch_a", "branch_b"},
    }
    return spec_of(tasks, prec, "decide", "finish")


@criterion(6, "exactly one guarded successor runs; flipping the token flips it")
def test_criterion_6_router_exclusivity():
    spec = router_spec()
    outcomes = {}
    for token in ("alpha", "beta"):
        backend = ScriptedBackend(
            [
                rule("pick the branch", f"ROUTE: {token}"),
                rule("do alpha", "alpha output"),
                rule("do beta", "beta output"),
                rule("finish up", "done"),
            ]
        )
        record = execute(spec, "Q", backend)
        skipped = {
            tid: record.details[tid].skipped for tid in ("branch_a", "branch_b")
        }
        assert sum(skipped.values()) == 1
        outcomes[token] = skipped
    assert outcomes["alpha"] == {"branch_a": False, "branch_b": True}
    assert outcomes["beta"] == {"branch_a": True, "branch_b": False}


# ---------------------------------------------------------------------------
# 7. Evaluator wrap-back with exact backend-call accounting
# ---------------------------------------------------------------------------

def wrap_back_spec(max_retries=2):
    tasks = [
        plain_task("draft", instruction="draft the answer"),
        plain_task(
            "grade", kind=EVALUATOR, instruction="grade the answer",
            evaluator_config=EvaluatorConfig(
                threshold=5.0, target_task_id="draft", max_retries=max_retries
            ),
        ),
    ]
    return spec_of(tasks, {"draft": set(), "grade": {"draft"}}, "draft", "grade")


@criterion(7, "wrap-back: [3.0,8.0] retries once; [3.0]x3 exhausts; exact call counts")
def test_criterion_7_wrap_back():
    backend = CountingBackend(
        ScriptedBackend(
            [
                rule("draft the answer", "v1", "v2"),
                rule("grade the answer", "thin\nSCORE: 3.0", "good\nSCORE: 8.0"),
            ]
        )
    )
    record = execute(wrap_back_spec(), "Q", backend)
    grade = record.details["grade"]
    assert grade.retries_used == 1 and grade.score == 8.0 and not grade.low_quality
    # 2 tasks, no tools, 1 realized retry -> 2 x (1 + 0 + 1) completions
    assert backend.calls == 4

    backend = CountingBackend(
        ScriptedBackend(
            [rule("draft the answer", "v"), rule("grade the answer", "meh\nSCORE: 3.0")]
        )
    )
    record = execute(wrap_back_spec(max_retries=2), "Q", backend)
    grade = record.details["grade"]
    assert grade.retries_used == 2 and grade.score == 3.0 and grade.low_quality
    assert backend.calls == 6


# ---------------------------------------------------------------------------
# 8. Tool-selection protocol
# ---------------------------------------------------------------------------

@criterion(8, "selection: named tool wins, bad names fail, singleton is free")
def test_criterion_8_selection_protocol():
    tools = [
        Tool("dfg_discovery", "graph view", lambda s, m: s),
        Tool("variants_discovery", "path view", lambda s, m: s),
    ]
    prompt = "state" + selection_prompt(tools)
    backend = ScriptedBackend([rule("Choose exactly one tool", "variants_discovery")])
    assert select_tool(AGENT, backend, prompt, tools).name == "variants_discovery"

    backend = CountingBackend(ScriptedBackend([rule("Choose exactly one tool", "banana")]))
    with pytest.raises(ToolSelectionFailed):
        select_tool(AGENT, backend, prompt, tools)
    assert backend.calls == 2

    # a task with one tool runs it without a selection prompt: one call in all
    spec = spec_of([plain_task("t0", tool_names=("dfg_discovery",))], {}, "t0", "t0",
                   registry=ToolRegistry.of(*tools))
    backend = CountingBackend(ScriptedBackend([], fallback="done"))
    detail = execute(spec, "Q", backend).details["t0"]
    assert backend.calls == 1
    assert detail.selected_tool == "dfg_discovery" and detail.selection is None


# ---------------------------------------------------------------------------
# 9. Parser fixtures: documented counts and error classes
# ---------------------------------------------------------------------------

@criterion(9, "XES fixture counts; malformed fixtures raise the right classes")
def test_criterion_9_parser_fixtures(data_dir):
    log = parse_xes((data_dir / "two_traces.xes").read_text())
    assert len(log.traces) == 2
    assert sum(len(t.events) for t in log.traces) == 5

    with pytest.raises(MalformedDocument) as err:
        parse_xes((data_dir / "malformed.xes").read_text())
    assert re.search(r"line \d+", str(err.value))

    with pytest.raises(MissingTimestamp) as err:
        parse_xes((data_dir / "missing_timestamp.xes").read_text())
    assert "'c1'" in str(err.value) and "event 1" in str(err.value)

    with pytest.raises(MissingActivity) as err:
        parse_xes((data_dir / "missing_activity.xes").read_text())
    assert "event 0" in str(err.value)

    mapping = CsvMapping("case_id", "activity", "timestamp")
    with pytest.raises(UnparsableTimestamp) as err:
        parse_csv((data_dir / "bad_timestamp.csv").read_text(), mapping)
    assert "row 3" in str(err.value)

    with pytest.raises(MissingColumn) as err:
        parse_csv((data_dir / "missing_column.csv").read_text(), mapping)
    assert "activity" in str(err.value)
