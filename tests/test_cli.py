from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf import cli
from agwf.agents import ScriptedBackend
from agwf.demos import BUNDLE_NAMES, bundle
from agwf.event_log import DEFAULT_CSV_MAPPING, discover_dfg, parse_csv, parse_xes
from agwf.pm_tools import abstract_dfg
from agwf.workflow_config import load_workflow
from agwf.workflow_engine import linearize

from conftest import InterruptedBackend, csv_log_text, xes_log_text

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def anomaly_args(tmp_path):
    workflow, rules, inquiry = bundle("anomaly")
    return str(workflow), str(rules), inquiry, tmp_path / "transcript.json"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_bundled_workflow_ok(capsys):
    assert run_cli("validate", str(bundle("anomaly").workflow)) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_cycle_exits_1(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "agents": [{"id": "a", "role_prompt": "r"}],
        "tasks": [
            {"id": "T1", "agent": "a", "instruction": "x", "prec": []},
            {"id": "T2", "agent": "a", "instruction": "x", "prec": ["T3"]},
            {"id": "T3", "agent": "a", "instruction": "x", "prec": ["T2"]},
        ],
        "initial_task": "T1",
        "final_task": "T3",
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", str(path)) == 1
    assert "CycleDetected" in capsys.readouterr().out


def test_validate_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert run_cli("validate", str(path)) == 2


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_anomaly_demo(anomaly_args, capsys):
    workflow, rules, inquiry, output = anomaly_args
    code = run_cli(
        "run", workflow, "--inquiry", inquiry, "--scripted", rules,
        "--output", str(output),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "output of final task combine_insights" in out
    transcript = json.loads(output.read_text())
    assert transcript["task_sequence"] == [
        "optimize_inquiry", "dfg_insights", "variant_insights", "combine_insights"
    ]
    assert transcript["aborted"] is False
    assert transcript["states"][-1].count("=== output of ") == 4


def test_run_missing_log_records_tool_error(anomaly_args, capsys):
    workflow, rules, _, output = anomaly_args
    code = run_cli(
        "run", workflow,
        "--inquiry", "List the rule violations in the log at /nowhere/gone.xes.",
        "--scripted", rules, "--output", str(output),
    )
    assert code == 1
    transcript = json.loads(output.read_text())
    tool_outputs = [d["tool_output"] for d in transcript["details"].values()]
    assert any(t.startswith("TOOL-ERROR:") for t in tool_outputs)


def test_run_requires_backend(anomaly_args):
    workflow, _, inquiry, _ = anomaly_args
    assert run_cli("run", workflow, "--inquiry", inquiry) == 2


def test_run_rejects_two_backends(anomaly_args):
    workflow, rules, inquiry, _ = anomaly_args
    code = run_cli(
        "run", workflow, "--inquiry", inquiry,
        "--scripted", rules, "--http", "http://localhost:1",
    )
    assert code == 2


def test_run_bad_rules_regex_exits_2_before_any_task(anomaly_args, tmp_path, capsys):
    workflow, _, inquiry, output = anomaly_args
    rules = tmp_path / "bad.json"
    rules.write_text(json.dumps([{"match": "([", "response": "x", "regex": True}]))
    code = run_cli(
        "run", workflow, "--inquiry", inquiry, "--scripted", str(rules),
        "--output", str(output),
    )
    assert code == 2
    assert "rules[0]" in capsys.readouterr().err
    assert not output.exists()


def test_run_missing_workflow_file_exits_2(tmp_path):
    assert run_cli("run", str(tmp_path / "none.json"), "--inquiry", "q") == 2


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _workflow(*tasks, initial="T1", final="T2"):
    return {
        "schema_version": 1,
        "agents": [{"id": "a", "role_prompt": "r"}],
        "tasks": [{"agent": "a", **task} for task in tasks],
        "initial_task": initial,
        "final_task": final,
    }


def test_run_aborted_mid_run_exits_1_with_partial_transcript(tmp_path, capsys):
    workflow = _write_json(tmp_path / "w.json", _workflow(
        {"id": "T1", "instruction": "draft it"},
        {"id": "T2", "instruction": "finish it", "prec": ["T1"]},
    ))
    # T2 gets the empty fallback reply, which aborts the run
    rules = _write_json(tmp_path / "r.json", [{"match": "draft it", "response": "drafted"}])
    output = tmp_path / "t.json"
    code = run_cli("run", workflow, "--inquiry", "q", "--scripted", rules, "--output", str(output))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("execution aborted: task 'T2'"), captured.err
    transcript = json.loads(output.read_text())
    assert transcript["aborted"] is True
    assert transcript["error"] == lines[0].removeprefix("execution aborted: ")
    assert transcript["task_sequence"] == ["T1"]
    assert list(transcript["details"]) == transcript["task_sequence"]


def test_run_interrupted_mid_run_exits_1_with_partial_transcript(tmp_path, capsys, monkeypatch):
    """A Ctrl-C during the third call keeps the two replies already paid for."""
    workflow = _write_json(tmp_path / "w.json", _workflow(
        {"id": "T1", "instruction": "x"},
        {"id": "T2", "instruction": "x", "prec": ["T1"]},
        {"id": "T3", "instruction": "x", "prec": ["T2"]}, final="T3"))
    rules = _write_json(tmp_path / "r.json", [])
    monkeypatch.setattr(cli, "load_scripted_rules", lambda path: InterruptedBackend())
    output = tmp_path / "t.json"
    try:
        code = run_cli("run", workflow, "--inquiry", "q", "--scripted", rules,
                       "--output", str(output))
    except KeyboardInterrupt:  # caught here, so that it does not end the session
        pytest.fail("the KeyboardInterrupt escaped the run")
    assert code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "execution aborted: task 'T3' aborted the execution: KeyboardInterrupt\n")
    transcript = json.loads(output.read_text())
    assert transcript["aborted"] is True
    assert transcript["task_sequence"] == ["T1", "T2"]
    assert [transcript["details"][task]["raw_response"] for task in ("T1", "T2")] == ["done"] * 2


def test_run_verbose_notes_the_tasks_of_an_aborted_run(tmp_path, capsys):
    workflow = _write_json(tmp_path / "w.json", _workflow(
        {"id": "T1", "instruction": "draft it"},
        {"id": "T2", "instruction": "finish it", "prec": ["T1"]},
    ))
    rules = _write_json(tmp_path / "r.json", [{"match": "draft it", "response": "drafted"}])
    assert run_cli("run", workflow, "--inquiry", "q", "--scripted", rules, "-v") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    aborted, *notes = captured.err.splitlines()
    assert aborted.startswith("execution aborted: task 'T2'")
    assert notes == ["[task] T1: -"]


def test_run_with_http_tries_to_connect(tmp_path, capsys, connects):
    """The control for the tests below: the spy sees each attempt of a run
    that does send a request."""
    workflow = _write_json(tmp_path / "w.json", _workflow(
        {"id": "T1", "instruction": "x"}, final="T1"))
    assert run_cli("run", workflow, "--inquiry", "q", "--http", "http://127.0.0.1:9") == 1
    assert "refused" in capsys.readouterr().err
    assert len(connects) == 3  # the first attempt and two retries


def test_run_refused_by_validation_exits_1_before_any_request(tmp_path, capsys, connects):
    workflow = _write_json(tmp_path / "w.json", _workflow(
        {"id": "T1", "instruction": "x"},
        {"id": "T2", "instruction": "x", "prec": ["T3"]},
        {"id": "T3", "instruction": "x", "prec": ["T2"]},
    ))
    output = tmp_path / "t.json"
    code = run_cli("run", workflow, "--inquiry", "q", "--http", "http://127.0.0.1:9",
                   "--output", str(output))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "CycleDetected: T2, T3: precedence relation contains a cycle",
        "FinalTaskUnreachable: T1: task has no path to the final task",
    ]
    assert connects == []
    assert not output.exists()


def test_run_with_two_agents_of_one_id_exits_1_before_any_request(tmp_path, capsys, connects):
    doc = _workflow({"id": "T1", "instruction": "x"}, final="T1")
    doc["agents"].append({"id": "a", "role_prompt": "a second role"})
    workflow = _write_json(tmp_path / "w.json", doc)
    assert run_cli("validate", workflow) == 1
    assert capsys.readouterr().out == "DuplicateAgentId: a: agent id appears more than once\n"
    code = run_cli("run", workflow, "--inquiry", "q", "--http", "http://127.0.0.1:9")
    assert code == 1
    assert capsys.readouterr().err == "DuplicateAgentId: a: agent id appears more than once\n"
    assert connects == []


#: a workflow whose task gives "instruction" twice, and a rules file whose
#: rule gives "response" twice
REPEATED_KEY_FILES = {
    "workflow": ('{"schema_version": 1, "agents": [{"id": "a", "role_prompt": "r"}], '
                 '"tasks": [{"id": "T1", "agent": "a", "instruction": "first", '
                 '"instruction": "second"}], "initial_task": "T1", "final_task": "T1"}',
                 "instruction"),
    "rules": ('[{"match": "x", "response": "first", "response": "second"}]', "response"),
}


@pytest.mark.parametrize("kind", REPEATED_KEY_FILES)
def test_a_key_repeated_in_one_object_exits_2(kind, tmp_path, capsys):
    text, key = REPEATED_KEY_FILES[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    if kind == "workflow":
        argv = ["validate", str(path)]
    else:
        workflow = _write_json(tmp_path / "w.json", _workflow(
            {"id": "T1", "instruction": "x"}, final="T1"))
        argv = ["run", workflow, "--inquiry", "q", "--scripted", str(path)]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {path}: not valid JSON: duplicate key {key!r}\n"


def test_run_verbose_notes_each_task(tmp_path, capsys, data_dir):
    route = {"router_task_id": "R"}
    workflow = _write_json(tmp_path / "w.json", _workflow(
        {"id": "R", "kind": "router", "instruction": "pick"},
        {"id": "A", "instruction": "walk the graph", "prec": ["R"], "tools": ["dfg_discovery"],
         "guard": {**route, "expected_route_token": "a"}},
        {"id": "B", "instruction": "other", "prec": ["R"],
         "guard": {**route, "expected_route_token": "b"}},
        {"id": "J", "kind": "ensemble", "instruction": "join", "prec": ["A", "B"]},
        initial="R", final="J",
    ))
    rules = _write_json(tmp_path / "r.json", {
        "rules": [{"match": "Decide which branch", "response": "ROUTE: a"}], "fallback": "ok"})
    inquiry = f"look at {data_dir / 'two_traces.xes'}"
    assert run_cli("run", workflow, "--inquiry", inquiry, "--scripted", rules, "-v") == 0
    assert capsys.readouterr().err.splitlines() == [
        "[task] R: -",
        "[task] A: dfg_discovery",
        "[task] B: skipped",
        "[task] J: -",
    ]


def test_run_reads_route_and_score_lines_that_end_in_crlf(tmp_path, capsys):
    route = {"router_task_id": "R"}
    workflow = _write_json(tmp_path / "w.json", _workflow(
        {"id": "R", "kind": "router", "instruction": "pick"},
        {"id": "A", "instruction": "branch a", "prec": ["R"],
         "guard": {**route, "expected_route_token": "a"}},
        {"id": "B", "instruction": "branch b", "prec": ["R"],
         "guard": {**route, "expected_route_token": "b"}},
        {"id": "E", "kind": "evaluator", "instruction": "grade", "prec": ["A", "B"],
         "evaluator": {"threshold": 5, "target_task_id": "A"}},
        initial="R", final="E",
    ))
    rules = _write_json(tmp_path / "r.json", {"rules": [
        {"match": "Decide which branch", "response": "A fits.\r\nROUTE: a\r\n"},
        {"match": "Assess the quality", "response": "fine\r\nSCORE: 8\r\n"},
    ], "fallback": "ok"})
    assert run_cli("run", workflow, "--inquiry", "q", "--scripted", rules, "-v") == 0
    assert capsys.readouterr().err.splitlines() == [
        "[task] R: -",
        "[task] A: -",
        "[task] B: skipped",
        "[task] E: -",
    ]


# ---------------------------------------------------------------------------
# abstract
# ---------------------------------------------------------------------------

def test_abstract_dfg_matches_library(capsys, data_dir, tmp_path):
    path = data_dir / "two_traces.xes"
    assert run_cli("abstract", str(path), "--kind", "dfg") == 0
    printed = capsys.readouterr().out
    expected = abstract_dfg(discover_dfg(parse_xes(path.read_text(), str(path))), 25)
    assert printed == expected + "\n"

    csv_path = tmp_path / "log.csv"
    csv_path.write_text(
        "case_id,activity,timestamp\n"
        "c1,Request,2024-03-01T09:00:00+00:00\n"
        "c1,Approve,2024-03-01T10:00:00+00:00\n"
        "c2,Request,2024-03-01T09:30:00+00:00\n"
    )
    assert run_cli("abstract", str(csv_path), "--kind", "dfg") == 0
    printed = capsys.readouterr().out
    log = parse_csv(csv_path.read_text(), DEFAULT_CSV_MAPPING, str(csv_path))
    assert printed == abstract_dfg(discover_dfg(log), 25) + "\n"
    assert "Request -> Approve (freq=1, avg_dur=3600.0s)" in printed


def test_abstract_variants_top_k(capsys, data_dir):
    path = data_dir / "two_traces.xes"
    assert run_cli("abstract", str(path), "--kind", "variants", "--top-k", "1") == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "Variants (top 1 of 2):"
    assert len(printed) == 2


def test_abstract_bad_path_exits_2():
    assert run_cli("abstract", "/no/such/file.xes", "--kind", "dfg") == 2


def test_abstract_rejects_bad_top_k(data_dir):
    path = data_dir / "two_traces.xes"
    assert run_cli("abstract", str(path), "--kind", "dfg", "--top-k", "0") == 2


#: suffix -> a 20-case log in that format, with a non-ASCII activity
TRUNCATED_LOGS = {
    suffix: text(20).replace("Check Step 3", "Prüfung €").encode()
    for suffix, text in ((".xes", xes_log_text), (".csv", csv_log_text))
}


def assert_abstract_exits_0_or_2_with_one_error_line(name: str, content: bytes) -> None:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / name
        path.write_bytes(content)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["abstract", str(path), "--kind", "dfg"])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


@pytest.mark.parametrize("suffix", TRUNCATED_LOGS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_abstract_of_a_truncated_log_exits_0_or_2_with_one_error_line(suffix, data):
    content = TRUNCATED_LOGS[suffix]
    cut = data.draw(st.integers(0, len(content)), label="cut")
    assert_abstract_exits_0_or_2_with_one_error_line(f"log{suffix}", content[:cut])


def _cell(column: int, value: str):
    """A row mutation that replaces one of the row's cells."""
    return lambda cells: [",".join(cells[:column] + [value] + cells[column + 1:])]


#: name -> a function from a data row's cells to the lines put in its place
CSV_ROW_MUTATIONS = {
    "short-row": lambda cells: [",".join(cells[:-1])],
    "long-row": lambda cells: [",".join(cells + ["extra"])],
    "header-repeated": lambda cells: ["case_id,activity,timestamp,resource", ",".join(cells)],
    "empty-case-id": _cell(0, ""),
    "empty-activity": _cell(1, ""),
    "nul": _cell(1, "Check\x00Step"),
    "unterminated-quote": _cell(1, '"Check Step'),
    "cell-over-field-limit": _cell(1, "x" * 200_000),
    **{f"timestamp-{moment}": _cell(2, moment) for moment in (
        "2024-03-01T24:00:00", "2024-02-30T09:00:00", "2024-03-01T23:59:60",
        "2024-03-01T09:00:00+25:00", "99999-03-01T09:00:00", "nan")},
    "year-1-aware-next-to-naive": lambda cells: [
        *_cell(2, "0001-01-01T00:00:00+01:00")(cells), *_cell(2, "0001-01-01T00:00:00")(cells)],
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CSV_ROW_MUTATIONS)), st.data())
def test_abstract_of_a_csv_log_with_a_mutated_row_exits_0_or_2_with_one_error_line(mutation, data):
    rows = csv_log_text(20).splitlines()
    at = data.draw(st.integers(1, len(rows) - 1), label="row")
    rows[at:at + 1] = CSV_ROW_MUTATIONS[mutation](rows[at].split(","))
    assert_abstract_exits_0_or_2_with_one_error_line("log.csv", "\n".join(rows).encode() + b"\n")


def _retag(old: str, new: str):
    """A line mutation that replaces old by new on the (at mod their
    count)-th line holding old."""
    def mutate(lines, at, to):
        holding = [i for i, line in enumerate(lines) if old in line]
        if holding:
            i = holding[at % len(holding)]
            lines[i] = lines[i].replace(old, new, 1)
    return mutate


#: name -> a function that mutates an XES log's lines in place, given two
#: line indexes, at and to
XES_LINE_MUTATIONS = {
    "drop": lambda lines, at, to: lines.pop(at),
    "duplicate": lambda lines, at, to: lines.insert(at, lines[at]),
    "move": lambda lines, at, to: lines.insert(to, lines.pop(at)),
    **{f"{old}-to-{new}": _retag(f"<{old} ", f"<{new} ") for old, new in (
        ("date", "int"), ("date", "string"), ("string", "date"), ("string", "boolean"),
        ("string", "foo"), ("int", "float"))},
    "event-to-trace": _retag("<event>", "<trace>"),
    "trace-to-event": _retag("<trace>", "<event>"),
    "foreign-prefix": _retag("<string ", '<y:string xmlns:y="urn:other" '),
}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(XES_LINE_MUTATIONS)), min_size=1, max_size=3),
       st.data())
def test_abstract_of_an_xes_log_with_mutated_lines_exits_0_or_2_with_one_error_line(
        mutations, data):
    lines = xes_log_text(20).splitlines()
    for mutation in mutations:
        at, to = (data.draw(st.integers(0, len(lines) - 1), label=label) for label in ("at", "to"))
        XES_LINE_MUTATIONS[mutation](lines, at, to)
    assert_abstract_exits_0_or_2_with_one_error_line("log.xes", "\n".join(lines).encode() + b"\n")


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def test_demo_fairness_default_rules(tmp_path, capsys):
    output = tmp_path / "fairness.json"
    assert run_cli("demo", "fairness", "--scripted", "--output", str(output)) == 0
    transcript = json.loads(output.read_text())
    compare = transcript["details"]["compare_groups"]
    assert "Request -> Extra Check: only in group A" in compare["tool_output"]
    split = transcript["details"]["identify_groups"]
    assert "protected=20 cases, non-protected=20 cases" in split["tool_output"]


def documented_detail_keys():
    """The per-task detail keys README's transcript section lists, in order."""
    listed = re.search(r"`details` per task \(([^)]*)\)", README.read_text()).group(1)
    return re.findall(r"`(\w+)`", listed)


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_demo_bundle(name, tmp_path, capsys):
    assert bundle(name).workflow.is_file() and bundle(name).rules.is_file()
    output = tmp_path / f"{name}.json"
    assert run_cli("demo", name, "--output", str(output)) == 0
    transcript = json.loads(output.read_text())
    assert transcript["task_sequence"] == linearize(load_workflow(bundle(name).workflow))
    keys = documented_detail_keys()
    for detail in transcript["details"].values():
        assert list(detail) == keys
    if name == "rca":
        out = capsys.readouterr().out
        assert "SCORE: 7.5" in out
        assert "step" in out.lower()


def test_demo_unknown_name_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli("demo", "nonsense")
    assert err.value.code == 2


def test_bundle_unknown_name_lists_the_known_ones():
    with pytest.raises(ValueError, match="known: fairness, rca, anomaly$"):
        bundle("nope")


# ---------------------------------------------------------------------------
# hostile input: exit 2 with one error line
# ---------------------------------------------------------------------------

def _file(path, content):
    path.write_bytes(content)
    return str(path)


NOT_UTF8 = b'{"schema_version": 1, "note": "caf\xe9"}'
NESTED = b"[" * 100_000
NAN_TEMPERATURE = bundle("anomaly").workflow.read_bytes().replace(
    b'"temperature": 0.0', b'"temperature": NaN', 1)
#: an integer literal longer than int() reads from text (4,300 digits)
HUGE_INT = b"1" * 5000
BIG_FIELD_CSV = (
    b"case_id,activity,timestamp\nc1,A,2024-03-01T09:00:00+00:00\nc2," + b"x" * 200_000 + b",t\n"
)

#: logs whose one byte that is not UTF-8 lies past their first 64 KiB, after
#: a row or a trace that is an error: case -> (file name, content)
LATE_NOT_UTF8 = {
    "log-not-utf8-late-csv": ("l.csv", b"case_id,activity,timestamp\nc1,,2024-03-01T09:00:00Z\n"
                              + b"c2,A,2024-03-01T09:00:00Z\n" * 3000 + b"c3,\xff,t\n"),
    "log-not-utf8-late-xes": ("l.xes", b"<log><trace><event/></trace>\n" + b"<trace/>\n" * 8000
                              + b"<string value='\xff'/></log>"),
}


def _edited_rca(edit):
    """The rca workflow document after edit(doc), as JSON bytes."""
    doc = json.loads(bundle("rca").workflow.read_text())
    edit(doc)
    return json.dumps(doc).encode()


def _set(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


EVALUATOR = ("tasks", 1, "evaluator")
#: case -> (edit of the rca workflow, the error line it must print)
WORKFLOW_CONFIG_ERRORS = {
    "agent-not-object": (_set(("agents", 0), 1), "agents[0]: expected an object"),
    "agent-id-not-text": (_set(("agents", 0, "id"), 5), "agents[0].id: expected text, got int"),
    "agent-id-empty": (_set(("agents", 0, "id"), ""), "agents[0]: agent id must be non-empty"),
    "tools-not-list": (_set(("tasks", 0, "tools"), "x"),
                       "tasks[0].tools: expected list of text, got str"),
    "threshold-not-number": (_set((*EVALUATOR, "threshold"), "hi"),
                             "tasks[1].evaluator.threshold: expected number, got str"),
    "max-retries-not-integer": (_set((*EVALUATOR, "max_retries"), 1.5),
                                "tasks[1].evaluator.max_retries: expected integer, got float"),
    "max-retries-negative": (_set((*EVALUATOR, "max_retries"), -1),
                             "tasks[1].evaluator: max_retries must be >= 0"),
    "threshold-out-of-range": (_set((*EVALUATOR, "threshold"), 11),
                               "tasks[1].evaluator: threshold must be in [1, 10], got 11.0"),
    "temperature-huge-int": (_set(("agents", 0, "temperature"), 10**400),
                             "agents[0]: int too large to convert to float"),
    "threshold-huge-int": (_set((*EVALUATOR, "threshold"), 10**400),
                           "tasks[1].evaluator: int too large to convert to float"),
    "tasks-not-list": (_set(("tasks",), {}), "workflow.tasks: expected list, got dict"),
    "schema-version-bool": (_set(("schema_version",), True),
                            "workflow.schema_version: expected number, got bool"),
}
#: case -> (rules document, the error line it must print)
RULES_CONFIG_ERRORS = {
    "rules-fallback-not-text": ({"rules": [], "fallback": 3},
                                "rules file.fallback: expected text, got int"),
    "rules-not-object-or-list": ("x", "rules file must be a JSON object or list"),
    "rules-not-list": ({"rules": {}}, "rules file.rules: expected list, got dict"),
    "rules-empty-responses": ([{"match": "x", "responses": []}],
                              "rules[0]: 'responses' must not be empty"),
    "rules-response-and-responses": ([{"match": "x", "response": "a", "responses": ["b"]}],
                                     "rules[0]: give 'response' or 'responses', not both"),
}

HOSTILE = {
    "workflow-not-utf8": lambda d: ["validate", _file(d / "w.json", NOT_UTF8)],
    "workflow-nested": lambda d: ["validate", _file(d / "w.json", NESTED)],
    "temperature-nan": lambda d: ["validate", _file(d / "w.json", NAN_TEMPERATURE)],
    "workflow-5000-digit-int": lambda d: [
        "validate", _file(d / "w.json", b'{"schema_version": ' + HUGE_INT + b"}")],
    "rules-not-utf8": lambda d: ["demo", "rca", "--scripted", _file(d / "r.json", NOT_UTF8)],
    "rules-nested": lambda d: ["demo", "rca", "--scripted", _file(d / "r.json", NESTED)],
    "rules-5000-digit-int": lambda d: [
        "demo", "rca", "--scripted", _file(d / "r.json", b'{"fallback": ' + HUGE_INT + b"}")],
    "log-not-utf8": lambda d: ["abstract", _file(d / "l.xes", b"<log>\xff</log>"), "--kind", "dfg"],
    **{
        case: lambda d, name=name, content=content: [
            "abstract", _file(d / name, content), "--kind", "dfg"]
        for case, (name, content) in LATE_NOT_UTF8.items()
    },
    "csv-200kb-field": lambda d: ["abstract", _file(d / "l.csv", BIG_FIELD_CSV), "--kind", "dfg"],
    "output-missing-dir": lambda d: ["demo", "rca", "--output", str(d / "missing" / "t.json")],
    "http-no-scheme": lambda d: ["demo", "rca", "--http", "foo"],
    "http-bad-port": lambda d: ["demo", "rca", "--http", "http://127.0.0.1:abc/v1"],
    "output-missing-dir-http": lambda d: [
        "demo", "rca", "--http", "http://127.0.0.1:9", "--output", str(d / "missing" / "t.json")],
    "output-is-a-dir-http": lambda d: ["demo", "rca", "--http", "http://127.0.0.1:9", "--output", str(d)],
    **{
        f"workflow-{case}": lambda d, edit=edit: [
            "validate", _file(d / "w.json", _edited_rca(edit))]
        for case, (edit, _) in WORKFLOW_CONFIG_ERRORS.items()
    },
    **{
        case: lambda d, rules=rules: [
            "demo", "rca", "--scripted", _file(d / "r.json", json.dumps(rules).encode())]
        for case, (rules, _) in RULES_CONFIG_ERRORS.items()
    },
}


@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_input_exits_2_with_one_error_line(case, tmp_path, capsys, connects):
    assert run_cli(*HOSTILE[case](tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert connects == []
    expected = {f"workflow-{case}": line for case, (_, line) in WORKFLOW_CONFIG_ERRORS.items()}
    expected.update((case, line) for case, (_, line) in RULES_CONFIG_ERRORS.items())
    expected.update(
        (case, f"{tmp_path / name}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
               f"in position {content.index(0xff)}: invalid start byte")
        for case, (name, content) in LATE_NOT_UTF8.items())
    if case in expected:
        assert lines[0] == f"error: {expected[case]}"


#: case -> (--http value, environment, the error line it must print)
BAD_HTTP_SETTINGS = {
    "endpoint": ("foo", {}, "--http (or AGWF_ENDPOINT): endpoint must be an http or https "
                            "URL with a host; got 'foo'"),
    "endpoint-host-with-a-space": (
        "http://a b/v1", {}, "--http (or AGWF_ENDPOINT): endpoint must be an http or https "
                             "URL with a host; got 'http://a b/v1'"),
    "api-key": ("http://127.0.0.1:9/v1", {"AGWF_API_KEY": "a\nb"},
                "AGWF_API_KEY: api_key must be latin-1 text with no line break"),
    "api-key-not-latin-1": ("http://127.0.0.1:9/v1", {"AGWF_API_KEY": "\u20ac"},
                            "AGWF_API_KEY: api_key must be latin-1 text with no line break"),
    "proxy": ("http://127.0.0.1:9/v1", {"http_proxy": "ftp://x"},
              "http_proxy (or HTTP_PROXY) must be an http URL with a host; got 'ftp://x'"),
    "proxy-host-with-an-empty-label": (
        "http://127.0.0.1:9/v1", {"HTTP_PROXY": "a..b:3128"},
        "http_proxy (or HTTP_PROXY) must be an http URL with a host; got 'http://a..b:3128'"),
}


@pytest.mark.parametrize("case", BAD_HTTP_SETTINGS)
def test_a_bad_http_setting_is_named_by_its_source(case, monkeypatch, capsys, connects):
    url, environment, line = BAD_HTTP_SETTINGS[case]
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "AGWF_API_KEY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    assert run_cli("demo", "rca", "--http", url) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")
    assert connects == []


# ---------------------------------------------------------------------------
# Mutated workflow and rules files
# ---------------------------------------------------------------------------

#: a value of another kind, or an out-of-range one
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.just(10**30),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=6),
    st.lists(st.text(max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
)


def _nodes(doc, path=()):
    """(path, value) of every value in a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_bundle(draw):
    """(bundle name, "workflow" or "rules", that file's mutated JSON bytes)."""
    name = draw(st.sampled_from(BUNDLE_NAMES), label="bundle")
    which = draw(st.sampled_from(["workflow", "rules"]), label="file")
    doc = json.loads(getattr(bundle(name), which).read_text())
    nodes = list(_nodes(doc))
    task_ids = [task["id"] for task in doc["tasks"]] if which == "workflow" else []
    kinds = ["replace", "delete", "add", "duplicate"] + (["repoint"] if task_ids else [])
    kind = draw(st.sampled_from(kinds), label="mutation")
    if kind == "replace":
        path, _ = draw(st.sampled_from(nodes[1:]), label="at")
        _at(doc, path[:-1])[path[-1]] = draw(ODD_VALUES, label="value")
    elif kind == "delete":
        path = draw(st.sampled_from([p for p, _ in nodes if p and isinstance(p[-1], str)]),
                    label="at")
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "add":
        path = draw(st.sampled_from([p for p, v in nodes if isinstance(v, dict)]), label="at")
        _at(doc, path)["unknown_key"] = draw(ODD_VALUES, label="value")
    elif kind == "duplicate":
        items = _at(doc, draw(st.sampled_from(
            [p for p, v in nodes if p and p[-1] in ("tasks", "agents", "rules") and v]),
            label="list"))
        items.insert(draw(st.integers(0, len(items)), label="to"),
                     copy.deepcopy(draw(st.sampled_from(items), label="item")))
    else:
        path = draw(st.sampled_from([p for p, v in nodes if p and v in task_ids]), label="at")
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(task_ids), label="id")
    return name, which, json.dumps(doc).encode()


def _main_counting_backend_calls(argv):
    """cli.main(argv): (exit code, stdout, stderr, ScriptedBackend calls)."""
    out, err, calls = io.StringIO(), io.StringIO(), []
    complete = ScriptedBackend.complete

    def counted(self, *args, **kwargs):
        calls.append(None)
        return complete(self, *args, **kwargs)

    ScriptedBackend.complete = counted
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        ScriptedBackend.complete = complete
    return code, out.getvalue(), err.getvalue(), len(calls)


@settings(max_examples=100, deadline=None)
@given(mutated_bundle())
def test_a_mutated_workflow_or_rules_file_exits_0_1_or_2(mutation):
    name, which, content = mutation
    workflow, rules, inquiry = bundle(name)
    with tempfile.TemporaryDirectory() as directory:
        mutated = _file(Path(directory) / f"{which}.json", content)
        workflow, rules = (mutated, str(rules)) if which == "workflow" else (str(workflow), mutated)
        output = Path(directory) / "transcript.json"
        runs = {
            "validate": _main_counting_backend_calls(["validate", workflow]),
            "run": _main_counting_backend_calls(["run", workflow, "--inquiry", inquiry,
                                                 "--scripted", rules, "--output", str(output)]),
        }
        transcript = json.loads(output.read_text()) if output.exists() else None
    for command, (code, _, err, calls) in runs.items():
        assert code in (0, 1, 2), command
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, err)
            assert calls == 0, command
    if runs["validate"][0] == 0 and which == "workflow":
        assert runs["run"][0] != 2, runs["run"][2]
    if transcript is not None:
        assert list(transcript["details"]) == transcript["task_sequence"]


#: the JSON kind of every field of both file formats, by object
FIELD_KINDS = {
    "workflow": {"schema_version": "number", "agents": "list", "tasks": "list",
                 "initial_task": "text", "final_task": "text"},
    "agent": {"id": "text", "role_prompt": "text", "model_ref": "text", "temperature": "number"},
    "task": {"id": "text", "kind": "text", "agent": "text", "instruction": "text",
             "expected_output": "text", "tools": "list of text", "prec": "list of text",
             "guard": "object", "callbacks": "list of text", "evaluator": "object"},
    "guard": {"router_task_id": "text", "expected_route_token": "text"},
    "evaluator": {"threshold": "number", "target_task_id": "text", "max_retries": "integer"},
    "rules file": {"rules": "list", "fallback": "text"},
    "rule": {"match": "text", "response": "text", "responses": "list of text",
             "regex": "boolean"},
}
#: object -> (where its errors point, its JSON path in the rca workflow or RULES_DOC)
OBJECT_AT = {
    "workflow": ("workflow", ()),
    "agent": ("agents[0]", ("agents", 0)),
    "task": ("tasks[1]", ("tasks", 1)),
    "guard": ("tasks[1].guard", ("tasks", 1, "guard")),
    "evaluator": ("tasks[1].evaluator", EVALUATOR),
    "rules file": ("rules file", ()),
    "rule": ("rules[0]", ("rules", 0)),
}
RULES_DOC = {"rules": [{"match": "x", "response": "y", "responses": ["y"], "regex": False}],
             "fallback": ""}
#: JSON kind -> a value of another kind, and its error line after the key
WRONG_VALUE = {
    "text": (None, ": expected text, got NoneType"),
    "list of text": (["a", 7], "[1]: expected text, got int"),
    "number": (True, ": expected number, got bool"),
    "integer": (True, ": expected integer, got bool"),
    "boolean": (1, ": expected boolean, got int"),
    "list": ({}, ": expected list, got dict"),
    "object": ([], ": expected object, got list"),
}


def test_field_kinds_cover_every_field():
    from agwf import workflow_config as wc

    tables = {"workflow": wc.WORKFLOW_FIELDS, "agent": wc.AGENT_FIELDS, "task": wc.TASK_FIELDS,
              "guard": wc.GUARD_FIELDS, "evaluator": wc.EVALUATOR_FIELDS,
              "rules file": wc.RULES_FILE_FIELDS, "rule": wc.RULE_FIELDS}
    assert {name: set(table) for name, table in tables.items()} == {
        name: set(kinds) for name, kinds in FIELD_KINDS.items()}


@pytest.mark.parametrize("obj, key", [
    (obj, key) for obj, kinds in FIELD_KINDS.items() for key in kinds])
def test_a_wrong_kind_in_any_field_is_one_error_line(obj, key, tmp_path, capsys):
    where, path = OBJECT_AT[obj]
    value, error = WRONG_VALUE[FIELD_KINDS[obj][key]]
    if obj.startswith("rule"):
        rules = copy.deepcopy(RULES_DOC)
        _set((*path, key), value)(rules)
        argv = ["demo", "rca", "--scripted", _file(tmp_path / "r.json", json.dumps(rules).encode())]
    else:
        def edit(doc):
            doc["tasks"][1]["guard"] = {"router_task_id": "find_causes", "expected_route_token": "go"}
            _set((*path, key), value)(doc)
        argv = ["validate", _file(tmp_path / "w.json", _edited_rca(edit))]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {where}.{key}{error}"]


#: every bundled demo, each writing its transcript into the directory argv[1]
DEMO_RUNS = """
import sys
from agwf import cli
from agwf.demos import BUNDLE_NAMES
for name in BUNDLE_NAMES:
    code = cli.main(["demo", name, "--output", f"{sys.argv[1]}/{name}.json"])
    print(f"exit {code}")
"""


def test_demo_runs_depend_on_no_hash_seed_time_zone_or_locale(tmp_path):
    environments = {
        "hash-seed-0": {"PYTHONHASHSEED": "0"},
        "hash-seed-1": {"PYTHONHASHSEED": "1"},
        "kolkata-c-ascii": {"TZ": "Asia/Kolkata", "LC_ALL": "C", "PYTHONIOENCODING": "ascii"},
    }
    runs = []
    for name, settings in environments.items():
        out = tmp_path / name
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(README.parent / "src"), **settings}
        done = subprocess.run([sys.executable, "-c", DEMO_RUNS, str(out)],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, {path.name: path.read_bytes() for path in out.iterdir()}))
    stdout, transcripts = runs[0]
    assert stdout.count(b"exit 0\n") == len(transcripts) == len(BUNDLE_NAMES)
    assert all(run == runs[0] for run in runs[1:])


#: in a fresh interpreter, the transport's modules each step loaded: a
#: scripted run, building an http backend, then building an https one
RUN_IMPORTS = """
import sys
before = set(sys.modules)
def loaded():
    return [m for m in ("socket", "ssl", "http.client", "email", "urllib.request")
            if m in sys.modules and m not in before]
import contextlib, io, json
from agwf import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["demo", "anomaly", "--output", sys.argv[1]])
steps = [loaded()]
from agwf.agents import HttpChatBackend
for url in ("http://127.0.0.1:9/v1", "https://127.0.0.1:9/v1"):
    HttpChatBackend(url).close()
    steps.append(loaded())
print(json.dumps([code, steps]))
"""

#: in a fresh interpreter, whether building an http backend loaded
#: urllib.request, and the address its request tried to connect to
PROXY_IMPORTS = """
import json, socket, sys
from agwf.agents import HttpChatBackend, TransportError
tried = []
def refuse(address, *args, **kwargs):
    tried.append(address)
    raise ConnectionRefusedError("refused")
socket.create_connection = refuse
backend = HttpChatBackend("http://example.com/v1")
loaded = "urllib.request" in sys.modules
try:
    backend.complete("role", "hello")
except TransportError:
    pass
print(json.dumps([loaded, tried]))
"""


def test_a_scripted_run_does_not_load_the_http_stack(tmp_path):
    """Nor does an http backend load ssl, nor either kind http.client or,
    with no *_proxy variable set, urllib.request."""
    # subprocesses, because this process has imported them all already
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(README.parent / "src")
    done = subprocess.run([sys.executable, "-c", RUN_IMPORTS, str(tmp_path / "t.json")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    code, steps = json.loads(done.stdout)
    assert code == 0 and (tmp_path / "t.json").is_file()
    assert steps == [[], ["socket"], ["socket", "ssl"]]
    # no_proxy alone loads urllib.request, which reads it, and goes direct
    done = subprocess.run([sys.executable, "-c", PROXY_IMPORTS],
                          env={**env, "no_proxy": "example.com"},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True, [["example.com", 80]]]


def test_demo_http_backend_via_env(monkeypatch, tmp_path):
    # a stub endpoint that answers every prompt with a score-bearing reply,
    # good enough for all three rca tasks
    import json as jsonlib
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            body = jsonlib.dumps(
                {"choices": [{"message": {"content": "stub findings\nSCORE: 7.0"}}]}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                     daemon=True).start()
    try:
        monkeypatch.setenv(
            "AGWF_ENDPOINT", f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
        )
        monkeypatch.setenv("AGWF_API_KEY", "test-key")
        output = tmp_path / "rca_http.json"
        assert run_cli("demo", "rca", "--http", "--output", str(output)) == 0
        transcript = json.loads(output.read_text())
        assert transcript["details"]["grade_causes"]["score"] == 7.0
    finally:
        server.shutdown()
        server.server_close()


def test_text_stdout_cannot_encode_is_written_escaped(tmp_path):
    """As Python writes it to stderr: a backslash escape, and the exit code
    the command has anyway."""
    workflow, rules, inquiry = bundle("rca")
    log = tmp_path / "log.csv"
    log.write_text("case_id,activity,timestamp\n"
                   "c1,Prüfung,2024-03-01T09:00:00+00:00\n"
                   "c1,Zahlung,2024-03-01T10:00:00+00:00\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src"), "PYTHONIOENCODING": "ascii"}
    for argv, shown in [
        (["run", str(workflow), "--inquiry", inquiry.replace("Why", "Why café"),
          "--scripted", str(rules)], b"Why caf\\xe9 do cases"),
        (["abstract", str(log), "--kind", "dfg"], b"Pr\\xfcfung -> Zahlung"),
    ]:
        done = subprocess.run([sys.executable, "-m", "agwf.cli", *argv],
                              env=env, capture_output=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, b"")
        assert shown in done.stdout
