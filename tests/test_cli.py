from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from agwf import cli
from agwf.demos import BUNDLE_NAMES, bundle
from agwf.event_log import DEFAULT_CSV_MAPPING, discover_dfg, parse_csv, parse_xes
from agwf.pm_tools import abstract_dfg
from agwf.workflow_config import load_workflow
from agwf.workflow_engine import linearize

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


def test_run_refused_by_validation_exits_1_before_any_request(tmp_path, capsys, monkeypatch):
    posts = []
    monkeypatch.setattr("http.client.HTTPConnection.request",
                        lambda *args, **kwargs: posts.append(args))
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
    assert posts == []
    assert not output.exists()


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
BIG_FIELD_CSV = (
    b"case_id,activity,timestamp\nc1,A,2024-03-01T09:00:00+00:00\nc2," + b"x" * 200_000 + b",t\n"
)


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
    "tools-not-list": (_set(("tasks", 0, "tools"), "x"),
                       "tasks[0].tools: expected list of text, got str"),
    "threshold-not-number": (_set((*EVALUATOR, "threshold"), "hi"),
                             "tasks[1].evaluator.threshold: expected number, got str"),
    "max-retries-not-integer": (_set((*EVALUATOR, "max_retries"), 1.5),
                                "tasks[1].evaluator.max_retries: expected integer, got float"),
    "threshold-out-of-range": (_set((*EVALUATOR, "threshold"), 11),
                               "tasks[1].evaluator: threshold must be in [1, 10], got 11.0"),
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
}

HOSTILE = {
    "workflow-not-utf8": lambda d: ["validate", _file(d / "w.json", NOT_UTF8)],
    "workflow-nested": lambda d: ["validate", _file(d / "w.json", NESTED)],
    "temperature-nan": lambda d: ["validate", _file(d / "w.json", NAN_TEMPERATURE)],
    "rules-not-utf8": lambda d: ["demo", "rca", "--scripted", _file(d / "r.json", NOT_UTF8)],
    "rules-nested": lambda d: ["demo", "rca", "--scripted", _file(d / "r.json", NESTED)],
    "log-not-utf8": lambda d: ["abstract", _file(d / "l.xes", b"<log>\xff</log>"), "--kind", "dfg"],
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
def test_hostile_input_exits_2_with_one_error_line(case, tmp_path, capsys, monkeypatch):
    posts = []
    monkeypatch.setattr("http.client.HTTPConnection.request",
                        lambda *args, **kwargs: posts.append(args))
    assert run_cli(*HOSTILE[case](tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert posts == []
    expected = {f"workflow-{case}": line for case, (_, line) in WORKFLOW_CONFIG_ERRORS.items()}
    expected.update((case, line) for case, (_, line) in RULES_CONFIG_ERRORS.items())
    if case in expected:
        assert lines[0] == f"error: {expected[case]}"


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
#: JSON kind -> a value of another kind, and the name of its type
WRONG_VALUE = {
    "text": (None, "NoneType"), "list of text": (["a", 7], "list"), "number": (True, "bool"),
    "integer": (True, "bool"), "boolean": (1, "int"), "list": ({}, "dict"), "object": ([], "list"),
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
    value, type_name = WRONG_VALUE[FIELD_KINDS[obj][key]]
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
    expected = f"{where}.{key}: expected {FIELD_KINDS[obj][key]}, got {type_name}"
    assert captured.err.splitlines() == [f"error: {expected}"]


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
