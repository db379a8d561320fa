from __future__ import annotations

import json

import pytest

from agwf.demos import BUNDLE_NAMES, bundle
from agwf.task_kinds import RouterGuard
from agwf.workflow_config import (
    WorkflowConfigError,
    load_scripted_rules,
    load_workflow,
    parse_scripted_rules,
    parse_workflow,
)
from agwf.workflow_engine import validate


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "agents": [{"id": "a", "role_prompt": "You help."}],
        "tasks": [
            {"id": "T1", "agent": "a", "instruction": "do it", "prec": []},
            {"id": "T2", "agent": "a", "instruction": "finish", "prec": ["T1"]},
        ],
        "initial_task": "T1",
        "final_task": "T2",
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_document():
    spec = parse_workflow(minimal_doc())
    assert [t.id for t in spec.tasks] == ["T1", "T2"]
    assert [t.prec for t in spec.tasks] == [frozenset(), frozenset({"T1"})]
    assert validate(spec) == []


def _task(task_id, *prec):
    return {"id": task_id, "agent": "a", "instruction": "step", "prec": list(prec)}


def test_validate_checks_the_predecessors_of_every_copy_of_a_duplicated_id():
    spec = parse_workflow(minimal_doc(tasks=[
        _task("T1"), _task("T2", "T1", "ghost"), _task("T2", "T1", "phantom"),
    ]))
    assert [str(v) for v in validate(spec)] == [
        "DuplicateTaskId: T2: task id appears more than once",
        "UnknownTask: ghost: prec of 'T2' names a task that does not exist",
        "UnknownTask: phantom: prec of 'T2' names a task that does not exist",
    ]


def test_validate_lists_unknown_predecessors_by_task_id_then_by_name():
    spec = parse_workflow(minimal_doc(tasks=[
        _task("T1"), _task("T3", "zeta", "T1", "alpha"), _task("T2", "omega", "beta"),
    ], final_task="T3"))
    assert [(v.subject, v.message) for v in validate(spec)] == [
        ("beta", "prec of 'T2' names a task that does not exist"),
        ("omega", "prec of 'T2' names a task that does not exist"),
        ("alpha", "prec of 'T3' names a task that does not exist"),
        ("zeta", "prec of 'T3' names a task that does not exist"),
    ]


def test_schema_version_is_required():
    doc = minimal_doc()
    del doc["schema_version"]
    with pytest.raises(WorkflowConfigError):
        parse_workflow(doc)


def test_wrong_schema_version_rejected():
    with pytest.raises(WorkflowConfigError) as err:
        parse_workflow(minimal_doc(schema_version=2))
    assert "schema_version" in str(err.value)


def test_unknown_top_level_key_rejected():
    with pytest.raises(WorkflowConfigError) as err:
        parse_workflow(minimal_doc(surprise=True))
    assert "surprise" in str(err.value)


def test_unknown_task_key_rejected():
    doc = minimal_doc()
    doc["tasks"][0]["colour"] = "blue"
    with pytest.raises(WorkflowConfigError) as err:
        parse_workflow(doc)
    assert "tasks[0]" in str(err.value) and "colour" in str(err.value)


def test_unknown_agent_key_rejected():
    doc = minimal_doc()
    doc["agents"][0]["nickname"] = "sam"
    with pytest.raises(WorkflowConfigError):
        parse_workflow(doc)


def test_guard_and_evaluator_parse():
    doc = minimal_doc()
    doc["agents"].append({"id": "r", "role_prompt": "You route."})
    doc["tasks"] = [
        {"id": "T1", "kind": "router", "agent": "r", "instruction": "route", "prec": []},
        {
            "id": "T2", "agent": "a", "instruction": "branch", "prec": ["T1"],
            "guard": {"router_task_id": "T1", "expected_route_token": "go"},
        },
        {
            "id": "T3", "kind": "evaluator", "agent": "a", "instruction": "grade",
            "prec": ["T2"],
            "evaluator": {"threshold": 6.0, "target_task_id": "T2", "max_retries": 1},
        },
    ]
    doc["final_task"] = "T3"
    tasks = {t.id: t for t in parse_workflow(doc).tasks}
    assert tasks["T2"].guard == RouterGuard("T1", "go")
    config = tasks["T3"].evaluator_config
    assert config.threshold == 6.0 and config.max_retries == 1


def test_null_guard_and_evaluator_mean_absent():
    doc = minimal_doc()
    doc["tasks"][1].update(guard=None, evaluator=None)
    task = parse_workflow(doc).tasks[1]
    assert task.guard is None and task.evaluator_config is None


def test_schema_version_is_the_number_1_not_true():
    assert parse_workflow(minimal_doc(schema_version=1)).initial_task == "T1"
    with pytest.raises(WorkflowConfigError,
                       match=r"^workflow\.schema_version: expected number, got bool$"):
        parse_workflow(minimal_doc(schema_version=True))


def test_guard_unknown_key_rejected():
    doc = minimal_doc()
    doc["tasks"][1]["guard"] = {"router_task_id": "T1", "token": "go"}
    with pytest.raises(WorkflowConfigError):
        parse_workflow(doc)


def test_bad_json_file_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(WorkflowConfigError) as err:
        load_workflow(path)
    assert "broken.json" in str(err.value)


def test_a_byte_order_mark_is_named(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf{}")
    with pytest.raises(WorkflowConfigError, match=r"^.*bom\.json: not valid JSON: Unexpected "
                       r"UTF-8 BOM \(decode using utf-8-sig\): line 1 column 1 \(char 0\)$"):
        load_workflow(path)


@pytest.mark.parametrize("key", ["prec", "callbacks"])
def test_a_list_of_text_names_its_first_bad_element(key):
    doc = minimal_doc()
    doc["tasks"][1][key] = ["T1", None, 3]
    with pytest.raises(WorkflowConfigError,
                       match=rf"^tasks\[1\]\.{key}\[1\]: expected text, got NoneType$"):
        parse_workflow(doc)
    doc["tasks"][1][key] = "T1"
    with pytest.raises(WorkflowConfigError,
                       match=rf"^tasks\[1\]\.{key}: expected list of text, got str$"):
        parse_workflow(doc)


def test_temperature_type_checked():
    doc = minimal_doc()
    doc["agents"][0]["temperature"] = "hot"
    with pytest.raises(WorkflowConfigError):
        parse_workflow(doc)


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_bundled_workflows_are_valid(name):
    assert validate(load_workflow(bundle(name).workflow)) == []
    assert load_scripted_rules(bundle(name).rules).rules


# ---------------------------------------------------------------------------
# Scripted-rules files
# ---------------------------------------------------------------------------

def test_rules_object_form():
    backend = parse_scripted_rules(
        {"rules": [{"match": "x", "response": "y"}], "fallback": "f"}
    )
    assert backend.fallback == "f"
    assert backend.rules[0].responses == ("y",)


def test_rules_bare_list_form():
    backend = parse_scripted_rules([{"match": "x", "responses": ["a", "b"]}])
    assert backend.fallback == ""
    assert backend.rules[0].responses == ("a", "b")


def test_rules_need_response():
    with pytest.raises(WorkflowConfigError):
        parse_scripted_rules([{"match": "x"}])


@pytest.mark.parametrize("key", ["response", "responses"])
def test_rules_null_response_rejected(key):
    kind = "text" if key == "response" else "list of text"
    with pytest.raises(WorkflowConfigError,
                       match=rf"^rules\[0\]\.{key}: expected {kind}, got NoneType$"):
        parse_scripted_rules([{"match": "x", key: None}])


def test_rules_unknown_key_rejected():
    with pytest.raises(WorkflowConfigError):
        parse_scripted_rules([{"match": "x", "response": "y", "mode": "loose"}])


def test_rules_regex_flag_type_checked():
    with pytest.raises(WorkflowConfigError):
        parse_scripted_rules([{"match": "x", "response": "y", "regex": "yes"}])


def test_rules_regex_compiled_at_load():
    rules = [{"match": "([", "response": "y"}, {"match": "([", "response": "y", "regex": True}]
    with pytest.raises(WorkflowConfigError, match=r"rules\[1\]\.match: invalid regex"):
        parse_scripted_rules(rules)
