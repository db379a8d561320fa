"""Workflow definition files (JSON, schema_version 1) and scripted rules.

Every JSON object is checked against a field table: each key's JSON kind
and its default, or ``REQUIRED``.  Unknown keys are rejected at every
level so that typos in a config fail loudly instead of silently changing
behavior.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable

from .agents import AgentProfile, ScriptedBackend, ScriptedRule
from .pm_tools import builtin_registry
from .task_kinds import RouterGuard
from .workflow_engine import EvaluatorConfig, TaskSpec, WorkflowSpec

SCHEMA_VERSION = 1


class WorkflowConfigError(Exception):
    pass


#: JSON kind -> test of a parsed value; a boolean is neither a number nor
#: an integer, and an object field may be null, which means absent
_KINDS: dict[str, Callable[[Any], bool]] = {
    "text": lambda v: isinstance(v, str),
    "list of text": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: v is None or isinstance(v, dict),
}

REQUIRED = object()

#: a field table: key -> (JSON kind, default or REQUIRED)
Schema = dict[str, tuple[str, Any]]

AGENT_FIELDS: Schema = {"id": ("text", REQUIRED), "role_prompt": ("text", REQUIRED),
                        "model_ref": ("text", ""), "temperature": ("number", 0.0)}
GUARD_FIELDS: Schema = {"router_task_id": ("text", REQUIRED),
                        "expected_route_token": ("text", REQUIRED)}
EVALUATOR_FIELDS: Schema = {"threshold": ("number", REQUIRED),
                            "target_task_id": ("text", REQUIRED), "max_retries": ("integer", 2)}
TASK_FIELDS: Schema = {
    "id": ("text", REQUIRED), "kind": ("text", "plain"), "agent": ("text", REQUIRED),
    "instruction": ("text", REQUIRED), "expected_output": ("text", ""),
    "tools": ("list of text", ()), "prec": ("list of text", ()), "guard": ("object", None),
    "callbacks": ("list of text", ()), "evaluator": ("object", None),
}
WORKFLOW_FIELDS: Schema = {"schema_version": ("number", REQUIRED), "agents": ("list", REQUIRED),
                           "tasks": ("list", REQUIRED), "initial_task": ("text", REQUIRED),
                           "final_task": ("text", REQUIRED)}
RULE_FIELDS: Schema = {"match": ("text", REQUIRED), "response": ("text", None),
                       "responses": ("list of text", None), "regex": ("boolean", False)}
RULES_FILE_FIELDS: Schema = {"rules": ("list", ()), "fallback": ("text", "")}


def _fields(data: Any, where: str, schema: Schema) -> list[Any]:
    """Check a JSON object against schema; return its values in schema order."""
    if not isinstance(data, dict):
        raise WorkflowConfigError(f"{where}: expected an object")
    for key in data:
        if key not in schema:
            raise WorkflowConfigError(f"{where}: unknown key {key!r}")
    values = []
    for key, (kind, default) in schema.items():
        if key not in data:
            if default is REQUIRED:
                raise WorkflowConfigError(f"{where}: missing required key {key!r}")
            values.append(default)
        elif _KINDS[kind](value := data[key]):
            values.append(value)
        else:
            raise WorkflowConfigError(f"{where}.{key}: expected {kind}, "
                                      f"got {type(value).__name__}")
    return values


def _construct(where: str, make: Callable[..., Any], *args: Any) -> Any:
    """make(*args), with its ValueError reported at where."""
    try:
        return make(*args)
    except ValueError as exc:
        raise WorkflowConfigError(f"{where}: {exc}") from exc


def _parse_task(data: Any, where: str) -> tuple[TaskSpec, frozenset[str]]:
    (task_id, kind, agent, instruction, expected_output, tools, prec,
     guard, callbacks, evaluator) = _fields(data, where, TASK_FIELDS)
    if guard is not None:
        guard = RouterGuard(*_fields(guard, f"{where}.guard", GUARD_FIELDS))
    if evaluator is not None:
        threshold, target, max_retries = _fields(
            evaluator, f"{where}.evaluator", EVALUATOR_FIELDS)
        evaluator = _construct(f"{where}.evaluator", EvaluatorConfig,
                               float(threshold), target, max_retries)
    task = TaskSpec(task_id, agent, instruction, kind, expected_output, tuple(tools),
                    guard, tuple(callbacks), evaluator)
    return task, frozenset(prec)


def parse_workflow(data: Any) -> WorkflowSpec:
    """Build a WorkflowSpec from a parsed JSON document."""
    version, raw_agents, raw_tasks, initial_task, final_task = _fields(
        data, "workflow", WORKFLOW_FIELDS)
    if version != SCHEMA_VERSION:
        raise WorkflowConfigError(f"unsupported schema_version {version!r}; "
                                  f"this build reads version {SCHEMA_VERSION}")
    agents = []
    for i, raw in enumerate(raw_agents):
        where = f"agents[{i}]"
        agent_id, role_prompt, model_ref, temperature = _fields(raw, where, AGENT_FIELDS)
        agents.append(_construct(where, AgentProfile,
                                 agent_id, role_prompt, model_ref, float(temperature)))
    tasks = [_parse_task(raw, f"tasks[{i}]") for i, raw in enumerate(raw_tasks)]
    return WorkflowSpec(
        tasks=tuple(task for task, _ in tasks),
        prec={task.id: predecessors for task, predecessors in tasks},
        initial_task=initial_task,
        final_task=final_task,
        agents=tuple(agents),
        registry=builtin_registry(),
    )


def _read_json(path: str | Path) -> Any:
    """Parse a UTF-8 JSON file; only an unreadable file raises OSError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise WorkflowConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_workflow(path: str | Path) -> WorkflowSpec:
    """Load a workflow definition file (JSON, schema_version 1)."""
    return parse_workflow(_read_json(path))


# ---------------------------------------------------------------------------
# Scripted-rules files
# ---------------------------------------------------------------------------

def parse_scripted_rules(data: Any) -> ScriptedBackend:
    """Build a ScriptedBackend from rules-file JSON.

    Accepts either ``{"rules": [...], "fallback": "..."}`` or a bare list
    of rules.  Each rule is ``{"match": ..., "response": ...}`` or
    ``{"match": ..., "responses": [...]}`` with an optional ``regex`` flag.
    """
    if isinstance(data, list):
        data = {"rules": data}
    elif not isinstance(data, dict):
        raise WorkflowConfigError("rules file must be a JSON object or list")
    raw_rules, fallback = _fields(data, "rules file", RULES_FILE_FIELDS)
    rules: list[ScriptedRule] = []
    for i, raw in enumerate(raw_rules):
        where = f"rules[{i}]"
        match, response, responses, regex = _fields(raw, where, RULE_FIELDS)
        if responses is not None:
            if not responses:
                raise WorkflowConfigError(f"{where}: 'responses' must not be empty")
        elif response is not None:
            responses = [response]
        else:
            raise WorkflowConfigError(f"{where}: needs 'response' or 'responses'")
        if regex:
            try:
                re.compile(match)
            except re.error as exc:
                raise WorkflowConfigError(f"{where}.match: invalid regex: {exc}") from exc
        rules.append(ScriptedRule(match, tuple(responses), regex))
    return ScriptedBackend(rules, fallback=fallback)


def load_scripted_rules(path: str | Path) -> ScriptedBackend:
    return parse_scripted_rules(_read_json(path))
