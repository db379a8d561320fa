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
            at = f"{where}.{key}"
            if kind == "list of text" and isinstance(value, list):
                # name the first element that is not text
                i, value = next((i, x) for i, x in enumerate(value) if not isinstance(x, str))
                at, kind = f"{at}[{i}]", "text"
            raise WorkflowConfigError(f"{at}: expected {kind}, got {type(value).__name__}")
    return values


def _construct(where: str, make: Callable[[], Any]) -> Any:
    """make(), with its ValueError or OverflowError reported at where."""
    try:
        return make()
    except (ValueError, OverflowError) as exc:
        raise WorkflowConfigError(f"{where}: {exc}") from exc


def _parse_task(data: Any, where: str) -> TaskSpec:
    (task_id, kind, agent, instruction, expected_output, tools, prec,
     guard, callbacks, evaluator) = _fields(data, where, TASK_FIELDS)
    if guard is not None:
        guard = RouterGuard(*_fields(guard, f"{where}.guard", GUARD_FIELDS))
    if evaluator is not None:
        threshold, target, max_retries = _fields(
            evaluator, f"{where}.evaluator", EVALUATOR_FIELDS)
        evaluator = _construct(f"{where}.evaluator", lambda: EvaluatorConfig(
            float(threshold), target, max_retries))
    return TaskSpec(task_id, agent, instruction, kind, expected_output, tuple(tools),
                    guard, tuple(callbacks), evaluator, frozenset(prec))


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
        agents.append(_construct(where, lambda: AgentProfile(
            agent_id, role_prompt, model_ref, float(temperature))))
    return WorkflowSpec(
        tasks=tuple(_parse_task(raw, f"tasks[{i}]") for i, raw in enumerate(raw_tasks)),
        initial_task=initial_task,
        final_task=final_task,
        agents=tuple(agents),
        registry=builtin_registry(),
    )


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's dict, refusing a key given twice, which json.loads
    would resolve to its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


#: one decoder for every file: json.loads given a hook builds a decoder and
#: a scanner per call, which added about 1 KB to a run's peak traced heap
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def _read_json(path: str | Path) -> Any:
    """Parse a UTF-8 JSON file; only an unreadable file raises OSError.

    ValueError covers bad UTF-8, bad JSON, a key repeated in one object and
    an integer literal over ``sys.get_int_max_str_digits()`` digits."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
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
    ``{"match": ..., "responses": [...]}``, never both, with an optional
    ``regex`` flag.
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
        if response is not None:
            if responses is not None:
                raise WorkflowConfigError(f"{where}: give 'response' or 'responses', not both")
            responses = [response]
        elif responses is None:
            raise WorkflowConfigError(f"{where}: needs 'response' or 'responses'")
        scripted = _construct(where, lambda: ScriptedRule(match, tuple(responses), regex))
        if regex:
            try:
                re.compile(match)
            except re.error as exc:
                raise WorkflowConfigError(f"{where}.match: invalid regex: {exc}") from exc
        rules.append(scripted)
    return ScriptedBackend(rules, fallback=fallback)


def load_scripted_rules(path: str | Path) -> ScriptedBackend:
    return parse_scripted_rules(_read_json(path))
