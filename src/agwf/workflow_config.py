"""Workflow definition files (JSON, schema_version 1) and scripted rules.

Unknown keys are rejected at every level so that typos in a config fail
loudly instead of silently changing behavior.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from .agents import AgentProfile, ScriptedBackend, ScriptedRule
from .pm_tools import builtin_registry
from .task_kinds import RouterGuard
from .workflow_engine import EvaluatorConfig, TaskSpec, WorkflowSpec

SCHEMA_VERSION = 1


class WorkflowConfigError(Exception):
    pass


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise WorkflowConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _object(data: Any, allowed: set[str], where: str) -> None:
    """Require a JSON object whose keys are all among allowed."""
    if not isinstance(data, dict):
        raise WorkflowConfigError(f"{where}: expected an object")
    for key in data:
        if key not in allowed:
            raise WorkflowConfigError(f"{where}: unknown key {key!r}")


def _text(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise WorkflowConfigError(f"{where}: expected text, got {type(value).__name__}")
    return value


def _text_list(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise WorkflowConfigError(f"{where}: expected a list of text values")
    return tuple(value)


def _parse_agent(data: Any, where: str) -> AgentProfile:
    _object(data, {"id", "role_prompt", "model_ref", "temperature"}, where)
    temperature = data.get("temperature", 0.0)
    if not isinstance(temperature, (int, float)) or isinstance(temperature, bool):
        raise WorkflowConfigError(f"{where}: temperature must be a number")
    try:
        return AgentProfile(
            id=_text(_require(data, "id", where), f"{where}.id"),
            role_prompt=_text(_require(data, "role_prompt", where), f"{where}.role_prompt"),
            model_ref=_text(data.get("model_ref", ""), f"{where}.model_ref"),
            temperature=float(temperature),
        )
    except ValueError as exc:
        raise WorkflowConfigError(f"{where}: {exc}") from exc


def _parse_guard(data: Any, where: str) -> RouterGuard:
    _object(data, {"router_task_id", "expected_route_token"}, where)
    return RouterGuard(
        router_task_id=_text(_require(data, "router_task_id", where), f"{where}.router_task_id"),
        expected_route_token=_text(
            _require(data, "expected_route_token", where), f"{where}.expected_route_token"
        ),
    )


def _parse_evaluator(data: Any, where: str) -> EvaluatorConfig:
    _object(data, {"threshold", "max_retries", "target_task_id"}, where)
    threshold = _require(data, "threshold", where)
    if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
        raise WorkflowConfigError(f"{where}: threshold must be a number")
    max_retries = data.get("max_retries", 2)
    if not isinstance(max_retries, int) or isinstance(max_retries, bool):
        raise WorkflowConfigError(f"{where}: max_retries must be an integer")
    try:
        return EvaluatorConfig(
            threshold=float(threshold),
            target_task_id=_text(_require(data, "target_task_id", where), f"{where}.target_task_id"),
            max_retries=max_retries,
        )
    except ValueError as exc:
        raise WorkflowConfigError(f"{where}: {exc}") from exc


def _parse_task(data: Any, where: str) -> tuple[TaskSpec, frozenset[str]]:
    _object(data, {
        "id", "kind", "agent", "instruction", "expected_output",
        "tools", "prec", "guard", "callbacks", "evaluator",
    }, where)
    guard = data.get("guard")
    evaluator = data.get("evaluator")
    task = TaskSpec(
        id=_text(_require(data, "id", where), f"{where}.id"),
        agent_id=_text(_require(data, "agent", where), f"{where}.agent"),
        instruction=_text(_require(data, "instruction", where), f"{where}.instruction"),
        kind=_text(data.get("kind", "plain"), f"{where}.kind"),
        expected_output=_text(data.get("expected_output", ""), f"{where}.expected_output"),
        tool_names=_text_list(data.get("tools", []), f"{where}.tools"),
        guard=_parse_guard(guard, f"{where}.guard") if guard is not None else None,
        callback_names=_text_list(data.get("callbacks", []), f"{where}.callbacks"),
        evaluator_config=(
            _parse_evaluator(evaluator, f"{where}.evaluator") if evaluator is not None else None
        ),
    )
    prec = frozenset(_text_list(data.get("prec", []), f"{where}.prec"))
    return task, prec


def parse_workflow(data: Any) -> WorkflowSpec:
    """Build a WorkflowSpec from a parsed JSON document."""
    _object(data, {"schema_version", "agents", "tasks", "initial_task", "final_task"}, "workflow")
    version = _require(data, "schema_version", "workflow")
    if version != SCHEMA_VERSION:
        raise WorkflowConfigError(
            f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    raw_agents = _require(data, "agents", "workflow")
    raw_tasks = _require(data, "tasks", "workflow")
    if not isinstance(raw_agents, list) or not isinstance(raw_tasks, list):
        raise WorkflowConfigError("'agents' and 'tasks' must be lists")
    agents = tuple(_parse_agent(a, f"agents[{i}]") for i, a in enumerate(raw_agents))
    tasks: list[TaskSpec] = []
    prec: dict[str, frozenset[str]] = {}
    for i, raw in enumerate(raw_tasks):
        task, predecessors = _parse_task(raw, f"tasks[{i}]")
        tasks.append(task)
        prec[task.id] = predecessors
    return WorkflowSpec(
        tasks=tuple(tasks),
        prec=prec,
        initial_task=_text(_require(data, "initial_task", "workflow"), "workflow.initial_task"),
        final_task=_text(_require(data, "final_task", "workflow"), "workflow.final_task"),
        agents=agents,
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
        raw_rules, fallback = data, ""
    elif isinstance(data, dict):
        _object(data, {"rules", "fallback"}, "rules file")
        raw_rules = data.get("rules", [])
        fallback = data.get("fallback", "")
        if not isinstance(fallback, str):
            raise WorkflowConfigError("rules file: fallback must be text")
    else:
        raise WorkflowConfigError("rules file must be a JSON object or list")
    if not isinstance(raw_rules, list):
        raise WorkflowConfigError("rules file: 'rules' must be a list")
    rules: list[ScriptedRule] = []
    for i, raw in enumerate(raw_rules):
        where = f"rules[{i}]"
        _object(raw, {"match", "response", "responses", "regex"}, where)
        match = _text(_require(raw, "match", where), f"{where}.match")
        if "responses" in raw:
            responses = _text_list(raw["responses"], f"{where}.responses")
            if not responses:
                raise WorkflowConfigError(f"{where}: 'responses' must not be empty")
        elif "response" in raw:
            responses = (_text(raw["response"], f"{where}.response"),)
        else:
            raise WorkflowConfigError(f"{where}: needs 'response' or 'responses'")
        regex = raw.get("regex", False)
        if not isinstance(regex, bool):
            raise WorkflowConfigError(f"{where}: 'regex' must be a boolean")
        if regex:
            try:
                re.compile(match)
            except re.error as exc:
                raise WorkflowConfigError(f"{where}.match: invalid regex: {exc}") from exc
        rules.append(ScriptedRule(match=match, responses=responses, regex=regex))
    return ScriptedBackend(rules, fallback=fallback)


def load_scripted_rules(path: str | Path) -> ScriptedBackend:
    return parse_scripted_rules(_read_json(path))
