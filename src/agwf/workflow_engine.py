"""Workflow representation, validation, linearization, and execution.

A workflow is a DAG of agent-executed tasks over a single string-valued
state.  Execution is strictly sequential: tasks run in a deterministic
topological order, and each task appends its output to the state under
a labeled section delimiter.  When a task has tools, the selected tool
runs on the previous state and its output is fed into the task's prompt
but never persisted into the state itself — it is recorded only in the
per-task execution detail.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Union

from . import task_kinds
from .agents import (
    AgentProfile,
    CompletionBackend,
    complete,
    select_tool,
    selection_prompt,
)
from .event_log import EventLog
from .pm_tools import ToolRegistry
from .task_kinds import EVALUATOR, ROUTER, TASK_KINDS, EvaluatorResult, RouterGuard

MemoryValue = Union[EventLog, str]

#: text appended for tasks a router guard turned off
SKIPPED_TEXT = "SKIPPED"


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class DuplicateKey(Exception):
    pass


class UnknownEntityKey(Exception):
    pass


class CallbackCheckFailed(Exception):
    pass


class UnknownCallback(Exception):
    pass


class InvalidWorkflow(Exception):
    def __init__(self, violations: list["Violation"]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


class ExecutionAborted(Exception):
    """Execution stopped mid-workflow; carries the partial record."""

    def __init__(self, message: str, record: "ExecutionRecord"):
        super().__init__(message)
        self.record = record


# ---------------------------------------------------------------------------
# Entity memory
# ---------------------------------------------------------------------------

class EntityMemory:
    """Write-once key-value store carrying artifacts between tasks.

    Re-storing an existing key raises DuplicateKey, which keeps the data
    flow of one execution auditable.
    """

    def __init__(self):
        self._items: dict[str, MemoryValue] = {}

    def store(self, key: str, value: MemoryValue) -> None:
        if key in self._items:
            raise DuplicateKey(f"entity key {key!r} already stored")
        self._items[key] = value

    def load(self, key: str) -> MemoryValue:
        if key not in self._items:
            raise UnknownEntityKey(f"unknown entity key {key!r}")
        return self._items[key]

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def snapshot(self) -> dict[str, MemoryValue]:
        return dict(self._items)

    def restore(self, contents: Mapping[str, MemoryValue]) -> None:
        """Reset to earlier snapshot() contents (an evaluator rewind)."""
        self._items = dict(contents)


# ---------------------------------------------------------------------------
# Workflow types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluatorConfig:
    threshold: float
    target_task_id: str
    max_retries: int = 2

    def __post_init__(self):
        if not 1.0 <= self.threshold <= 10.0:
            raise ValueError(f"threshold must be in [1, 10], got {self.threshold}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class TaskSpec:
    id: str
    agent_id: str
    instruction: str
    kind: str = task_kinds.PLAIN
    expected_output: str = ""
    tool_names: tuple[str, ...] = ()
    guard: RouterGuard | None = None
    callback_names: tuple[str, ...] = ()
    evaluator_config: EvaluatorConfig | None = None


@dataclass(frozen=True)
class WorkflowSpec:
    tasks: tuple[TaskSpec, ...]
    prec: dict[str, frozenset[str]]
    initial_task: str
    final_task: str
    agents: tuple[AgentProfile, ...]
    registry: ToolRegistry

    def task(self, task_id: str) -> TaskSpec:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise KeyError(task_id)


@dataclass
class TaskDetail:
    """What one task actually did during an execution.

    selection_prompt is filled only when a tool was actually chosen among
    several candidates; it never enters the state sequence.
    """

    selected_tool: str | None = None
    tool_output: str = ""
    prompt_sent: str = ""
    raw_response: str = ""
    retries_used: int = 0
    skipped: bool = False
    score: float | None = None
    low_quality: bool = False
    selection_prompt: str = ""


@dataclass(frozen=True)
class ExecutionRecord:
    """The realized task sequence and state sequence of one run.

    states[0] is the initial inquiry and states[i+1] the state after
    task_sequence[i]; every state extends its predecessor as a prefix.
    """

    task_sequence: tuple[str, ...]
    states: tuple[str, ...]
    details: dict[str, TaskDetail]
    memory_final: dict[str, MemoryValue] = field(default_factory=dict)

    @property
    def final_state(self) -> str:
        return self.states[-1]

    def task_output(self, task_id: str) -> str:
        """The text the task appended (without the section delimiter)."""
        index = self.task_sequence.index(task_id)
        before, after = self.states[index], self.states[index + 1]
        prefix = before + "\n" + output_marker(task_id) + "\n"
        if not after.startswith(prefix):
            raise ValueError(f"state {index + 1} does not extend state {index}")
        return after[len(prefix):]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

CYCLE_DETECTED = "CycleDetected"
INITIAL_TASK_HAS_PREDECESSORS = "InitialTaskHasPredecessors"
SOURCE_TASK_NOT_INITIAL = "SourceTaskNotInitial"
FINAL_TASK_UNREACHABLE = "FinalTaskUnreachable"
UNKNOWN_TASK = "UnknownTask"
DUPLICATE_TASK_ID = "DuplicateTaskId"
UNKNOWN_AGENT = "UnknownAgent"
UNKNOWN_TOOL = "UnknownTool"
UNKNOWN_TASK_KIND = "UnknownTaskKind"
EVALUATOR_CONFIG_MISMATCH = "EvaluatorConfigMismatch"
EVALUATOR_TARGET_INVALID = "EvaluatorTargetInvalid"
GUARD_INVALID = "GuardInvalid"


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.subject}: {self.message}"


def _reachable(edges: Mapping[str, Iterable[str]], start: str) -> set[str]:
    """Ids reachable from start along one or more edges."""
    seen: set[str] = set()
    frontier = list(edges[start])
    while frontier:
        current = frontier.pop()
        if current not in seen:
            seen.add(current)
            frontier.extend(edges[current])
    return seen


def _graph(spec: WorkflowSpec) -> tuple[dict[str, set[str]], dict[str, list[str]]]:
    """Predecessors and successors by id; assumes unique ids and resolvable prec."""
    preds = {task.id: set(spec.prec.get(task.id, ())) for task in spec.tasks}
    successors: dict[str, list[str]] = {task_id: [] for task_id in preds}
    for task_id, predecessors in preds.items():
        for pred in predecessors:
            successors[pred].append(task_id)
    return preds, successors


def _toposort(preds: Mapping[str, set[str]],
              successors: Mapping[str, list[str]]) -> tuple[list[str], list[str]]:
    """Kahn's algorithm taking the smallest ready id first.

    Returns the order and the sorted ids that cannot be ordered (they sit
    on or behind a cycle).
    """
    waiting = {task_id: len(predecessors) for task_id, predecessors in preds.items()}
    ready = [task_id for task_id, count in waiting.items() if not count]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        current = heapq.heappop(ready)
        order.append(current)
        for successor in successors[current]:
            waiting[successor] -= 1
            if not waiting[successor]:
                heapq.heappush(ready, successor)
    return order, sorted(task_id for task_id, count in waiting.items() if count)


def validate(spec: WorkflowSpec) -> list[Violation]:
    """Check the workflow's structural invariants; violations are data."""
    out: list[Violation] = []
    ids = [t.id for t in spec.tasks]
    known = set(ids)

    seen: set[str] = set()
    for task_id in ids:
        if task_id in seen:
            out.append(Violation(DUPLICATE_TASK_ID, task_id, "task id appears more than once"))
        seen.add(task_id)

    for name, ref in (("initial_task", spec.initial_task), ("final_task", spec.final_task)):
        if ref not in known:
            out.append(Violation(UNKNOWN_TASK, ref, f"{name} is not among the tasks"))
    for task_id, predecessors in sorted(spec.prec.items()):
        if task_id not in known:
            out.append(Violation(UNKNOWN_TASK, task_id, "prec names a task that does not exist"))
        for pred in sorted(predecessors):
            if pred not in known:
                out.append(Violation(UNKNOWN_TASK, pred, f"prec of {task_id!r} names a task that does not exist"))

    agent_ids = {a.id for a in spec.agents}
    for task in spec.tasks:
        if task.kind not in TASK_KINDS:
            out.append(Violation(UNKNOWN_TASK_KIND, task.id, f"unknown kind {task.kind!r}"))
        if task.agent_id not in agent_ids:
            out.append(Violation(UNKNOWN_AGENT, task.id, f"agent {task.agent_id!r} is not defined"))
        for tool_name in task.tool_names:
            if tool_name not in spec.registry:
                out.append(Violation(UNKNOWN_TOOL, task.id, f"tool {tool_name!r} is not registered"))
        has_config = task.evaluator_config is not None
        if has_config != (task.kind == EVALUATOR):
            out.append(Violation(
                EVALUATOR_CONFIG_MISMATCH, task.id,
                "evaluator_config must be present exactly for evaluator tasks",
            ))

    if out:
        # structural checks below assume resolvable, unique references
        return out

    preds, successors = _graph(spec)
    _, on_cycle = _toposort(preds, successors)
    if on_cycle:
        out.append(Violation(CYCLE_DETECTED, ", ".join(on_cycle), "precedence relation contains a cycle"))

    if preds[spec.initial_task]:
        out.append(Violation(
            INITIAL_TASK_HAS_PREDECESSORS, spec.initial_task,
            f"initial task has predecessors {sorted(preds[spec.initial_task])}",
        ))
    for task_id in ids:
        if task_id != spec.initial_task and not preds[task_id]:
            out.append(Violation(
                SOURCE_TASK_NOT_INITIAL, task_id,
                "only the initial task may have an empty predecessor set",
            ))

    reaches_final = _reachable(preds, spec.final_task) | {spec.final_task}
    for task_id in ids:
        if task_id not in reaches_final:
            out.append(Violation(FINAL_TASK_UNREACHABLE, task_id, "task has no path to the final task"))

    kinds = {task.id: task.kind for task in spec.tasks}
    # one walk per distinct guard router: the tasks it precedes
    routers = {task.guard.router_task_id for task in spec.tasks if task.guard is not None}
    downstream = {router: _reachable(successors, router) for router in routers & known}
    for task in spec.tasks:
        if task.evaluator_config is not None:
            target = task.evaluator_config.target_task_id
            if target not in known or target not in preds[task.id]:
                out.append(Violation(
                    EVALUATOR_TARGET_INVALID, task.id,
                    f"evaluated task {target!r} must be a direct predecessor",
                ))
        if task.guard is not None:
            router = task.guard.router_task_id
            if router not in known or task.id not in downstream[router]:
                out.append(Violation(
                    GUARD_INVALID, task.id,
                    f"guard router {router!r} must precede the guarded task",
                ))
            elif kinds[router] != ROUTER:
                out.append(Violation(
                    GUARD_INVALID, task.id,
                    f"guard router {router!r} is not a router task",
                ))
    return out


def linearize(spec: WorkflowSpec) -> list[str]:
    """Deterministic topological order: ready tasks by smallest id first."""
    violations = validate(spec)
    if violations:
        raise InvalidWorkflow(violations)
    order, _ = _toposort(*_graph(spec))
    return order


# ---------------------------------------------------------------------------
# State composition
# ---------------------------------------------------------------------------

def output_marker(task_id: str) -> str:
    return f"=== output of {task_id} ==="


def append_state(previous: str, task_id: str, addition: str) -> str:
    """State concatenation: labeled section delimiter plus the addition."""
    return f"{previous}\n{output_marker(task_id)}\n{addition}"


def extract_section(state: str, task_id: str) -> str | None:
    """Text of the task's last recorded section, or None if absent."""
    marker = output_marker(task_id)
    lines = state.split("\n")
    start = None
    for i, line in enumerate(lines):
        if line == marker:
            start = i
    if start is None:
        return None
    body: list[str] = []
    for line in lines[start + 1:]:
        if line.startswith("=== output of ") and line.endswith(" ==="):
            break
        body.append(line)
    return "\n".join(body)


# ---------------------------------------------------------------------------
# Callbacks
# ---------------------------------------------------------------------------

def run_callbacks(task: TaskSpec, response: str, memory: EntityMemory) -> None:
    """Run the task's callbacks in declared order.

    Built-ins: ``require_nonempty``, ``require_contains:<needle>``,
    ``write_to_file:<path>``.  A failed require_* aborts the execution.
    """
    for name in task.callback_names:
        base, _, argument = name.partition(":")
        if base == "require_nonempty":
            if not response.strip():
                raise CallbackCheckFailed(f"task {task.id!r}: require_nonempty failed")
        elif base == "require_contains":
            if not argument:
                raise UnknownCallback("require_contains needs ':<needle>'")
            if argument not in response:
                raise CallbackCheckFailed(
                    f"task {task.id!r}: require_contains:{argument} failed"
                )
        elif base == "write_to_file":
            if not argument:
                raise UnknownCallback("write_to_file needs ':<path>'")
            Path(argument).write_text(response)
        else:
            raise UnknownCallback(f"unknown callback {base!r}")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

Backends = Union[CompletionBackend, Mapping[str, CompletionBackend]]


def _backend_for(backends: Backends, agent_id: str) -> CompletionBackend:
    if isinstance(backends, Mapping):
        return backends[agent_id]
    return backends


def _route_options(spec: WorkflowSpec, router_id: str) -> list[str]:
    tokens = {
        t.guard.expected_route_token
        for t in spec.tasks
        if t.guard is not None and t.guard.router_task_id == router_id
    }
    return sorted(tokens)


def execute(spec: WorkflowSpec, inquiry: str, backends: Backends,
            memory: EntityMemory | None = None) -> ExecutionRecord:
    """Run the workflow sequentially over the inquiry.

    Per task, in linearized order: a guarded task whose router chose a
    different token appends the literal SKIPPED section; a task without
    tools is prompted on the current state; a task with tools first
    selects one, runs it on the current state, and is prompted on state
    plus tool output — only the agent response is appended.  Evaluator
    tasks may wrap execution back to the state and entity memory before
    their target task, at most max_retries times.  Any backend,
    tool-selection, score or callback failure raises ExecutionAborted
    carrying the partial record.
    """
    order = linearize(spec)
    position = {task_id: i for i, task_id in enumerate(order)}
    by_id = {task.id: task for task in spec.tasks}
    profiles = {agent.id: agent for agent in spec.agents}
    memory = EntityMemory() if memory is None else memory

    # the run history: tasks commit in order, so order[:len(done)] ran;
    # done[i] is order[i]'s detail and the entity memory before it ran
    states: list[str] = [inquiry]
    done: list[tuple[TaskDetail, dict[str, MemoryValue]]] = []
    executions: dict[str, int] = {}
    evaluator_retries: dict[str, int] = {}

    def partial() -> ExecutionRecord:
        return ExecutionRecord(
            task_sequence=tuple(order[:len(done)]),
            states=tuple(states),
            details={task_id: detail for task_id, (detail, _) in zip(order, done)},
            memory_final=memory.snapshot(),
        )

    while len(done) < len(order):
        task = by_id[order[len(done)]]
        sigma = states[-1]
        memory_before = memory.snapshot()
        executions[task.id] = executions.get(task.id, 0) + 1
        detail = TaskDetail(retries_used=executions[task.id] - 1)
        try:
            guard = task.guard
            if guard is not None:
                # the router's own recorded reply; a skipped router recorded ""
                router_detail, _ = done[position[guard.router_task_id]]
                route = task_kinds.parse_route(router_detail.raw_response)
                detail.skipped = route != guard.expected_route_token
            if detail.skipped:
                response = SKIPPED_TEXT
            else:
                profile = profiles[task.agent_id]
                backend = _backend_for(backends, task.agent_id)

                tool_output: str | None = None
                if task.tool_names:
                    candidates = [
                        spec.registry.get(name) for name in dict.fromkeys(task.tool_names)
                    ]
                    if len(candidates) > 1:
                        detail.selection_prompt = selection_prompt(
                            sigma, sorted(candidates, key=lambda t: t.name)
                        )
                    tool = select_tool(profile, backend, sigma, candidates)
                    detail.selected_tool = tool.name
                    tool_output = tool.function(sigma, memory)
                    detail.tool_output = tool_output

                options = _route_options(spec, task.id) if task.kind == ROUTER else ()
                prompt = task_kinds.build_prompt(task, sigma, tool_output, route_options=options)
                detail.prompt_sent = prompt
                response = complete(profile, backend, prompt)
                detail.raw_response = response

                if task.kind == EVALUATOR:
                    result: EvaluatorResult = task_kinds.parse_score(response)
                    detail.score = result.score
                    config = task.evaluator_config
                    assert config is not None
                    used = evaluator_retries.get(task.id, 0)
                    if task_kinds.apply_wrap_back(task, result, used) == "retry":
                        evaluator_retries[task.id] = used + 1
                        target = position[config.target_task_id]
                        memory.restore(done[target][1])
                        del states[target + 1:], done[target:]
                        continue
                    if result.score < config.threshold:
                        detail.low_quality = True

            done.append((detail, memory_before))
            states.append(append_state(sigma, task.id, response))
            if not detail.skipped:
                run_callbacks(task, response, memory)
        except Exception as exc:
            raise ExecutionAborted(
                f"task {task.id!r} aborted the execution: {exc}", partial()
            ) from exc

    return partial()


# ---------------------------------------------------------------------------
# Transcript serialization
# ---------------------------------------------------------------------------

def record_to_dict(record: ExecutionRecord) -> dict:
    """JSON-ready mirror of an ExecutionRecord."""
    return {
        "task_sequence": list(record.task_sequence),
        "states": list(record.states),
        "details": {task_id: asdict(d) for task_id, d in record.details.items()},
        "memory_final": {
            key: _memory_value_to_dict(value)
            for key, value in record.memory_final.items()
        },
    }


def _memory_value_to_dict(value: MemoryValue) -> dict:
    if isinstance(value, EventLog):
        return {
            "type": "event_log",
            "source_name": value.source_name,
            "trace_count": len(value.traces),
            "event_count": sum(len(t.events) for t in value.traces),
        }
    return {"type": "text", "value": value}
