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
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from . import task_kinds
from ._value import FrozenValue, Value
from .agents import (
    AgentProfile,
    CompletionBackend,
    Prompt,
    complete,
    select_tool,
    selection_prompt,
)
from .event_log import EventLog
from .pm_tools import ToolRegistry
from .task_kinds import EVALUATOR, ROUTER, TASK_KINDS, RouterGuard

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
    """Write-once key-value store carrying event logs between tasks.

    Each execution makes its own.  Storing anything but an EventLog raises
    TypeError; re-storing an existing key raises DuplicateKey, which keeps
    the data flow of one execution auditable.  The entries are a read-only
    mapping that store() replaces, so snapshot() and restore() hand one
    over without copying it.  ``kept`` holds what the tools keep for the
    rest of the run (see pm_tools); it holds no entries, so snapshot(),
    restore() and memory_final never see it.
    """

    def __init__(self):
        self._items: Mapping[str, EventLog] = MappingProxyType({})
        self.kept: dict[tuple, object] = {}

    def store(self, entries: Mapping[str, EventLog]) -> None:
        """Store every entry, or, when one is refused, none."""
        for key, value in entries.items():
            if not isinstance(value, EventLog):
                raise TypeError(f"entity {key!r} must be an event log, got {type(value).__name__}")
            if key in self._items:
                raise DuplicateKey(f"entity key {key!r} already stored")
        self._items = MappingProxyType({**self._items, **entries})

    def load(self, key: str) -> EventLog:
        if key not in self._items:
            raise UnknownEntityKey(f"unknown entity key {key!r}")
        return self._items[key]

    def snapshot(self) -> Mapping[str, EventLog]:
        return self._items

    def restore(self, contents: Mapping[str, EventLog]) -> None:
        """Reset to earlier snapshot() contents (an evaluator rewind)."""
        self._items = contents


# ---------------------------------------------------------------------------
# Workflow types
# ---------------------------------------------------------------------------

class EvaluatorConfig(FrozenValue):
    __slots__ = ("threshold", "target_task_id", "max_retries")

    def __init__(self, threshold: float, target_task_id: str, max_retries: int = 2):
        low, high = task_kinds.SCORE_MIN, task_kinds.SCORE_MAX
        if not low <= threshold <= high:
            raise ValueError(f"threshold must be in [{low:g}, {high:g}], got {threshold}")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "target_task_id", target_task_id)
        object.__setattr__(self, "max_retries", max_retries)


class TaskSpec(FrozenValue):
    __slots__ = ("id", "agent_id", "instruction", "kind", "expected_output", "tool_names",
                 "guard", "callback_names", "evaluator_config", "prec")

    def __init__(self, id: str, agent_id: str, instruction: str,
                 kind: str = task_kinds.PLAIN, expected_output: str = "",
                 tool_names: tuple[str, ...] = (), guard: RouterGuard | None = None,
                 callback_names: tuple[str, ...] = (),
                 evaluator_config: EvaluatorConfig | None = None,
                 prec: frozenset[str] = frozenset()):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "agent_id", agent_id)
        object.__setattr__(self, "instruction", instruction)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "expected_output", expected_output)
        object.__setattr__(self, "tool_names", tool_names)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "callback_names", callback_names)
        object.__setattr__(self, "evaluator_config", evaluator_config)
        object.__setattr__(self, "prec", prec)


class WorkflowSpec(FrozenValue):
    __slots__ = ("tasks", "initial_task", "final_task", "agents", "registry")

    def __init__(self, tasks: tuple[TaskSpec, ...], initial_task: str, final_task: str,
                 agents: tuple[AgentProfile, ...], registry: ToolRegistry):
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "initial_task", initial_task)
        object.__setattr__(self, "final_task", final_task)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "registry", registry)


class TaskDetail(Value):
    """What one task actually did during an execution.

    Each prompt the task sent is kept as its own text: a prompt is the
    state the task ran on, which the record holds, followed by that text.
    prompt is the own text of the task's prompt, and selection that of the
    tool-selection prompt, sent only when a tool was chosen among several
    candidates; None means it was not sent.
    """

    __slots__ = ("selected_tool", "tool_output", "prompt", "raw_response", "retries_used",
                 "skipped", "score", "low_quality", "selection")

    def __init__(self, selected_tool: str | None = None, tool_output: str = "",
                 prompt: str | None = None, raw_response: str = "", retries_used: int = 0,
                 skipped: bool = False, score: float | None = None,
                 low_quality: bool = False, selection: str | None = None):
        self.selected_tool = selected_tool
        self.tool_output = tool_output
        self.prompt = prompt
        self.raw_response = raw_response
        self.retries_used = retries_used
        self.skipped = skipped
        self.score = score
        self.low_quality = low_quality
        self.selection = selection


class ExecutionRecord(FrozenValue):
    """The realized task sequence and state sequence of one run.

    states[0] is the initial inquiry and states[i+1] the state after
    task_sequence[i]; every state extends its predecessor as a prefix.  So
    the record holds only the last state, final_state, and where each
    state ends in it: states[i] is final_state[:state_ends[i]], sliced on
    demand by the states property.  Tasks commit in order, so
    task_sequence[i] ran on states[i].
    """

    __slots__ = ("task_sequence", "final_state", "state_ends", "details", "memory_final")

    def __init__(self, task_sequence: tuple[str, ...], final_state: str,
                 state_ends: tuple[int, ...], details: dict[str, TaskDetail],
                 memory_final: Mapping[str, EventLog]):
        object.__setattr__(self, "task_sequence", task_sequence)
        object.__setattr__(self, "final_state", final_state)
        object.__setattr__(self, "state_ends", state_ends)
        object.__setattr__(self, "details", details)
        object.__setattr__(self, "memory_final", memory_final)

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(self.final_state[:end] for end in self.state_ends)

    def task_output(self, task_id: str) -> str:
        """The text the task appended (without the section delimiter)."""
        detail = self.details[task_id]
        return SKIPPED_TEXT if detail.skipped else detail.raw_response


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

CYCLE_DETECTED = "CycleDetected"
INITIAL_TASK_HAS_PREDECESSORS = "InitialTaskHasPredecessors"
SOURCE_TASK_NOT_INITIAL = "SourceTaskNotInitial"
FINAL_TASK_UNREACHABLE = "FinalTaskUnreachable"
UNKNOWN_TASK = "UnknownTask"
DUPLICATE_TASK_ID = "DuplicateTaskId"
DUPLICATE_AGENT_ID = "DuplicateAgentId"
UNKNOWN_AGENT = "UnknownAgent"
UNKNOWN_TOOL = "UnknownTool"
UNKNOWN_TASK_KIND = "UnknownTaskKind"
EVALUATOR_CONFIG_MISMATCH = "EvaluatorConfigMismatch"
EVALUATOR_TARGET_INVALID = "EvaluatorTargetInvalid"
GUARD_INVALID = "GuardInvalid"
UNKNOWN_CALLBACK = "UnknownCallback"


class Violation(FrozenValue):
    __slots__ = ("code", "subject", "message")

    def __init__(self, code: str, subject: str, message: str):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "message", message)

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


def _graph(spec: WorkflowSpec) -> tuple[dict[str, frozenset[str]], dict[str, list[str]]]:
    """Predecessors and successors by id; assumes unique ids and resolvable prec."""
    preds = {task.id: task.prec for task in spec.tasks}
    successors: dict[str, list[str]] = {task_id: [] for task_id in preds}
    for task_id, predecessors in preds.items():
        for pred in predecessors:
            successors[pred].append(task_id)
    return preds, successors


def _route_tokens(spec: WorkflowSpec) -> dict[str, list[str]]:
    """Router id -> the sorted tokens that guards expect from it."""
    tokens: dict[str, set[str]] = {}
    for task in spec.tasks:
        if task.guard is not None:
            tokens.setdefault(task.guard.router_task_id, set()).add(task.guard.expected_route_token)
    return {router: sorted(found) for router, found in tokens.items()}


def _toposort(preds: Mapping[str, frozenset[str]],
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
    agent_ids = [a.id for a in spec.agents]

    for code, what, found in ((DUPLICATE_TASK_ID, "task", ids),
                              (DUPLICATE_AGENT_ID, "agent", agent_ids)):
        seen: set[str] = set()
        for found_id in found:
            if found_id in seen:
                out.append(Violation(code, found_id, f"{what} id appears more than once"))
            seen.add(found_id)

    for name, ref in (("initial_task", spec.initial_task), ("final_task", spec.final_task)):
        if ref not in known:
            out.append(Violation(UNKNOWN_TASK, ref, f"{name} is not among the tasks"))
    for task in sorted(spec.tasks, key=lambda task: task.id):
        for pred in sorted(task.prec - known):
            out.append(Violation(UNKNOWN_TASK, pred, f"prec of {task.id!r} names a task that does not exist"))

    for task in spec.tasks:
        if task.kind not in TASK_KINDS:
            out.append(Violation(UNKNOWN_TASK_KIND, task.id, f"unknown kind {task.kind!r}"))
        if task.agent_id not in agent_ids:
            out.append(Violation(UNKNOWN_AGENT, task.id, f"agent {task.agent_id!r} is not defined"))
        for tool_name in task.tool_names:
            if tool_name not in spec.registry:
                out.append(Violation(UNKNOWN_TOOL, task.id, f"tool {tool_name!r} is not registered"))
        for callback_name in task.callback_names:
            try:
                _parse_callback(callback_name)
            except UnknownCallback as exc:
                out.append(Violation(UNKNOWN_CALLBACK, task.id, str(exc)))
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
    downstream: dict[str, set[str]] = {}  # a guard router -> the tasks it precedes

    def precedes(router: str, task_id: str) -> bool:
        """A direct predecessor, or else one walk per router decides."""
        if router in preds[task_id]:
            return True
        if router not in downstream:
            downstream[router] = _reachable(successors, router)
        return task_id in downstream[router]

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
            if router not in known or not precedes(router, task.id):
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

#: built-in callbacks and the argument each needs after ':' ("" for none)
_CALLBACK_ARGUMENTS = {
    "require_nonempty": "", "require_contains": "needle", "write_to_file": "path",
}


def _parse_callback(name: str) -> tuple[str, str]:
    """Split a callback name into (built-in, argument); raises UnknownCallback."""
    base, _, argument = name.partition(":")
    if base not in _CALLBACK_ARGUMENTS:
        raise UnknownCallback(f"unknown callback {base!r}")
    if _CALLBACK_ARGUMENTS[base] and not argument:
        raise UnknownCallback(f"{base} needs ':<{_CALLBACK_ARGUMENTS[base]}>'")
    return base, argument


def run_callbacks(task: TaskSpec, response: str) -> None:
    """Run the task's callbacks in declared order.

    Built-ins: ``require_nonempty``, ``require_contains:<needle>``,
    ``write_to_file:<path>`` (UTF-8).  A failed require_* aborts the execution.
    """
    for name in task.callback_names:
        base, argument = _parse_callback(name)
        if base == "require_nonempty":
            if not response.strip():
                raise CallbackCheckFailed(f"task {task.id!r}: require_nonempty failed")
        elif base == "require_contains":
            if argument not in response:
                raise CallbackCheckFailed(
                    f"task {task.id!r}: require_contains:{argument} failed"
                )
        else:  # write_to_file
            Path(argument).write_text(response, encoding="utf-8")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute(spec: WorkflowSpec, inquiry: str, backend: CompletionBackend) -> ExecutionRecord:
    """Run the workflow sequentially over the inquiry.

    Per task, in linearized order: a guarded task whose router chose a
    different token appends the literal SKIPPED section; a task without
    tools is prompted on the current state; a task with tools first
    selects one, runs it on the current state, and is prompted on state
    plus tool output — only the agent response is appended.  Evaluator
    tasks may wrap execution back to the state and entity memory before
    their target task, at most max_retries times.  Any backend,
    tool-selection, score or callback failure, and a KeyboardInterrupt,
    raises ExecutionAborted carrying the partial record.
    """
    order = linearize(spec)
    position = {task_id: i for i, task_id in enumerate(order)}
    by_id = {task.id: task for task in spec.tasks}
    profiles = {agent.id: agent for agent in spec.agents}
    route_tokens = _route_tokens(spec)
    memory = EntityMemory()
    # each tool set's selection prompt, shared by every task and run using it
    selections: dict[tuple[str, ...], str] = {}

    # the run history: tasks commit in order, so order[:len(done)] ran;
    # done[i] is order[i]'s detail and the entity memory before it ran,
    # and sigma[:ends[i + 1]] the state after it
    sigma = inquiry
    ends = [len(sigma)]
    done: list[tuple[TaskDetail, Mapping[str, EventLog]]] = []
    executions: dict[str, int] = {}
    evaluator_retries: dict[str, int] = {}

    def partial() -> ExecutionRecord:
        return ExecutionRecord(
            task_sequence=tuple(order[:len(done)]),
            final_state=sigma,
            state_ends=tuple(ends),
            details={task_id: detail for task_id, (detail, _) in zip(order, done)},
            memory_final=memory.snapshot(),
        )

    while len(done) < len(order):
        task = by_id[order[len(done)]]
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
                tool_output: str | None = None
                if task.tool_names:
                    names = tuple(sorted(set(task.tool_names)))
                    tools = [spec.registry.get(name) for name in names]
                    tool = tools[0]
                    if len(tools) > 1:
                        if names not in selections:
                            selections[names] = selection_prompt(tools)
                        detail.selection = selections[names]
                        tool = select_tool(profile, backend, Prompt(sigma, detail.selection), tools)
                    detail.selected_tool = tool.name
                    tool_output = tool.function(sigma, memory)
                    detail.tool_output = tool_output

                # the prompts are held as their own text; a Prompt pairs
                # it with the state for the call, without joining them
                detail.prompt = task_kinds.build_prompt(
                    task, tool_output, route_options=route_tokens.get(task.id, ()))
                response = complete(profile, backend, Prompt(sigma, detail.prompt))
                detail.raw_response = response

                if task.kind == EVALUATOR:
                    detail.score = task_kinds.parse_score(response)
                    config = task.evaluator_config
                    used = evaluator_retries.get(task.id, 0)
                    if task_kinds.apply_wrap_back(config, detail.score, used) == "retry":
                        evaluator_retries[task.id] = used + 1
                        target = position[config.target_task_id]
                        memory.restore(done[target][1])
                        del ends[target + 1:], done[target:]
                        sigma = sigma[:ends[-1]]
                        continue
                    detail.low_quality = detail.score < config.threshold

            done.append((detail, memory_before))
            sigma = append_state(sigma, task.id, response)
            ends.append(len(sigma))
            if not detail.skipped:
                run_callbacks(task, response)
        except (Exception, KeyboardInterrupt) as exc:  # a Ctrl-C keeps what the run did
            raise ExecutionAborted(
                f"task {task.id!r} aborted the execution: {str(exc) or type(exc).__name__}",
                partial()
            ) from exc

    return partial()

