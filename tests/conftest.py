from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from agwf.agents import AgentProfile, CompletionBackend
from agwf.event_log import Event, EventLog, Trace
from agwf.pm_tools import ToolRegistry, builtin_registry
from agwf.workflow_engine import TaskSpec, WorkflowSpec

DATA_DIR = Path(__file__).parent / "data"

T0 = datetime(2024, 3, 1, 9, 0, 0, tzinfo=timezone.utc)

AGENT = AgentProfile(id="analyst", role_prompt="You analyze processes.")


class CountingBackend(CompletionBackend):
    """Wraps another backend and counts complete() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, role_prompt, user_prompt, *, model="", temperature=0.0):
        self.calls += 1
        return self.inner.complete(
            role_prompt, user_prompt, model=model, temperature=temperature
        )


def plain_task(task_id, agent_id="analyst", **kwargs):
    kwargs.setdefault("instruction", f"carry out step {task_id}")
    return TaskSpec(id=task_id, agent_id=agent_id, **kwargs)


def spec_of(tasks, prec, initial, final, agents=(AGENT,), registry=None):
    return WorkflowSpec(
        tasks=tuple(tasks),
        prec={k: frozenset(v) for k, v in prec.items()},
        initial_task=initial,
        final_task=final,
        agents=tuple(agents),
        registry=registry if registry is not None else builtin_registry(),
    )


def chain_spec(*task_ids, registry=None):
    """Linear workflow t1 -> t2 -> ... of plain tasks."""
    tasks = [plain_task(tid) for tid in task_ids]
    prec = {tid: set() for tid in task_ids}
    for before, after in zip(task_ids, task_ids[1:]):
        prec[after] = {before}
    return spec_of(tasks, prec, task_ids[0], task_ids[-1], registry=registry)


def random_valid_spec(rng):
    """Random plain-task DAG: unique source (the initial task), all paths
    lead to the final task."""
    n = rng.randint(2, 10)
    ids = [f"t{j:02d}" for j in range(n)]
    rng.shuffle(ids)
    prec = {tid: set() for tid in ids}
    for j in range(1, n):
        prec[ids[j]].add(ids[rng.randrange(j)])
    for j in range(n - 1):
        if not any(ids[j] in prec[ids[k]] for k in range(j + 1, n)):
            prec[ids[rng.randrange(j + 1, n)]].add(ids[j])
    for _ in range(rng.randint(0, n)):
        j = rng.randrange(n - 1)
        k = rng.randrange(j + 1, n)
        prec[ids[k]].add(ids[j])
    tasks = [plain_task(tid) for tid in ids]
    return spec_of(tasks, prec, ids[0], ids[-1])


def reference_parse_timestamp(text: str) -> datetime:
    """The parser oracles' own ISO-8601 reader; naive values are taken as UTC.

    It stays independent of ``agwf.event_log.parse_timestamp`` so that the
    oracles notice a change to that function.
    """
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    moment = datetime.fromisoformat(cleaned)  # ValueError on junk
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment


def make_log(sequences, case_attrs=None, step_seconds=60, source_name="test"):
    """Build an EventLog from activity sequences with evenly spaced timestamps.

    sequences: list of activity-name lists, one per trace.
    case_attrs: optional list of per-trace attribute dicts.
    """
    traces = []
    for i, sequence in enumerate(sequences):
        events = tuple(
            Event(activity=a, timestamp=T0 + timedelta(seconds=step_seconds * j))
            for j, a in enumerate(sequence)
        )
        attrs = dict(case_attrs[i]) if case_attrs else {}
        traces.append(Trace(case_id=f"c{i}", case_attributes=attrs, events=events))
    return EventLog(traces=tuple(traces), source_name=source_name)


def csv_log_text(cases: int) -> str:
    """A CSV log in the default column layout with a ``resource`` column.

    Cases have 5-15 events over nine activities, written case by case; a
    case's rows are out of timestamp order now and then, and some tie.
    """
    lines = ["case_id,activity,timestamp,resource"]
    for case in range(cases):
        for step in range(5 + case % 11):
            moment = T0 + timedelta(minutes=case + 7 * ((step * 5) % 8))
            lines.append(f"case_{case:05d},Check Step {step % 9},{moment.isoformat()},"
                         f"clerk_{step % 7}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def data_dir():
    return DATA_DIR
