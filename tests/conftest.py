from __future__ import annotations

from dataclasses import replace
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


class InterruptedBackend(CompletionBackend):
    """Answers "done" twice, then raises KeyboardInterrupt, as a Ctrl-C
    during the third call would."""

    def __init__(self):
        self.calls = 0

    def complete(self, role_prompt, user_prompt, *, model="", temperature=0.0):
        self.calls += 1
        if self.calls == 3:
            raise KeyboardInterrupt
        return "done"


def tls_server_context():
    """A TLS server context with the self-signed certificate for 127.0.0.1
    in tests/data, which a client trusts through SSL_CERT_FILE.  It was
    made with: openssl req -x509 -newkey ec -pkeyopt
    ec_paramgen_curve:prime256v1 -nodes -days 36500 -subj /CN=127.0.0.1
    -addext subjectAltName=IP:127.0.0.1 -addext
    basicConstraints=critical,CA:TRUE -addext
    keyUsage=critical,digitalSignature,keyCertSign -addext
    extendedKeyUsage=serverAuth -keyout tls_key.pem -out tls_cert.pem"""
    import ssl

    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(DATA_DIR / "tls_cert.pem", DATA_DIR / "tls_key.pem")
    return context


@pytest.fixture
def connects(monkeypatch):
    """The (host, port) of each connection an HTTP backend tries to open;
    every attempt is refused.  Each request opens a connection first, or
    finds one open, so an empty list means no request was sent."""
    tried = []

    def refuse(address, *args, **kwargs):
        tried.append(address)
        raise ConnectionRefusedError("refused")

    monkeypatch.setattr("socket.create_connection", refuse)
    return tried


def joined_prompt(record, task_id, which="prompt"):
    """The text of a task's prompt, or with which="selection" of its
    tool-selection prompt: the state the task ran on, then the detail's
    own text; "" if it was not sent."""
    text = getattr(record.details[task_id], which)
    if text is None:
        return ""
    end = record.state_ends[record.task_sequence.index(task_id)]
    return record.final_state[:end] + text


def plain_task(task_id, agent_id="analyst", **kwargs):
    kwargs.setdefault("instruction", f"carry out step {task_id}")
    return TaskSpec(id=task_id, agent_id=agent_id, **kwargs)


def spec_of(tasks, prec, initial, final, agents=(AGENT,), registry=None):
    """A workflow of the tasks, each given its predecessors from prec (by
    id; an id prec does not name gets none)."""
    assert prec.keys() <= {task.id for task in tasks}, "prec names an unknown task"
    return WorkflowSpec(
        tasks=tuple(replace(task, prec=frozenset(prec.get(task.id, ()))) for task in tasks),
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


def xes_log_text(cases: int) -> str:
    """An XES log in the layout of scripts/make_demo_fixtures.py, with
    ``gender`` and ``age`` case attributes and 5-15 events per case."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">']
    for case in range(cases):
        lines += ["  <trace>",
                  f'    <string key="concept:name" value="case_{case:05d}"/>',
                  f'    <string key="gender" value="{"FM"[case % 2]}"/>',
                  f'    <int key="age" value="{20 + case % 45}"/>']
        for step in range(5 + case % 11):
            moment = T0 + timedelta(minutes=case + 7 * step)
            lines += ["    <event>",
                      f'      <string key="concept:name" value="Check Step {step % 9}"/>',
                      f'      <date key="time:timestamp" value="{moment.isoformat()}"/>',
                      "    </event>"]
        lines.append("  </trace>")
    lines.append("</log>")
    return "\n".join(lines) + "\n"


@pytest.fixture
def data_dir():
    return DATA_DIR
