from __future__ import annotations

import ast
import json
import re
import socket
import socketserver
import threading
import time
from datetime import datetime, timedelta, timezone
from http import HTTPStatus
from pathlib import Path

import pytest

from agwf.agents import AgentProfile, CompletionBackend, HttpChatBackend
from agwf.event_log import Event, EventLog, Trace
from agwf.pm_tools import ToolRegistry, builtin_registry
from agwf.workflow_engine import TaskSpec, WorkflowSpec

DATA_DIR = Path(__file__).parent / "data"

AGWF_SRC = Path(__file__).resolve().parents[1] / "src" / "agwf"

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


# ---------------------------------------------------------------------------
# The HTTP stub: a server on raw sockets, which writes its replies byte for
# byte as scripted: trickled, cut short or framed wrong
# ---------------------------------------------------------------------------

#: a reply body of 46 bytes
BODY = json.dumps({"choices": [{"message": {"content": "oka"}}]}).encode()
#: the head of a keep-alive reply carrying BODY
HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 46\r\n\r\n"
OK = HEAD + BODY
#: a proxy's reply to CONNECT that opens the tunnel
ESTABLISHED = b"HTTP/1.1 200 Connection established\r\n\r\n"


def ok_payload(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def send(data, keep=True):
    """A scripted reply: data in one write, then the connection kept open or closed."""
    def write(conn):
        conn.sendall(data)
        return keep
    return write


def trickle(head, body, pause):
    """A scripted reply: the head in one write, then the body a byte at a
    time with ``pause`` seconds before each."""
    def write(conn):
        conn.sendall(head)
        for byte in body:
            time.sleep(pause)
            conn.sendall(bytes([byte]))
        return True
    return write


def reply(status, payload, *, delay=0, chunked=False, missing=0, keep=True):
    """A scripted reply, ``delay`` seconds after the request: the head in
    one write, then the payload (bytes, or the JSON of any other value) as
    the body, in one write after a Content-Length that counts ``missing``
    bytes never sent, or if ``chunked`` in chunks of 64 KiB, a write each.
    The connection is then closed if not ``keep`` or bytes are missing,
    with no Connection: close field, so the client learns of it only from
    the socket."""
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    framing = (b"Transfer-Encoding: chunked" if chunked
               else b"Content-Length: %d" % (len(data) + missing))
    head = b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n%s\r\n\r\n" % (
        status, HTTPStatus(status).phrase.encode(), framing)

    def write(conn):
        time.sleep(delay)
        conn.sendall(head)
        if not chunked:
            conn.sendall(data)
            return keep and not missing
        for at in range(0, len(data), 1 << 16):
            piece = data[at:at + (1 << 16)]
            conn.sendall(b"%x\r\n%s\r\n" % (len(piece), piece))
        conn.sendall(b"0\r\n\r\n")
        return keep
    return write


def answering(scripted, **options):
    """A RawServer answer mode: a 200 reply, built by reply() with the
    options, carrying the scripted backend's answer to the user prompt."""
    return lambda user_prompt: reply(200, ok_payload(scripted.complete("", user_prompt)),
                                     **options)


def parsed(request):
    """A recorded request's path, its Host and Authorization fields (None
    when absent) and its body."""
    head, _, body = request.partition(b"\r\n\r\n")
    line, *lines = head.decode("latin-1").split("\r\n")
    fields = {name.lower(): value.strip() for name, _, value in
              (field.partition(":") for field in lines)}
    return {"path": line.split(" ")[1], "host": fields.get("host"),
            "auth": fields.get("authorization"), "body": body}


class RawHandler(socketserver.BaseRequestHandler):
    """Reads each request whole, keeps its bytes and sends the next
    scripted reply; when the script is empty, the server's answer to the
    user prompt, if it has an answer mode, or else OK."""

    def handle(self):
        server, conn, data = self.server, self.request, b""
        # a reply may go out in several writes, none held back for an ACK
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with server.lock:
            server.connections += 1
        try:
            while True:
                while b"\r\n\r\n" not in data:
                    if not (piece := conn.recv(1 << 16)):
                        return
                    data += piece
                head, _, data = data.partition(b"\r\n\r\n")
                length = int(re.search(rb"(?i)\r\ncontent-length: *(\d+)", head).group(1))
                while len(data) < length:
                    if not (piece := conn.recv(1 << 16)):
                        return
                    data += piece
                body, data = data[:length], data[length:]
                with server.lock:
                    server.requests.append(head + b"\r\n\r\n" + body)
                    if server.script:
                        write = server.script.pop(0)
                    elif server.answer:
                        write = server.answer(json.loads(body)["messages"][1]["content"])
                    else:
                        write = send(OK)
                if not write(conn):
                    return
        except OSError:  # the client gave up on the reply
            pass


class TunnelHandler(RawHandler):
    """A proxy that answers a CONNECT request with the server's
    ``answer_connect`` and, if that says so, is then the server inside the
    tunnel, over TLS."""

    def handle(self):
        data = b""
        try:
            while b"\r\n\r\n" not in data:
                if not (piece := self.request.recv(1 << 16)):
                    return
                data += piece
            with self.server.lock:
                self.server.tunnels.append(data)
            if not self.server.answer_connect(self.request):
                return
            self.request = tls_server_context().wrap_socket(self.request, server_side=True)
        except OSError:  # the client gave up on the tunnel
            return
        with self.request:
            super().handle()


class RawServer(socketserver.ThreadingTCPServer):
    daemon_threads = True

    def __init__(self, tls=False, tunnel=False):
        super().__init__(("127.0.0.1", 0), TunnelHandler if tunnel else RawHandler)
        if tls:  # each connection's handshake is made as it is accepted
            self.socket = tls_server_context().wrap_socket(self.socket, server_side=True)
        self.lock = threading.Lock()
        self.connections = 0
        self.tunnels = []  # the bytes of each CONNECT request received
        self.requests = []  # the bytes of each request received
        self.script = []  # replies: each sends to a connection and says whether to keep it
        self.answer = None  # if set, the reply to a user prompt when the script is empty
        # the answer to a CONNECT request: sends it and says whether to open the tunnel
        self.answer_connect = send(ESTABLISHED)
        self.port = self.server_address[1]
        self.url = f"{'https' if tls else 'http'}://127.0.0.1:{self.port}/v1/chat/completions"


@pytest.fixture
def raw_stub(monkeypatch):
    """Starts raw stubs, reached directly whatever the proxy settings."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    servers = []

    def start(tls=False, tunnel=False):
        server = RawServer(tls, tunnel)
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                         daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def open_backend():
    """HttpChatBackend, closed when the test ends."""
    backends = []

    def build(*args, **kwargs):
        backends.append(HttpChatBackend(*args, **kwargs))
        return backends[-1]

    yield build
    for backend in backends:
        backend.close()


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


def replace(value, **changes):
    """A copy of a record with the given fields changed, built from the
    fields its slots hold."""
    return type(value)(**{**{name: getattr(value, name) for name in value._fields}, **changes})


def agwf_imports(module_level=False):
    """(file, statement, the module names it imports) for each absolute
    import statement of src/agwf/*.py, ``from m import n`` importing m and
    m.n.  With module_level, only the statements of a module's own body,
    which run when it is imported."""
    for path in sorted(AGWF_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body if module_level else ast.walk(tree):
            if isinstance(node, ast.Import):
                yield path, node, [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                yield path, node, [node.module,
                                   *(f"{node.module}.{alias.name}" for alias in node.names)]


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
