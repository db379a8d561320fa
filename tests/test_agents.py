from __future__ import annotations

import ast
import dataclasses
import json
import os
import re
import resource
import socket
import subprocess
import sys
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from agwf import agents
from agwf.agents import (
    AgentProfile,
    BackendEmptyResponse,
    BackendTimeout,
    CompletionBackend,
    HttpChatBackend,
    MAX_REPLY_BYTES,
    MalformedResponse,
    Prompt,
    RequestRejected,
    ScriptedBackend,
    ToolSelectionFailed,
    TransportError,
    complete,
    http_chat_backend,
    rule,
    select_tool,
    selection_prompt,
)
from agwf.pm_tools import Tool
from agwf.workflow_engine import ExecutionAborted, execute

from conftest import AGENT, DATA_DIR, CountingBackend, tls_server_context
from test_transcript import ESCAPES, SPECIAL, tool_chain


def noop_tool(name):
    return Tool(name, f"docs for {name}", lambda s, m: s)


def choose(backend, tools, state="state"):
    """select_tool on the tools, sorted by name as the engine passes them."""
    tools = sorted(tools, key=lambda t: t.name)
    return select_tool(AGENT, backend, state + selection_prompt(tools), tools)


# ---------------------------------------------------------------------------
# Profiles and the scripted backend
# ---------------------------------------------------------------------------

def test_profile_requires_role_prompt():
    with pytest.raises(ValueError):
        AgentProfile(id="x", role_prompt="")


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
def test_profile_rejects_a_non_finite_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        AgentProfile(id="x", role_prompt="r", temperature=temperature)


def test_scripted_first_match_wins():
    backend = ScriptedBackend(
        [rule("violations", "R1"), rule("viol", "R2")], fallback="F"
    )
    assert complete(AGENT, backend, "tell me the violations") == "R1"


def test_scripted_fallback():
    backend = ScriptedBackend([rule("violations", "R1")], fallback="F")
    assert complete(AGENT, backend, "something else") == "F"


def test_scripted_empty_response_raises():
    backend = ScriptedBackend([rule("x", "")])
    with pytest.raises(BackendEmptyResponse):
        complete(AGENT, backend, "x marks the spot")


def test_scripted_response_sequence_consumes():
    backend = ScriptedBackend([rule("grade", "SCORE: 3.0", "SCORE: 8.0")])
    assert complete(AGENT, backend, "grade this") == "SCORE: 3.0"
    assert complete(AGENT, backend, "grade this") == "SCORE: 8.0"
    # last response repeats once exhausted
    assert complete(AGENT, backend, "grade this") == "SCORE: 8.0"


def test_scripted_regex_rule():
    backend = ScriptedBackend([rule(r"^inspect \d+", "matched", regex=True)])
    assert complete(AGENT, backend, "inspect 42 now") == "matched"


class WholePromptRules:
    """The scripted backend's answer by its definition: the first rule that
    matches the whole prompt text consumes its next response."""

    def __init__(self, rules, fallback):
        self.rules, self.fallback = rules, fallback
        self.uses = [0] * len(rules)

    def answer(self, prompt: str) -> str:
        for i, scripted in enumerate(self.rules):
            if (re.search(scripted.match, prompt) if scripted.regex
                    else scripted.match in prompt):
                self.uses[i] += 1
                return scripted.responses[min(self.uses[i], len(scripted.responses)) - 1]
        return self.fallback


#: mostly substring rules, as an empty match, and often a regex, hide the rules after them
SCRIPTED_RULES = st.lists(st.one_of(
    *[st.tuples(st.text("ab", min_size=2, max_size=4), st.just(False))] * 6,
    st.tuples(st.just(""), st.just(False)),
    st.tuples(st.sampled_from(("a.b", "^b", "a$", "(ab)+b", "^$")), st.just(True)),
), min_size=1, max_size=4).map(lambda drawn: [
    rule(match, *(f"{i}.{k}" for k in range(3)), regex=regex)
    for i, (match, regex) in enumerate(drawn)])
#: what a call does to the state; most grow it or cut it back, as a run does
SCRIPTED_ACTIONS = ("grow",) * 3 + ("cut",) * 3 + ("replace", "plain", "close")


def scripted_runs(rules):
    """The rules, a start state, and calls: (action, text grown or put in
    place, characters cut, own text).

    Texts are made of the pieces of the rules' matches and of "c", which
    no match holds, so that a match is seldom whole in one text and often
    straddles where a state grew or was cut, or where it meets the own
    text.
    """
    pieces = sorted({"c", *(scripted.match[:k] for scripted in rules for k in range(1, 4)),
                     *(scripted.match[k:] for scripted in rules for k in range(1, 4))} - {""})
    texts = st.lists(st.sampled_from(pieces), max_size=2).map("".join)
    grown = st.lists(st.sampled_from(pieces), min_size=1, max_size=2).map("".join)
    calls = st.lists(st.tuples(st.sampled_from(SCRIPTED_ACTIONS), grown, st.integers(1, 3),
                               texts), min_size=4, max_size=10)
    return st.tuples(st.just(rules), texts, calls)


#: a rule that only the first of its three responses answers
AB = [rule("ab", "0.0", "0.1", "0.2")]


@settings(max_examples=80, deadline=None)
@given(SCRIPTED_RULES.flatmap(scripted_runs))
# a match across the end of the state the last Prompt held
@example((AB, "a", [("grow", "", 1, ""), ("grow", "b", 1, "")]))
# a match that a rewind cut in two
@example((AB, "cab", [("grow", "", 1, ""), ("cut", "", 1, "")]))
# matches across a short state and the own text, in the own text on an
# empty state, across them again, and in a state with no own text
@example(([rule("acb", "1.0"), *AB], "", [
    ("replace", "ac", 1, "b"), ("cut", "", 2, "acb"),
    ("grow", "a", 1, "b"), ("replace", "ab", 1, "")]))
# a plain str between two growing Prompts: the second is scanned afresh
@example((AB, "a", [("grow", "b", 1, ""), ("plain", "", 1, "c"), ("grow", "c", 1, "")]))
# an empty match, in a state that grew from empty, was cut back to it and grew
@example(([rule("", "0.0", "0.1", "0.2")], "", [
    ("grow", "c", 1, ""), ("cut", "", 1, ""), ("grow", "c", 1, ""), ("grow", "c", 1, "")]))
def test_scripted_answers_are_those_of_the_whole_prompt(run):
    """Calls on one backend: Prompts on a state that grew, was cut back (a
    rewind) or was replaced, plain str prompts between them, and close().
    A backend of each rule alone takes the same calls, so that a rule that
    the first match hides is checked too."""
    rules, state, calls = run
    tables = [rules, *([scripted] for scripted in rules)]
    backends = [ScriptedBackend(table, fallback="none") for table in tables]
    expected = [WholePromptRules(table, "none") for table in tables]
    for action, text, cut, own_text in calls:
        if action == "close":
            for backend in backends:
                backend.close()
            continue
        if action == "grow":
            state += text
        elif action == "cut":
            state = state[:max(0, len(state) - cut)]
        elif action == "replace":
            state = text
        prompt = state + own_text if action == "plain" else Prompt(state, own_text)
        assert [backend.complete("", prompt) for backend in backends] \
            == [whole.answer(state + own_text) for whole in expected]


def test_a_match_may_start_before_a_state_shorter_than_it():
    """An occurrence ending in the own text may start anywhere in a state
    shorter than the match, at its first character too."""
    for state in ("", "a", "ab", "abc"):
        backend = ScriptedBackend([rule("abcd", "hit")], fallback="none")
        assert backend.complete("", Prompt(state, "abcd"[len(state):])) == "hit"


def test_a_scripted_rule_needs_a_response():
    with pytest.raises(ValueError, match="^'responses' must not be empty$"):
        rule("x")


def test_complete_rejects_empty_prompt():
    for empty in ("", Prompt("", "")):
        with pytest.raises(ValueError):
            complete(AGENT, ScriptedBackend([], fallback="x"), empty)
    # a prompt with characters in either part is sent
    for prompt in (Prompt("s", ""), Prompt("", "t")):
        assert complete(AGENT, ScriptedBackend([], fallback="x"), prompt) == "x"


class FlakyBackend(CompletionBackend):
    def __init__(self, failures):
        self.failures = failures
        self.attempts = 0

    def complete(self, role_prompt, user_prompt, *, model="", temperature=0.0):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransportError("boom")
        return "recovered"


def test_complete_retries_transport_errors():
    backend = FlakyBackend(failures=2)
    assert complete(AGENT, backend, "hello") == "recovered"
    assert backend.attempts == 3


def test_complete_exhausts_retries():
    backend = FlakyBackend(failures=5)
    with pytest.raises(TransportError):
        complete(AGENT, backend, "hello")
    assert backend.attempts == 3


# ---------------------------------------------------------------------------
# Tool selection
# ---------------------------------------------------------------------------

def test_select_tool_parses_named_tool():
    tools = [noop_tool("dfg_discovery"), noop_tool("variants_discovery")]
    backend = ScriptedBackend([rule("Choose exactly one tool", "variants_discovery")])
    chosen = choose(backend, tools)
    assert chosen.name == "variants_discovery"


def test_select_tool_uses_last_nonempty_line():
    tools = [noop_tool("alpha"), noop_tool("beta")]
    backend = ScriptedBackend(
        [rule("Choose", "I considered both options.\nbeta\n\n")]
    )
    assert choose(backend, tools).name == "beta"


def test_select_tool_reasks_once_then_fails():
    tools = [noop_tool("alpha"), noop_tool("beta")]
    backend = CountingBackend(ScriptedBackend([rule("Choose", "banana")]))
    with pytest.raises(ToolSelectionFailed) as err:
        choose(backend, tools)
    assert backend.calls == 2
    assert str(err.value).endswith("last reply: 'banana'")


def test_select_tool_recovers_on_reask():
    tools = [noop_tool("alpha"), noop_tool("beta")]
    backend = ScriptedBackend([rule("Choose", "banana", "alpha")])
    assert choose(backend, tools).name == "alpha"


def test_select_tool_never_returns_outside_candidates():
    tools = [noop_tool("alpha"), noop_tool("beta")]
    backend = ScriptedBackend([rule("Choose", "gamma")])
    with pytest.raises(ToolSelectionFailed):
        choose(backend, tools)


def test_selection_prompt_lists_documentation():
    tools = [noop_tool("alpha"), noop_tool("beta")]
    seen = {}

    class Spy(CompletionBackend):
        def complete(self, role_prompt, user_prompt, *, model="", temperature=0.0):
            seen["prompt"] = user_prompt
            return "alpha"

    choose(Spy(), tools, "current state here")
    prompt = seen["prompt"]
    assert "docs for alpha" in prompt
    assert "docs for beta" in prompt
    assert "current state here" in prompt


# ---------------------------------------------------------------------------
# HTTP backend without a server
# ---------------------------------------------------------------------------

def test_http_backend_refused_connection_is_retried_then_raised():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    backend = CountingBackend(http_chat_backend(f"http://127.0.0.1:{port}/v1/chat/completions"))
    with pytest.raises(TransportError):
        complete(AGENT, backend, "hello")
    assert backend.calls == 3


@pytest.mark.parametrize("url", ["foo", "ftp://host/v1", "http://", "http://[::1/v1", "",
                                 "http://127.0.0.1:abc/v1", "http://127.0.0.1:99999/v1",
                                 "http://127.0.0.1:0/v1"])
def test_http_backend_rejects_a_url_it_cannot_post_to(url, connects):
    with pytest.raises(ValueError, match="http"):
        complete(AGENT, HttpChatBackend(url), "hello")
    assert connects == []


# ---------------------------------------------------------------------------
# HTTP backend against a local keep-alive stub server
# ---------------------------------------------------------------------------

def ok_payload(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 with keep-alive; the server object carries the script."""

    protocol_version = "HTTP/1.1"
    # the headers and the body go out in two writes: without this, the body
    # waits for the client's delayed ACK of the headers
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with server.lock:
            server.seen.append({"path": self.path, "host": self.headers.get("Host"),
                                "auth": self.headers.get("Authorization"), "body": body})
            if server.answer is not None:
                user_prompt = json.loads(body)["messages"][1]["content"]
                status, payload, delay = 200, ok_payload(server.answer(user_prompt)), 0
            elif server.script:
                status, payload, delay = server.script.pop(0)
            else:
                status, payload, delay = 200, ok_payload("ok"), 0
        time.sleep(delay)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if server.chunked:
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for start in range(0, len(data), 1 << 16):
                piece = data[start:start + (1 << 16)]
                self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
            self.wfile.write(b"0\r\n\r\n")
        else:
            self.send_header("Content-Length", str(len(data) + server.missing_bytes))
            self.end_headers()
            self.wfile.write(data)
        # close without a "Connection: close" header: the client learns of it
        # only from the socket
        self.close_connection = server.hang_up or server.missing_bytes > 0

    def do_CONNECT(self):
        # a proxy that opens no tunnel
        with self.server.lock:
            self.server.seen.append({"path": self.path, "host": self.headers.get("Host")})
        self.send_error(501)

    def log_message(self, *args):
        pass


class KeepAliveServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, tls=False):
        super().__init__(("127.0.0.1", 0), KeepAliveHandler)
        if tls:  # each connection's handshake is made as it is accepted
            self.socket = tls_server_context().wrap_socket(self.socket, server_side=True)
        self.lock = threading.Lock()
        self.connections = 0
        self.seen = []
        self.script = []  # (status, payload or raw body bytes, seconds to wait before replying)
        self.answer = None  # if set, the reply to a user prompt, in place of the script
        self.missing_bytes = 0  # announced in Content-Length but never sent
        self.hang_up = False  # close the connection after each reply
        self.chunked = False  # send bodies chunked, with no Content-Length
        scheme = "https" if tls else "http"
        self.url = f"{scheme}://127.0.0.1:{self.server_port}/v1/chat/completions"

    def handle_error(self, request, client_address):
        pass  # a late reply to a client that gave up is expected here


@pytest.fixture
def keepalive(monkeypatch):
    """Starts keep-alive stubs, reached directly whatever the proxy settings."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    servers = []

    def start(tls=False):
        server = KeepAliveServer(tls)
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
    """http_chat_backend, closed when the test ends."""
    backends = []

    def build(*args, **kwargs):
        backends.append(http_chat_backend(*args, **kwargs))
        return backends[-1]

    yield build
    for backend in backends:
        backend.close()


def test_http_backend_reads_first_choice(keepalive, open_backend):
    stub = keepalive()
    stub.script = [(200, ok_payload("ok"), 0)]
    backend = open_backend(stub.url, "secret")
    profile = AgentProfile(id="a", role_prompt="role", model_ref="m2")
    assert complete(profile, backend, "hello") == "ok"
    sent = stub.seen[0]
    assert sent["auth"] == "Bearer secret"
    body = json.loads(sent["body"])
    assert body["model"] == "m2"  # the model comes from the profile
    assert body["messages"][0] == {"role": "system", "content": "role"}
    assert body["messages"][1] == {"role": "user", "content": "hello"}


def test_http_backend_retry_exhaustion(keepalive, open_backend):
    stub = keepalive()
    stub.script = [(500, {}, 0), (500, {}, 0), (500, {}, 0)]
    backend = open_backend(stub.url)
    with pytest.raises(TransportError):
        complete(AGENT, backend, "hello")
    assert len(stub.seen) == 3


def test_http_backend_malformed_response(keepalive, open_backend):
    stub = keepalive()
    backend = open_backend(stub.url)
    for payload, message in [({"unexpected": True}, "response has no choices"),
                             (ok_payload(None), "message content is not text"),
                             (ok_payload(7), "message content is not text")]:
        stub.script = [(200, payload, 0)]
        with pytest.raises(MalformedResponse, match=message):
            complete(AGENT, backend, "hello")


def test_http_backend_non_json_response(keepalive, open_backend):
    stub = keepalive()
    stub.script = [(200, b"this is not json", 0)]
    backend = open_backend(stub.url)
    with pytest.raises(MalformedResponse):
        complete(AGENT, backend, "hello")


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
def test_http_backend_rejected_request_is_not_retried(keepalive, open_backend, status):
    stub = keepalive()
    stub.script = [(status, {}, 0), (200, ok_payload("unreached"), 0)]
    with pytest.raises(RequestRejected, match=f"HTTP {status}"):
        complete(AGENT, open_backend(stub.url), "hello")
    assert len(stub.seen) == 1


@pytest.mark.parametrize("status", [429, 500, 502, 503])
def test_http_backend_transient_status_is_retried(keepalive, open_backend, status):
    stub = keepalive()
    stub.script = [(status, {}, 0), (200, ok_payload("second"), 0)]
    assert complete(AGENT, open_backend(stub.url), "hello") == "second"
    assert len(stub.seen) == 2


def test_http_backend_reuses_one_connection(keepalive, open_backend):
    stub = keepalive()
    stub.script = [(200, ok_payload(f"r{i}"), 0) for i in range(3)]
    backend = open_backend(stub.url)
    assert [complete(AGENT, backend, "hello") for _ in range(3)] == ["r0", "r1", "r2"]
    assert stub.connections == 1


def test_http_backend_uses_the_proxy_from_the_environment(keepalive, open_backend, monkeypatch):
    proxy = keepalive()
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.server_port}")
    proxy.script = [(200, ok_payload("via proxy"), 0)]
    assert complete(AGENT, open_backend("http://endpoint.invalid/v1/chat/completions"),
                    "hello") == "via proxy"
    assert [(s["path"], s["host"]) for s in proxy.seen] == [
        ("http://endpoint.invalid/v1/chat/completions", "endpoint.invalid")]

    direct = keepalive()
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    direct.script = [(200, ok_payload("direct"), 0)]
    assert complete(AGENT, open_backend(direct.url), "hello") == "direct"
    assert [s["path"] for s in direct.seen] == ["/v1/chat/completions"]
    assert len(proxy.seen) == 1


def test_an_https_endpoint_tunnels_through_the_proxy(keepalive, open_backend, monkeypatch):
    proxy = keepalive()
    monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy.server_port}")
    with pytest.raises(TransportError):
        open_backend("https://endpoint.invalid/v1/chat/completions").complete("role", "hello")
    assert [s["path"] for s in proxy.seen] == ["endpoint.invalid:443"]


def test_http_backend_short_body_is_a_transport_error(keepalive, open_backend):
    stub = keepalive()
    stub.missing_bytes = 10
    with pytest.raises(TransportError):
        open_backend(stub.url).complete("role", "hello")


def test_http_backend_deeply_nested_reply_is_malformed(keepalive, open_backend):
    stub = keepalive()
    stub.script = [(200, b"[" * 100_000, 0), (200, ok_payload("fine"), 0)]
    backend = open_backend(stub.url)
    with pytest.raises(MalformedResponse, match="not JSON"):
        complete(AGENT, backend, "hello")
    assert complete(AGENT, backend, "hello") == "fine"


def padded_reply(content, size):
    """ok_payload(content) as a JSON body of size bytes."""
    data = json.dumps(ok_payload(content)).encode()
    return data + b" " * (size - len(data))


@pytest.mark.parametrize("chunked", [False, True])
def test_http_backend_reply_over_the_cap_is_malformed(keepalive, open_backend, chunked):
    cap = MAX_REPLY_BYTES
    stub = keepalive()
    stub.chunked = chunked
    stub.script = [(200, padded_reply("over", cap + 1), 0),
                   (200, padded_reply("at the cap", cap), 0)]
    backend = open_backend(stub.url)
    with pytest.raises(MalformedResponse, match=f"longer than {cap} bytes"):
        complete(AGENT, backend, "hello")
    assert complete(AGENT, backend, "hello") == "at the cap"
    assert stub.connections == 2  # the longer reply's connection was closed


def test_http_backend_speaks_tls_on_one_connection(keepalive, open_backend, monkeypatch):
    """The stub's certificate, for 127.0.0.1, is the only one trusted."""
    monkeypatch.setenv("SSL_CERT_FILE", str(DATA_DIR / "tls_cert.pem"))
    stub = keepalive(tls=True)
    stub.script = [(200, ok_payload("r0"), 0), (200, ok_payload("r1"), 0),
                   (200, padded_reply("over", MAX_REPLY_BYTES + 1), 0),
                   (200, ok_payload("after"), 0)]
    backend = open_backend(stub.url)
    assert [complete(AGENT, backend, "hello") for _ in range(2)] == ["r0", "r1"]
    assert stub.connections == 1
    stub.chunked = True  # so that the reply over the cap is read up to it
    with pytest.raises(MalformedResponse, match=f"longer than {MAX_REPLY_BYTES} bytes"):
        complete(AGENT, backend, "hello")
    assert complete(AGENT, backend, "hello") == "after"
    assert stub.connections == 2


def test_http_backend_late_reply_is_not_read_as_the_next(keepalive, open_backend):
    stub = keepalive()
    stub.script = [(200, ok_payload("late"), 0.6), (200, ok_payload("second"), 0)]
    backend = open_backend(stub.url, "", timeout=0.15)
    with pytest.raises(BackendTimeout):
        complete(AGENT, backend, "first")
    assert complete(AGENT, backend, "second") == "second"


def test_http_backend_works_after_a_rejected_request(keepalive, open_backend):
    stub = keepalive()
    stub.script = [(404, {"error": "no such model"}, 0), (200, ok_payload("fine"), 0)]
    backend = open_backend(stub.url)
    with pytest.raises(RequestRejected):
        complete(AGENT, backend, "hello")
    assert complete(AGENT, backend, "hello") == "fine"


def test_http_backend_survives_a_server_that_hangs_up_after_each_reply(keepalive, open_backend):
    stub = keepalive()
    stub.hang_up = True
    stub.script = [(200, ok_payload(f"r{i}"), 0) for i in range(10)]
    backend = CountingBackend(open_backend(stub.url))
    assert [complete(AGENT, backend, "hello") for _ in range(10)] == [f"r{i}" for i in range(10)]
    assert len(stub.seen) == 10
    # a hang-up costs no attempt
    assert backend.calls == 10


def test_http_backend_resends_once_on_a_connection_the_server_hung_up(
        keepalive, open_backend, monkeypatch):
    """Each request after the first goes out on the connection the server
    closed after its last reply, finds it hung up, and is sent once more on
    one new connection."""
    stub = keepalive()
    stub.hang_up = True
    stub.script = [(200, ok_payload(f"r{i}"), 0) for i in range(10)]
    connect, opened = socket.create_connection, []

    def counted(address, *args, **kwargs):
        opened.append(address)
        return connect(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted)
    backend = CountingBackend(open_backend(stub.url))
    assert [complete(AGENT, backend, "hello") for _ in range(10)] == [f"r{i}" for i in range(10)]
    assert len(stub.seen) == 10 and stub.connections == 10 and len(opened) == 10
    assert backend.calls == 10


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list")
def test_no_file_descriptor_outlives_the_backend(keepalive):
    """Three hang-ups, each followed by a resend on a new connection, and
    close(): the process holds the file descriptors it held before the
    backend was built."""
    stub = keepalive()
    stub.hang_up = True
    before = set(os.listdir("/proc/self/fd"))
    backend = CountingBackend(http_chat_backend(stub.url))
    assert [complete(AGENT, backend, "hello") for _ in range(4)] == ["ok"] * 4
    assert backend.calls == 4 and stub.connections == 4
    backend.inner.close()
    # the stub closes its end of each connection on a thread of its own
    deadline = time.monotonic() + 5
    while set(os.listdir("/proc/self/fd")) != before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert set(os.listdir("/proc/self/fd")) == before


HIGH_FD = 1500  # above FD_SETSIZE (1024), which select.select cannot watch


@pytest.mark.skipif(resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= HIGH_FD,
                    reason=f"the soft RLIMIT_NOFILE allows no fd {HIGH_FD}")
def test_http_backend_reuses_a_connection_whose_fd_is_past_fd_setsize(
        keepalive, open_backend, monkeypatch):
    try:
        os.fstat(HIGH_FD)
        pytest.skip(f"fd {HIGH_FD} is in use")
    except OSError:
        pass
    connect, opened = socket.create_connection, []

    def connect_at_a_high_fd(*args, **kwargs):
        with connect(*args, **kwargs) as low:
            os.dup2(low.fileno(), HIGH_FD)
            opened.append(socket.socket(fileno=HIGH_FD))
            opened[-1].settimeout(low.gettimeout())
        return opened[-1]

    monkeypatch.setattr(socket, "create_connection", connect_at_a_high_fd)
    stub = keepalive()
    stub.script = [(200, ok_payload("r0"), 0), (200, ok_payload("r1"), 0)]
    backend = open_backend(stub.url)
    assert [complete(AGENT, backend, "hello") for _ in range(2)] == ["r0", "r1"]
    assert [sock.fileno() for sock in opened] == [HIGH_FD]
    assert stub.connections == 1


def test_http_backend_does_not_resend_on_a_fresh_connection():
    # a server that hangs up on every new connection: none was reused, so
    # each hang-up spends an attempt and opens one connection
    accepted = []
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.settimeout(0.5)

        def hang_up():
            try:
                while True:
                    conn = listener.accept()[0]
                    accepted.append(conn)
                    conn.close()
            except OSError:  # the test is over
                pass

        thread = threading.Thread(target=hang_up, daemon=True)
        thread.start()
        backend = CountingBackend(http_chat_backend(
            f"http://127.0.0.1:{listener.getsockname()[1]}/v1/chat/completions", timeout=5))
        with pytest.raises(TransportError):
            complete(AGENT, backend, "hello")
        thread.join(5)
    assert backend.calls == 3
    assert len(accepted) == 3


def test_http_backend_percent_encodes_the_request_target(keepalive, open_backend):
    stub = keepalive()
    url = f"http://127.0.0.1:{stub.server_port}/v1/caf\u00e9 x?model=a b&k=%41"
    assert complete(AGENT, open_backend(url), "hello") == "ok"
    assert [s["path"] for s in stub.seen] == ["/v1/caf%C3%A9%20x?model=a%20b&k=%41"]


# ---------------------------------------------------------------------------
# Request bodies: each is what json.dumps makes of its call
# ---------------------------------------------------------------------------

class CallRecorder(CompletionBackend):
    """Wraps another backend and keeps the text of each call's arguments."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def complete(self, role_prompt, user_prompt, *, model="", temperature=0.0):
        self.calls.append((role_prompt, str(user_prompt), model, temperature))
        return self.inner.complete(role_prompt, user_prompt, model=model,
                                   temperature=temperature)


def assert_plain_bodies(stub, recorder):
    """Each body the stub got is json.dumps(...).encode() of its call."""
    assert [seen["body"] for seen in stub.seen] == [
        json.dumps({
            "model": model,
            "messages": [
                {"role": "system", "content": role_prompt},
                {"role": "user", "content": user_prompt},
            ],
            "temperature": temperature,
        }).encode()
        for role_prompt, user_prompt, model, temperature in recorder.calls]


#: text that JSON escapes in every way it can, and the lone surrogate that
#: surrogateescape gives a non-UTF-8 byte
ESCAPED = [*SPECIAL, "\udcff"]


def test_request_bodies_of_runs_are_the_plain_encoding(keepalive, open_backend):
    """Three runs of a tool chain on one backend, the last after close(),
    with a plain prompt sent between the first two.  The first run picks
    alpha, is rewound by its evaluator, names no tool, is re-asked, picks
    beta and aborts on an empty reply; the others pick beta and pass."""
    stub = keepalive()
    profile = AgentProfile(id="analyst", role_prompt=f"You analyze {ESCAPES}",
                           model_ref="m\u00e9\"1", temperature=0.35)
    spec = dataclasses.replace(tool_chain(graded=True), agents=(profile,))
    backend = CallRecorder(open_backend(stub.url))

    def run(inquiry, *rules):
        scripted = ScriptedBackend(rules, fallback=f"noted {ESCAPES}")
        stub.answer = lambda user_prompt: scripted.complete("", user_prompt)
        return execute(spec, inquiry, backend)

    with pytest.raises(ExecutionAborted, match="empty text"):
        run(ESCAPES, rule("Choose exactly one tool", "alpha", "no tool", "beta"),
            rule("carry out step t2", "SCORE: 2.0", ""))
    assert complete(profile, backend, f"hello {ESCAPES}") == f"noted {ESCAPES}"
    record = run(ESCAPES + "\udcff", rule("Choose exactly one tool", "beta"),
                 rule("carry out step t2", "SCORE: 9.0"))
    assert record.task_sequence == ("t0", "t1", "t2")
    backend.inner.close()
    run(ESCAPES, rule("Choose exactly one tool", "beta"), rule("carry out step t2", "SCORE: 9.0"))
    assert len(stub.seen) == 8 + 1 + 4 + 4
    assert_plain_bodies(stub, backend)


def test_a_reasked_selection_escapes_no_state_twice(keepalive, open_backend, monkeypatch):
    """t0; t1's first selection reply names no tool, so it is re-asked and
    picks beta.  Over the run, the backend escapes each character of the
    last state it was sent once."""
    stub = keepalive()
    scripted = ScriptedBackend([rule("Choose exactly one tool", "no tool", "beta")],
                               fallback=f"noted {ESCAPES}")
    stub.answer = lambda user_prompt: scripted.complete("", user_prompt)
    escaped, states = [], []
    real = HttpChatBackend._escape_state

    def counting(self, state):
        kept, kept_length = self._escaped_state, len(self._state)
        escape = real(self, state)
        # the kept escape grew in place by the added text, or was cut back
        # in place, escaping no state
        assert escape is kept
        escaped.append(max(len(state) - kept_length, 0))
        states.append(state)
        return escape

    monkeypatch.setattr(HttpChatBackend, "_escape_state", counting)
    record = execute(tool_chain(), ESCAPES, open_backend(stub.url))
    assert record.details["t1"].selected_tool == "beta" and len(stub.seen) == 4
    assert sum(escaped) == len(states[-1])


def test_a_rewind_escapes_only_the_text_it_removed(keepalive, open_backend, monkeypatch):
    """t0; t1 picks alpha; t2 scores low and rewinds to t1, which picks
    beta; t2 passes.  The backend escapes each text added to the state
    once, the text the rewind cut off once more, to learn the length of its
    escape, and each own text."""
    stub = keepalive()
    scripted = ScriptedBackend([rule("Choose exactly one tool", "alpha", "beta"),
                                rule("carry out step t2", "SCORE: 2.0", "SCORE: 9.0")],
                               fallback=f"noted {ESCAPES}")
    stub.answer = lambda user_prompt: scripted.complete("", user_prompt)
    escaped, real = [], agents.json_escape
    monkeypatch.setattr(agents, "json_escape", lambda text: escaped.append(len(text)) or real(text))
    prompts = []
    http = open_backend(stub.url)

    class Keeping(CompletionBackend):
        def complete(self, role_prompt, user_prompt, **kwargs):
            prompts.append(user_prompt.parts)
            return http.complete(role_prompt, user_prompt, **kwargs)

    # a long inquiry, so that escaping the rewound state afresh shows
    record = execute(tool_chain(graded=True), ESCAPES * 20, Keeping())
    assert record.details["t1"].retries_used == 1 and len(stub.seen) == 7
    states = [state for state, _ in prompts]
    removed = sum(len(before) - len(after) for before, after in zip(states, states[1:])
                  if len(after) < len(before))
    assert removed > 0
    # the added text is the last state sent and the text cut off
    assert sum(escaped) <= len(states[-1]) + 2 * removed + sum(len(text) for _, text in prompts)


@pytest.fixture
def stub_and_backend(keepalive, open_backend):
    """A keep-alive stub and a backend on it, shared by a property's examples."""
    stub = keepalive()
    return stub, open_backend(stub.url)


TEXTS = st.lists(st.sampled_from(ESCAPED) | st.text(max_size=3), max_size=4).map("".join)
#: temperatures that compare equal but that json.dumps writes differently
TEMPERATURES = st.sampled_from((0, 0.0, -0.0, False, 1, 1.0)) | st.floats(0, 2)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(role_prompts=st.tuples(TEXTS, TEXTS), model=TEXTS, state=TEXTS,
       calls=st.lists(st.tuples(st.sampled_from(("append", "cut", "rewind", "plain")),
                                TEXTS, st.integers(0, 8), TEXTS, TEMPERATURES),
                      min_size=1, max_size=6))
def test_request_bodies_of_drawn_prompts_are_the_plain_encoding(
        stub_and_backend, role_prompts, model, state, calls):
    """Calls on one backend by two agents in turn, each a Prompt on a state
    that grew, was cut back to a prefix (an evaluator rewind), was cut back
    and grew, or stayed, or a plain str, after which the next Prompt's state
    is escaped whole."""
    stub, http = stub_and_backend
    stub.seen.clear()
    backend = CallRecorder(http)
    for index, (action, text, cut, own_text, temperature) in enumerate(calls):
        if action == "append":
            state += text
        elif action == "cut":
            state = state[:cut]
        elif action == "rewind":
            state = state[:len(state) // 2] + text
        prompt = state + own_text if action == "plain" else Prompt(state, own_text)
        backend.complete(role_prompts[index % 2], prompt, model=model, temperature=temperature)
    assert_plain_bodies(stub, backend)


def test_a_prompt_is_the_str_of_its_parts():
    """A Prompt is not a str, so no call copies its state: str() joins
    the parts, and len() counts their characters."""
    prompt = Prompt("state", " text")
    assert not isinstance(prompt, str) and type(str(prompt)) is str
    assert prompt.parts == ("state", " text")
    assert ScriptedBackend([rule("e t", "hit")]).complete("", prompt) == "hit"
    for state, text in [("state", " text"), ("", ""), ("", "t"), ("é😀", ""), ("s\n", '"t"')]:
        joined = state + text
        assert (len(Prompt(state, text)), str(Prompt(state, text)), bool(Prompt(state, text))) \
            == (len(joined), joined, bool(joined))


def test_a_plain_str_prompt_is_own_text_on_an_empty_state():
    backend = ScriptedBackend([rule("e t", "hit"), rule("^only", "anchored", regex=True)])
    assert complete(AGENT, backend, "state text") == "hit"
    assert complete(AGENT, backend, "only own text") == "anchored"
    assert complete(AGENT, backend, Prompt("state", " text")) == "hit"


# ---------------------------------------------------------------------------
# What outlives a request: the one kept state, until close()
# ---------------------------------------------------------------------------

def held_text(backend, text):
    """The names of the backend's attributes whose text, or the text of
    whose dict's keys or values, holds text."""
    escaped = json.dumps(text)[1:-1].encode()

    def holds(value):
        if isinstance(value, (dict, tuple)):
            return any(map(holds, [*value, *value.values()] if isinstance(value, dict) else value))
        return (isinstance(value, str) and text in value
                or isinstance(value, (bytes, bytearray)) and escaped in value)

    return sorted(name for name, value in vars(backend).items() if holds(value))


def test_a_closed_backend_holds_no_text_of_its_run(keepalive):
    stub = keepalive()
    scripted = ScriptedBackend([rule("Choose exactly one tool", "beta")], fallback="noted")
    stub.answer = lambda user_prompt: scripted.complete("", user_prompt)
    backend = http_chat_backend(stub.url)
    inquiry, role = f"inquiry 7f3a {ESCAPES}", f"role 5c1e {ESCAPES}"
    profile = AgentProfile(id="analyst", role_prompt=role, model_ref="m 5c1e")
    execute(dataclasses.replace(tool_chain(), agents=(profile,)), inquiry, backend)
    assert held_text(backend, inquiry)  # the kept state, and its escape
    assert held_text(backend, role) == held_text(backend, "m 5c1e") == []
    backend.close()
    for text in (inquiry, "noted", role, "m 5c1e"):
        assert held_text(backend, text) == []


def test_a_closed_scripted_backend_holds_no_text_of_its_run():
    backend = ScriptedBackend([rule("Choose exactly one tool", "beta")], fallback="noted")
    inquiry = f"inquiry 7f3a {ESCAPES}"
    execute(tool_chain(), inquiry, backend)
    assert held_text(backend, inquiry) == ["_state"]
    backend.close()
    assert held_text(backend, inquiry) == []


def test_a_plain_prompt_leaves_the_backend_holding_no_text_of_the_run(
        keepalive, open_backend, monkeypatch):
    """The plain prompt's empty state shares no text with the kept state,
    so the backend escapes none of the kept state to drop it."""
    stub = keepalive()
    scripted = ScriptedBackend([rule("Choose exactly one tool", "beta")], fallback="noted")
    stub.answer = lambda user_prompt: scripted.complete("", user_prompt)
    backend = open_backend(stub.url)
    inquiry = f"inquiry 7f3a {ESCAPES}"
    execute(tool_chain(), inquiry, backend)
    escaped, real = [], agents.json_escape
    monkeypatch.setattr(agents, "json_escape", lambda text: escaped.append(len(text)) or real(text))
    assert complete(AGENT, backend, "hello") == "noted"
    assert sum(escaped) == len("hello")
    assert held_text(backend, inquiry) == []


def test_a_plain_prompt_leaves_the_scripted_backend_holding_no_text_of_the_run():
    backend = ScriptedBackend([rule("Choose exactly one tool", "beta")], fallback="noted")
    inquiry = f"inquiry 7f3a {ESCAPES}"
    execute(tool_chain(), inquiry, backend)
    assert complete(AGENT, backend, "hello") == "noted"
    assert held_text(backend, inquiry) == []


class PromptWatcher(ScriptedBackend):
    """Scripted; when sent a Prompt, notes how many Prompts sent before it
    are still alive."""

    def __init__(self, rules, fallback=""):
        super().__init__(rules, fallback)
        self.sent = []  # a weak reference to each Prompt sent
        self.alive = []

    def complete(self, role_prompt, user_prompt, **kwargs):
        if isinstance(user_prompt, Prompt):
            self.alive.append(sum(ref() not in (None, user_prompt) for ref in self.sent))
            self.sent.append(weakref.ref(user_prompt))
        return super().complete(role_prompt, user_prompt, **kwargs)


def test_execute_keeps_no_prompt_from_one_task_to_the_next():
    """t0; t1 picks alpha; t2 rewinds to t1, which is re-asked and picks
    beta; t2 passes."""
    backend = PromptWatcher([rule("Choose exactly one tool", "alpha", "no tool", "beta"),
                             rule("carry out step t2", "SCORE: 2.0", "SCORE: 9.0")],
                            fallback="noted")
    record = execute(tool_chain(graded=True), "Q", backend)
    assert record.details["t1"].selected_tool == "beta"
    assert backend.alive == [0] * 8
    assert all(ref() is None for ref in backend.sent)


def test_no_module_of_agwf_imports_http_client():
    """The HTTP backend opens its connections and reads its replies itself."""
    src = Path(agents.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            assert not [name for name in names if f"{name}.".startswith("http.client.")], path


def test_agwf_needs_no_requests():
    code = ("import sys\n"
            "sys.modules['requests'] = None  # any import of requests now fails\n"
            "import agwf.cli\n"
            "from agwf.agents import HttpChatBackend\n"
            "HttpChatBackend('https://example.invalid/v1/chat/completions').close()\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
