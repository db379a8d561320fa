"""Agent bindings: role-prompted completion backends and tool selection.

A task runs by sending its role prompt (system message) and a built user
prompt to a CompletionBackend.  The ScriptedBackend is the deterministic
test double; HttpChatBackend talks to any OpenAI-compatible chat
completions endpoint.  The HTTP stack (http.client, ssl, urllib.request)
is imported when the first HttpChatBackend is built, so a scripted run
never loads it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence
from urllib.parse import SplitResult, quote, urlsplit

from .pm_tools import Tool
from .task_kinds import last_line_match


class AgentError(Exception):
    pass


class BackendTimeout(AgentError):
    pass


class BackendEmptyResponse(AgentError):
    pass


class TransportError(AgentError):
    """A connection failure, HTTP 429 or 5xx: complete() tries again."""


class RequestRejected(AgentError):
    """Any other non-2xx status: the endpoint refused this request."""


class MalformedResponse(AgentError):
    pass


class ToolSelectionFailed(AgentError):
    """Raised after two unparsable selection replies; the message ends with
    the last reply."""


@dataclass(frozen=True)
class AgentProfile:
    """An LLM role: system prompt plus backend-specific model name."""

    id: str
    role_prompt: str
    model_ref: str = ""
    temperature: float = 0.0

    def __post_init__(self):
        if not self.id:
            raise ValueError("agent id must be non-empty")
        if not self.role_prompt:
            raise ValueError(f"agent {self.id!r}: role_prompt must be non-empty")
        if not 0 <= self.temperature < math.inf:  # false for NaN too
            raise ValueError(f"agent {self.id!r}: temperature must be a finite number >= 0")


def json_escape(text: str) -> bytes:
    """``json.dumps(text)`` without its quotes, as ASCII bytes.

    JSON escapes each code point on its own, so the escapes of a text's
    pieces, joined, are the escape of the text.
    """
    return json.dumps(text)[1:-1].encode("ascii")


class Prompt(str):
    """A user prompt whose text is head + state + tail, holding those parts
    as ``parts``: a backend may reuse what it did with a state it saw
    before, and any other takes the prompt as the str it is."""

    def __new__(cls, head: str, state: str, tail: str):
        prompt = super().__new__(cls, head + state + tail)
        prompt.parts = (head, state, tail)
        return prompt


def _parts(user_prompt: str) -> tuple[str, str, str]:
    """A Prompt's head, state and tail; a plain str is all head."""
    return user_prompt.parts if isinstance(user_prompt, Prompt) else (user_prompt, "", "")


class CompletionBackend:
    """Completion contract.

    complete() returns the reply text or raises an AgentError whose type
    says what went wrong: TransportError for a failure worth another
    attempt (complete() below makes TRANSPORT_RETRIES more), and, never
    retried, BackendTimeout when no reply came within the backend's time
    budget, RequestRejected when the endpoint refused the request, and
    MalformedResponse when the reply carries no text.  Empty text
    surfaces as BackendEmptyResponse through complete() below.
    """

    def complete(self, role_prompt: str, user_prompt: str, *,
                 model: str = "", temperature: float = 0.0) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; complete() may still follow."""


@dataclass(frozen=True)
class ScriptedRule:
    """First matching rule wins; each match consumes the next response.

    ``match`` is a plain substring over the user prompt, or a regular
    expression (re.search) when ``regex`` is true.  When the responses
    run out the last one repeats.
    """

    match: str
    responses: tuple[str, ...]
    regex: bool = False

    def __post_init__(self):
        if not self.responses:
            raise ValueError("'responses' must not be empty")

    def matches(self, user_prompt: str) -> bool:
        if self.regex:
            return re.search(self.match, user_prompt) is not None
        return self.match in user_prompt


def rule(match: str, *responses: str, regex: bool = False) -> ScriptedRule:
    return ScriptedRule(match=match, responses=tuple(responses), regex=regex)


class ScriptedBackend(CompletionBackend):
    """Deterministic backend answering from an ordered rule table.

    A rule's answer is that of matching the whole prompt.  The backend
    keeps the last state it saw, a plain str's being empty, and per
    substring rule where the rule's first occurrence in it ends (None if
    nowhere), so a state that extends the kept one is searched only where
    it grew, and a state cut back to a prefix of it (an evaluator rewind)
    is not searched at all; close() drops them.  A regex is matched on the
    whole prompt.
    """

    def __init__(self, rules: Iterable[ScriptedRule], fallback: str = ""):
        self.rules = list(rules)
        self.fallback = fallback
        self._uses = [0] * len(self.rules)
        self.close()

    def close(self) -> None:
        self._state, self._ends = "", [None] * len(self.rules)

    def _keep(self, state: str) -> None:
        """Make state the kept state, with each substring rule's end in it."""
        kept = self._state
        # the length of the text both begin with; state is a prefix after a rewind
        shared = (len(kept) if state.startswith(kept)
                  else len(state) if kept.startswith(state) else 0)
        for i, scripted in enumerate(self.rules):
            end, match = self._ends[i], scripted.match
            if not scripted.regex and (end is None or end > shared):
                # the first occurrence, if any, ends past the shared text
                at = state.find(match, max(0, shared - len(match) + 1))
                self._ends[i] = at + len(match) if at >= 0 else None
        self._state = state

    def _matches(self, i: int, scripted: ScriptedRule, user_prompt: str) -> bool:
        match = scripted.match
        if scripted.regex:
            return scripted.matches(user_prompt)
        head, state, tail = _parts(user_prompt)
        if len(state) < len(match):
            return match in user_prompt
        n = len(match) - 1  # an occurrence across a joint has at most n on each side
        return (self._ends[i] is not None or match in head or match in tail
                or match in head[max(0, len(head) - n):] + state[:n]
                or match in state[len(state) - n:] + tail[:n])

    def complete(self, role_prompt: str, user_prompt: str, *,
                 model: str = "", temperature: float = 0.0) -> str:
        self._keep(_parts(user_prompt)[1])
        for i, scripted in enumerate(self.rules):
            if self._matches(i, scripted, user_prompt):
                index = min(self._uses[i], len(scripted.responses) - 1)
                self._uses[i] += 1
                return scripted.responses[index]
        return self.fallback


class HttpChatBackend(CompletionBackend):
    """OpenAI-compatible chat completions over HTTP with bearer auth.

    The endpoint must be an http(s) URL with a host and, if it names a
    port, one from 1 to 65535; anything else raises ValueError before a
    request is made.  The proxy comes from the http_proxy/https_proxy/
    no_proxy environment variables, read here, once.  The backend keeps
    one connection and reuses it for every complete(), so it serves one
    run at a time; close() releases it.  A reused connection that turns
    out to be hung up when the request is sent is replaced, and the
    request sent once more, within the same complete().

    The backend keeps the state of the last prompt it sent (a plain str's
    is empty) and that state's JSON escape, so a request on a state that
    extends it escapes only what was added; close() drops them.  The body
    is, byte for byte, what json.dumps makes of the request.
    """

    def __init__(self, endpoint_url: str, api_key: str = "", timeout: float = 60.0):
        import http.client
        import ssl
        from urllib.request import getproxies, proxy_bypass

        parts, port = _http_address(endpoint_url, ("http", "https"), "endpoint")
        self.endpoint_url = endpoint_url
        self.timeout = timeout
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        self._target = quote(target, safe=_URL_SAFE)
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        host = parts.hostname
        proxy = getproxies().get(parts.scheme)
        if proxy and proxy_bypass(host):
            proxy = None
        if proxy:
            proxy_parts, proxy_port = _http_address(
                proxy if "://" in proxy else "http://" + proxy, ("http",), f"{parts.scheme} proxy")
            address = (proxy_parts.hostname, proxy_port)
        else:
            address = (host, port)
        if parts.scheme == "https":
            self._connection = http.client.HTTPSConnection(
                *address, timeout=timeout, context=ssl.create_default_context())
            if proxy:
                self._connection.set_tunnel(host, port)
        else:
            self._connection = http.client.HTTPConnection(*address, timeout=timeout)
            if proxy:  # a proxy takes the absolute URI
                self._target = f"http://{parts.netloc.rpartition('@')[2]}{self._target}"
        self._state, self._escaped_state = "", bytearray()

    def close(self) -> None:
        self._connection.close()
        self._state, self._escaped_state = "", bytearray()

    def _escape_state(self, state: str) -> bytearray:
        """The state's JSON escape, extending the kept one when the state
        extends the kept state, and kept in its place."""
        if not state.startswith(self._state):  # rewound, or another run's
            self._state, self._escaped_state = "", bytearray()
        self._escaped_state += json_escape(state[len(self._state):])
        self._state = state
        return self._escaped_state

    def complete(self, role_prompt: str, user_prompt: str, *,
                 model: str = "", temperature: float = 0.0) -> str:
        import http.client
        import selectors

        head, state, tail = _parts(user_prompt)
        body = b"".join((
            b'{"model": ', json.dumps(model).encode(),
            b', "messages": [{"role": "system", "content": ', json.dumps(role_prompt).encode(),
            b'}, {"role": "user", "content": "', json_escape(head), self._escape_state(state),
            json_escape(tail), b'"}], "temperature": ', json.dumps(temperature).encode(), b"}"))
        connection = self._connection
        if connection.sock is not None:
            # a selector, unlike select.select, takes any file descriptor
            with selectors.DefaultSelector() as selector:
                selector.register(connection.sock, selectors.EVENT_READ)
                if selector.select(0):
                    # an idle connection with something to read was hung up by the server
                    connection.close()
        reused = connection.sock is not None
        try:
            try:
                connection.request("POST", self._target, body, self._headers)
                response = connection.getresponse()
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected too
                if not reused:
                    raise
                # a hang-up the idle check missed: send once more on a
                # fresh connection
                connection.close()
                connection.request("POST", self._target, body, self._headers)
                response = connection.getresponse()
            # read to the end whatever the status, so the connection stays usable
            data = bytearray()
            while piece := response.read(_READ_BYTES):
                data += piece
                if len(data) > MAX_REPLY_BYTES:
                    connection.close()
                    raise MalformedResponse(
                        f"response body is longer than {MAX_REPLY_BYTES} bytes")
            if response.length:  # the connection closed short of the Content-Length
                raise http.client.IncompleteRead(bytes(data), response.length)
        except TimeoutError as exc:
            # closed so that the late reply is never read as the next one
            connection.close()
            raise BackendTimeout(
                f"no response from {self.endpoint_url} within {self.timeout}s"
            ) from exc
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise TransportError(f"request to {self.endpoint_url} failed: {exc}") from exc
        status = response.status
        if status == 429 or status >= 500:
            raise TransportError(f"HTTP {status} from {self.endpoint_url}")
        if not 200 <= status < 300:
            raise RequestRejected(f"HTTP {status} from {self.endpoint_url}")
        try:
            payload = json.loads(data)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise MalformedResponse("response body is not JSON") from exc
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(
                "response has no choices[0].message.content field"
            ) from exc
        if not isinstance(content, str):
            raise MalformedResponse("message content is not text")
        return content


#: characters a request target keeps as they are; others are percent-encoded
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"

#: the longest reply body read, in bytes; a longer one is a MalformedResponse
MAX_REPLY_BYTES = 8 << 20
#: a reply body is read in pieces of at most this many bytes, as a read of n
#: bytes may allocate n before it reads
_READ_BYTES = 1 << 16


def _http_address(url: str, schemes: tuple[str, ...], what: str) -> tuple[SplitResult, int]:
    """The split URL and its port; ValueError unless it can be connected to."""
    try:
        parts = urlsplit(url)
        valid = parts.scheme in schemes and bool(parts.hostname)
    except ValueError:  # e.g. an unclosed [ around an IPv6 host
        valid = False
    if not valid:
        raise ValueError(f"{what} must be an {' or '.join(schemes)} URL with a host; got {url!r}")
    try:
        port = parts.port
    except ValueError:  # not a number, or above 65535
        port = 0
    if port == 0:
        raise ValueError(f"{what} port must be a number from 1 to 65535; got {url!r}")
    return parts, port or (443 if parts.scheme == "https" else 80)


def http_chat_backend(endpoint_url: str, api_key: str = "",
                      timeout: float = 60.0) -> CompletionBackend:
    return HttpChatBackend(endpoint_url, api_key, timeout)


# ---------------------------------------------------------------------------
# Completion and selection
# ---------------------------------------------------------------------------

#: re-attempts complete() makes after a TransportError
TRANSPORT_RETRIES = 2


def complete(profile: AgentProfile, backend: CompletionBackend, user_prompt: str) -> str:
    """Run one completion for the profile's role.

    A TransportError is retried up to TRANSPORT_RETRIES times; every other
    error, and an empty reply, surfaces at once.
    """
    if not user_prompt:
        raise ValueError("user_prompt must be non-empty")
    retries_left = TRANSPORT_RETRIES
    while True:
        try:
            text = backend.complete(
                profile.role_prompt,
                user_prompt,
                model=profile.model_ref,
                temperature=profile.temperature,
            )
        except TransportError:
            if not retries_left:
                raise
            retries_left -= 1
            continue
        if not text.strip():
            raise BackendEmptyResponse(f"agent {profile.id!r} returned empty text")
        return text


def selection_prompt(tools: Sequence[Tool]) -> tuple[str, str]:
    """Head and tail of the tool-selection prompt: the prompt is head,
    state, tail."""
    lines = ["Choose exactly one tool to apply to the current state.", "Available tools:"]
    for tool in tools:
        lines.append(f"- {tool.name}: {tool.documentation}")
    lines.append("Current state:\n")
    return "\n".join(lines), (
        "\nReply with your reasoning if you want, but the last line of your reply "
        "must be exactly the name of the chosen tool."
    )


#: the chosen tool's name, as last_line_match reads it: any non-blank line
_TOOL_NAME_RE = re.compile(r"(.+)")


def select_tool(profile: AgentProfile, backend: CompletionBackend,
                prompt: str, tools: Sequence[Tool]) -> Tool:
    """Send ``prompt``, the head and tail of ``selection_prompt(tools)``
    around the state, and return the tool the reply names.

    A single tool is returned without consulting the backend.  Otherwise
    the reply's last non-blank line, read by ``last_line_match``, must be
    a tool name (case-sensitive exact match); one re-ask, listing the
    names in the given order, is allowed before ToolSelectionFailed.
    """
    if len(tools) == 1:
        return tools[0]
    by_name = {tool.name: tool for tool in tools}
    reask = ("\nYour previous reply was not a valid tool name. "
             f"Answer with exactly one of: {', '.join(by_name)}.")
    for asked in range(2):
        # the first ask sends prompt itself, which may be a Prompt
        raw = complete(profile, backend, prompt + reask if asked else prompt)
        if (name := last_line_match(_TOOL_NAME_RE, raw)) in by_name:
            return by_name[name]
    raise ToolSelectionFailed(
        f"agent {profile.id!r} named no valid tool twice; last reply: {raw!r}")
