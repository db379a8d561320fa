"""Agent bindings: role-prompted completion backends and tool selection.

A task runs by sending its role prompt (system message) and a built user
prompt to a CompletionBackend.  The ScriptedBackend is the deterministic
test double; HttpChatBackend talks to any OpenAI-compatible chat
completions endpoint.  Building one imports what its endpoint needs:
socket, ssl for https, urllib.request when a *_proxy variable is set.  A
scripted run loads none of them.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass
from functools import cache
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


class Prompt:
    """A user prompt: a state followed by its own text, held as those two
    parts, ``parts``, and never joined here, so a backend may reuse what it
    did with a state it saw before.  str() of it is the joined text, and
    len() its length in characters."""

    __slots__ = ("parts", "__weakref__")

    def __init__(self, state: str, text: str):
        self.parts = (state, text)

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __str__(self) -> str:
        return "".join(self.parts)


def _parts(user_prompt: Prompt | str) -> tuple[str, str]:
    """A Prompt's state and own text; a plain str is own text on an empty state."""
    return user_prompt.parts if isinstance(user_prompt, Prompt) else ("", user_prompt)


def _shared(kept: str, state: str) -> int:
    """The length of the text both states begin with, as a backend sees
    it: all of ``kept`` when ``state`` extends it, all of ``state`` when it
    was cut back to a prefix of ``kept`` (an evaluator rewind), else 0."""
    return (len(kept) if state.startswith(kept)
            else len(state) if kept.startswith(state) else 0)


class CompletionBackend:
    """Completion contract.

    complete() is sent a role prompt and a user prompt: a Prompt, or a
    plain str, which is own text on an empty state.  str(user_prompt) is
    the text to answer; a backend that reuses what it did with a state
    reads the Prompt's parts instead.  complete() returns the reply text or
    raises an AgentError whose type says what went wrong: TransportError
    for a failure worth another attempt (complete() below makes
    TRANSPORT_RETRIES more), and, never retried, BackendTimeout when no
    reply came within the backend's time budget, RequestRejected when the
    endpoint refused the request, and MalformedResponse when the reply
    carries no text.  Empty text surfaces as BackendEmptyResponse through
    complete() below.
    """

    def complete(self, role_prompt: str, user_prompt: Prompt | str, *,
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


def rule(match: str, *responses: str, regex: bool = False) -> ScriptedRule:
    return ScriptedRule(match=match, responses=tuple(responses), regex=regex)


class ScriptedBackend(CompletionBackend):
    """Deterministic backend answering from an ordered rule table.

    A rule's answer is that of matching the whole prompt.  The backend
    keeps the last state it saw, a plain str's being empty, and per
    substring rule where the rule's first occurrence in it ends (None if
    nowhere), so a state is searched only past the text it shares with
    the kept one (see _shared); close() drops them.  A regex is matched on
    the joined prompt, built only when a regex rule is tried.
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
        shared = _shared(self._state, state)
        for i, scripted in enumerate(self.rules):
            end, match = self._ends[i], scripted.match
            if not scripted.regex and (end is None or end > shared):
                # the first occurrence, if any, ends past the shared text
                # (or, for an empty match, at it)
                at = state.find(match, max(0, shared - len(match)))
                self._ends[i] = at + len(match) if at >= 0 else None
        self._state = state

    def complete(self, role_prompt: str, user_prompt: Prompt | str, *,
                 model: str = "", temperature: float = 0.0) -> str:
        state, text = _parts(user_prompt)
        self._keep(state)
        joined = None
        for i, scripted in enumerate(self.rules):
            match = scripted.match
            if scripted.regex:
                joined = state + text if joined is None else joined
                found = re.search(match, joined) is not None
            else:
                # an occurrence lies inside the state (its kept end) or ends
                # in the own text, so starts there or in the state's last
                # len(match) - 1 characters
                found = (self._ends[i] is not None
                         or match in state[max(0, len(state) - len(match) + 1):] + text)
            if found:
                index = min(self._uses[i], len(scripted.responses) - 1)
                self._uses[i] += 1
                return scripted.responses[index]
        return self.fallback


class HttpChatBackend(CompletionBackend):
    """OpenAI-compatible chat completions over HTTP/1.1 with bearer auth.

    The endpoint must be an http(s) URL with a host and, if it names a
    port, one from 1 to 65535, and the api_key latin-1 text with no line
    break; anything else raises ValueError before a request is made, its
    message opening with "endpoint", "api_key" or the proxy's variable.
    The proxy comes from the http_proxy/https_proxy/no_proxy environment
    variables, read here, once.  The backend keeps one connection, which
    it opens itself (see _open), and reuses it for every complete(), so it
    serves one run at a time; close() releases it.  It sends each request
    in one write, its head as http.client writes it, built here up to the
    Content-Length value, and reads the reply itself (see _read_reply).
    ``timeout`` bounds the whole exchange: one deadline from the connect to
    the last byte of the reply.  complete() opens, sends and reads in one
    loop, which closes the connection on any exception.  A reused
    connection that resets before any byte of the reply, or answers 408 and
    closes, as a server may on an idle one (RFC 9110 section 15.5.9), costs
    no attempt: the loop sends once more on a new connection.

    The backend keeps the state of the last prompt it sent (a plain str's
    is empty) and that state's JSON escape.  A request escapes only the
    text its state does not share with the kept one (see _shared), and the
    kept text it does not share, to learn how much escape to cut off;
    close() drops them.  The body is, byte for byte, what json.dumps
    makes of the request.
    """

    def __init__(self, endpoint_url: str, api_key: str = "", timeout: float = 60.0):
        import socket  # noqa: F401  (loaded with the backend, not at its first connect)

        parts, port = _http_address(endpoint_url, ("http", "https"), "endpoint")
        if "\r" in api_key or "\n" in api_key or max(api_key, default="") > "\xff":
            raise ValueError("api_key must be latin-1 text with no line break")
        self.endpoint_url, self.timeout = endpoint_url, timeout
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        target = quote(target, safe=_URL_SAFE).encode("ascii")
        host, https = parts.hostname, parts.scheme == "https"
        proxy, self._address = None, (host, port)
        # getproxies reads only the variables whose names end in _proxy, in any case
        if any(name.lower().endswith("_proxy") for name in os.environ):
            from urllib.request import getproxies, proxy_bypass

            proxy = None if proxy_bypass(host) else getproxies().get(parts.scheme)
        if proxy:
            proxy_parts, proxy_port = _http_address(
                proxy if "://" in proxy else "http://" + proxy, ("http",),
                f"{parts.scheme}_proxy (or {parts.scheme.upper()}_PROXY)")
            self._address = (proxy_parts.hostname, proxy_port)
        # an IPv6 address in brackets and without its zone
        name = (f"[{host.partition('%')[0]}]" if ":" in host else host).encode("idna")
        self._host, self._context, self._tunnel = host, None, b""
        if https:
            import ssl

            self._context = ssl.create_default_context()
            if proxy:
                self._tunnel = b"CONNECT %s:%d HTTP/1.1\r\nHost: %s:%d\r\n\r\n" % ((name, port) * 2)
        if proxy and not https:
            # a proxy takes the absolute URI, and Host is its authority
            authority = parts.netloc.rpartition("@")[2].encode("idna")
            target = b"http://" + authority + target
        else:
            authority = name if port == (443 if https else 80) else name + b":%d" % port
        self._head = (b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
                      b"Content-Length: " % (target, authority))
        self._head_end = b"\r\nContent-Type: application/json\r\n%s\r\n" % (
            b"Authorization: Bearer %s\r\n" % api_key.encode("latin-1") if api_key else b"")
        self._sock = None
        self.close()

    def close(self) -> None:
        self._drop()
        self._state, self._escaped_state = "", bytearray()

    def _drop(self) -> None:  # close the connection, if one is open
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _open(self, deadline: float) -> None:
        """Open the connection by the deadline: TCP to the proxy or else the
        endpoint, then for https the proxy's CONNECT tunnel, if any, and TLS."""
        import socket

        self._sock = socket.create_connection(self._address, _remaining(deadline))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._tunnel:
            self._sock.sendall(self._tunnel)
            if not 200 <= (status := _read_reply(self._sock, deadline, connect=True)[0]) < 300:
                raise TransportError(f"HTTP {status} from the proxy to {self.endpoint_url}")
        if self._context:  # the handshake gets the time the tunnel left
            self._sock = self._context.wrap_socket(self._sock, server_hostname=self._host,
                                                   do_handshake_on_connect=False)
            self._sock.settimeout(_remaining(deadline))
            self._sock.do_handshake()

    def _escape_state(self, state: str) -> bytearray:
        """The state's JSON escape, made from the kept one and kept in its
        place.  JSON escapes each code point on its own, so the kept escape
        loses the escape of the kept text past the shared text and gains
        that of the state's."""
        kept, escaped = self._state, self._escaped_state
        shared = _shared(kept, state)
        if shared:
            del escaped[len(escaped) - len(json_escape(kept[shared:])):]
        else:
            escaped.clear()
        escaped += json_escape(state[shared:])
        self._state = state
        return escaped

    def complete(self, role_prompt: str, user_prompt: Prompt | str, *,
                 model: str = "", temperature: float = 0.0) -> str:
        state, text = _parts(user_prompt)
        # the temperature is encoded each time: 0, 0.0, -0.0 and False are
        # equal, but json.dumps writes each its own way
        body = (b'{"model": ', json.dumps(model).encode(),
                b', "messages": [{"role": "system", "content": ', json.dumps(role_prompt).encode(),
                b'}, {"role": "user", "content": "', self._escape_state(state), json_escape(text),
                b'"}], "temperature": ', json.dumps(temperature).encode(), b"}")
        request = b"".join((self._head, b"%d" % sum(map(len, body)), self._head_end, *body))
        deadline = time.monotonic() + self.timeout
        while True:
            fresh = self._sock is None
            try:
                if fresh:
                    self._open(deadline)
                self._sock.settimeout(_remaining(deadline))
                self._sock.sendall(request)
                status, data, reusable = _read_reply(self._sock, deadline)
            except BaseException as exc:
                # closed so that a late reply is never read as the next one
                self._drop()
                if not fresh and isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                    continue  # the server hung up the reused connection: send once more
                if isinstance(exc, TimeoutError):
                    raise BackendTimeout(f"no response from {self.endpoint_url} "
                                         f"within {self.timeout}s") from exc
                if isinstance(exc, OSError):
                    raise TransportError(f"request to {self.endpoint_url} failed: {exc}") from exc
                raise  # an AgentError: a reply framed wrong, cut short or too long
            if not reusable:
                self._drop()
                if status == 408 and not fresh:
                    continue  # the server timed out the reused connection: send once more
            break
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
            raise MalformedResponse("response has no choices[0].message.content field") from exc
        if not isinstance(content, str):
            raise MalformedResponse("message content is not text")
        return content


#: characters a request target keeps as they are; others are percent-encoded
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"

#: the longest reply body read, in bytes; a longer one is a MalformedResponse
MAX_REPLY_BYTES = 8 << 20
#: a reply is read in pieces of at most this many bytes, as a read of n
#: bytes may allocate n before it reads
_READ_BYTES = 1 << 16
#: the longest reply head (status line and header fields), chunk-size line
#: or trailer section read, in bytes, as http.client caps a line
_MAX_HEAD_BYTES = 1 << 16
_TOO_LONG = f"response body is longer than {MAX_REPLY_BYTES} bytes"


@cache
def _reply_patterns() -> tuple[re.Pattern, ...]:
    """Those of _read_reply, compiled when the first reply is read: an
    empty line, which ends a head (a line may end in CRLF or in LF alone),
    a line end, a status line, a header field and a chunk-size line."""
    return (re.compile(rb"\r?\n\r?\n"), re.compile(rb"\n"),
            re.compile(rb"(HTTP/\S+) +([1-9]\d\d)\b"), re.compile(rb"^([^:\s]+)[ \t]*:(.*)$", re.M),
            re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;.*)?\r?\n"))


def _remaining(deadline: float) -> float:
    """The seconds left until the deadline, a time.monotonic() value;
    TimeoutError when none are."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the deadline passed")
    return left


def _read_reply(sock, deadline: float, connect: bool = False) -> tuple[int, bytearray, bool]:
    """Read one reply, skipping 1xx ones, into one bytearray by the
    deadline: its status, its body, framed as RFC 9112 section 6.3 says
    (a 2xx reply to CONNECT, if ``connect``, ends at its head), and
    whether the connection may carry another request.  A close before
    any byte of it is a ConnectionResetError; a reply cut short or framed
    wrong, or a head over _MAX_HEAD_BYTES, a TransportError; a body over
    MAX_REPLY_BYTES a MalformedResponse."""
    empty_line_re, line_end_re, status_re, field_re, chunk_size_re = _reply_patterns()
    data = bytearray()

    def read() -> bool:
        """Read up to _READ_BYTES onto data; False at the end of the stream."""
        sock.settimeout(_remaining(deadline))
        piece = sock.recv(_READ_BYTES)
        data.extend(piece)
        return bool(piece)

    def need(size: int) -> None:  # read until data holds size bytes
        while len(data) < size:
            if not read():
                raise TransportError("the connection closed inside the reply")

    def find(pattern: re.Pattern, at: int) -> re.Match:
        """The first match from ``at`` on, ending within _MAX_HEAD_BYTES of it."""
        start, limit = at, at + _MAX_HEAD_BYTES
        while not (found := pattern.search(data, start, limit)):
            if len(data) >= limit:
                raise TransportError(f"no line end within {_MAX_HEAD_BYTES} bytes of the reply")
            start = max(at, len(data) - 3)  # a match may begin in the bytes searched
            need(len(data) + 1)
        return found

    if not read():
        raise ConnectionResetError("the connection closed before the reply")
    start, status = 0, 100
    while status < 200:
        head, start = start, find(empty_line_re, start).end()
        if not (status_line := status_re.match(data, head, start)):
            raise TransportError(f"bad status line {bytes(data[head:head + 80])!r}")
        status = int(status_line[2])
    fields = {}
    for name, value in field_re.findall(data, head, start):
        fields.setdefault(name.lower(), []).extend(v.strip().lower() for v in value.split(b","))
    codings, lengths = fields.get(b"transfer-encoding"), set(fields.get(b"content-length", ()))
    reusable = status_line[1] == b"HTTP/1.1" and b"close" not in fields.get(b"connection", ())
    if status in (204, 304) or connect and status < 300:
        body_end = end = start
    elif codings and codings[-1] == b"chunked":
        body_end = at = start
        while True:
            if not (line := chunk_size_re.match(data, at, find(line_end_re, at).end())):
                raise TransportError(f"bad chunk-size line {bytes(data[at:at + 80])!r}")
            size, at = int(line[1], 16), line.end()
            if not size:
                break
            if body_end - start + size > MAX_REPLY_BYTES:
                raise MalformedResponse(_TOO_LONG)
            need(at + size + 2)
            if data[at + size:at + size + 2] != b"\r\n":
                raise TransportError("a chunk does not end where its size says")
            # the chunk's data joins the body, in place of its size line
            data[body_end:at + size + 2] = data[at:at + size]
            body_end = at = body_end + size
        # trailer fields, if any, and an empty line; the size line ends at at - 1
        end = find(empty_line_re, at - 1).end()
    elif lengths and not codings:
        if len(lengths) > 1 or not (length := lengths.pop()).isdigit():
            raise TransportError("bad Content-Length in the reply")
        if len(length) > 18 or int(length) > MAX_REPLY_BYTES:
            raise MalformedResponse(_TOO_LONG)
        body_end = end = start + int(length)
        need(end)
    else:
        while read():
            if len(data) - start > MAX_REPLY_BYTES:
                raise MalformedResponse(_TOO_LONG)
        body_end = end = len(data)
        reusable = False
    reusable = reusable and len(data) == end
    del data[body_end:]
    del data[:start]
    return status, data, reusable


def _http_address(url: str, schemes: tuple[str, ...], what: str) -> tuple[SplitResult, int]:
    """The split URL and its port; ValueError unless it can be connected to."""
    try:
        parts = urlsplit(url)
        host = parts.hostname
        # a space or control character would break the request; IDNA a bad label
        valid = (parts.scheme in schemes and bool(host) and host.isprintable()
                 and " " not in host and bool(host.encode("idna")))
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


def complete(profile: AgentProfile, backend: CompletionBackend, user_prompt: Prompt | str) -> str:
    """Run one completion for the profile's role.

    A TransportError is retried up to TRANSPORT_RETRIES times; every other
    error, and an empty reply, surfaces at once.  An empty prompt, one of
    no characters, is a ValueError.
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


def selection_prompt(tools: Sequence[Tool]) -> str:
    """The tool-selection prompt's own text: the prompt is the state
    followed by this text, which opens with a blank line."""
    return "\n".join([
        "", "", "Choose exactly one tool to apply to the current state.", "Available tools:",
        *(f"- {tool.name}: {tool.documentation}" for tool in tools),
        "Reply with your reasoning if you want, but the last line of your reply "
        "must be exactly the name of the chosen tool."])


#: the chosen tool's name, as last_line_match reads it: any non-blank line
_TOOL_NAME_RE = re.compile(r"(.+)")


def select_tool(profile: AgentProfile, backend: CompletionBackend,
                prompt: Prompt | str, tools: Sequence[Tool]) -> Tool:
    """Send ``prompt``, the state followed by ``selection_prompt(tools)``,
    and return the tool the reply names.

    The reply's last non-blank line, read by ``last_line_match``, must be
    a tool name (case-sensitive exact match); one re-ask, the prompt on
    the same state with a note listing the names in the given order, is
    allowed before ToolSelectionFailed.
    """
    by_name = {tool.name: tool for tool in tools}
    for asked in range(2):
        if asked:  # built only when the first reply names no tool
            state, text = _parts(prompt)
            prompt = Prompt(state, f"{text}\nYour previous reply was not a valid tool name. "
                                   f"Answer with exactly one of: {', '.join(by_name)}.")
        raw = complete(profile, backend, prompt)
        if (name := last_line_match(_TOOL_NAME_RE, raw)) in by_name:
            return by_name[name]
    raise ToolSelectionFailed(
        f"agent {profile.id!r} named no valid tool twice; last reply: {raw!r}")
