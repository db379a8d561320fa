"""The HTTP backend against the raw-socket stub of conftest.py, which
writes its replies byte for byte as scripted: trickled, cut short or
framed wrong."""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import ssl
import sys
import threading
import time

import pytest

from agwf.agents import BackendTimeout, HttpChatBackend, TransportError, complete

from conftest import (AGENT, BODY, DATA_DIR, ESTABLISHED, HEAD, OK, CountingBackend, send,
                      tls_server_context, trickle)

def test_the_timeout_bounds_the_whole_exchange(raw_stub, open_backend):
    """A body trickled a byte every 0.1 s would take 4.6 s; the call ends
    at its 0.5 s timeout, and the next call opens a new connection."""
    stub = raw_stub()
    backend = open_backend(stub.url, timeout=0.5)
    stub.script = [trickle(HEAD, BODY, 0.1)]
    started = time.monotonic()
    with pytest.raises(BackendTimeout):
        backend.complete("role", "hello")
    assert time.monotonic() - started < 0.5 + 0.25
    assert backend.complete("role", "hello") == "oka"


def test_a_408_on_the_idle_connection_is_not_read_as_the_reply(raw_stub, open_backend):
    """RFC 9110 section 15.5.9: a server may send 408 on an idle
    connection before it closes it.  The next request, sent on that
    connection, reads the 408 or a reset, and goes out again on a new
    connection."""
    stub = raw_stub()
    backend = open_backend(stub.url, timeout=0.5)
    timed_out = threading.Event()

    def reply_then_time_out(conn):
        conn.sendall(OK)
        time.sleep(0.05)
        conn.sendall(b"HTTP/1.1 408 Request Timeout\r\nConnection: close\r\n"
                     b"Content-Length: 0\r\n\r\n")
        timed_out.set()
        return False

    stub.script = [reply_then_time_out]
    assert backend.complete("role", "hello") == "oka"
    assert timed_out.wait(5)
    assert backend.complete("role", "hello") == "oka"
    assert stub.connections == 2 and len(stub.requests) == 2


def chunked(*pieces, trailer=b""):
    """A keep-alive reply head and its body in chunks of the pieces."""
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"".join(b"%x\r\n%s\r\n" % (len(piece), piece) for piece in pieces)
            + b"0\r\n" + trailer + b"\r\n")


#: replies that the backend reads, and whether it keeps the connection after them
READ = {
    "1xx replies first": (send(b"HTTP/1.1 100 Continue\r\n\r\n"
                               b"HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n" + OK), True),
    "chunked": (send(chunked(BODY[:10], BODY[10:])), True),
    "chunk extensions": (send(chunked(BODY).replace(b"2e\r\n", b"2E ; name=value\r\n")), True),
    "trailer fields": (send(chunked(BODY, trailer=b"X-Checksum: 1\r\nX-Other: 2\r\n")), True),
    "lines ending in LF alone": (send(OK.replace(b"\r\n", b"\n")), True),
    "two equal Content-Lengths": (
        send(OK.replace(b"Content-Length: 46", b"Content-Length: 46, 46")), True),
    "Connection: close": (
        send(OK.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")), False),
    "HTTP/1.0": (send(OK.replace(b"HTTP/1.1", b"HTTP/1.0")), False),
    "bytes past the body": (send(OK + b"HTTP/1.1 200 OK\r\n"), False),
    "a body the close ends": (
        send(HEAD.replace(b"Content-Length: 46\r\n", b"") + BODY, keep=False), False),
}


@pytest.mark.parametrize("case", READ)
def test_replies_the_backend_reads(raw_stub, open_backend, case):
    """Each reply is read, and the connection kept only when it may carry
    the next request."""
    reply, kept = READ[case]
    stub = raw_stub()
    backend = open_backend(stub.url, timeout=0.2)
    stub.script = [reply]
    assert backend.complete("role", "hello") == "oka"
    assert backend.complete("role", "hello") == "oka"
    assert stub.connections == (1 if kept else 2)


#: replies framed wrong or cut short, each followed by a kept connection
#: unless it says otherwise
HOSTILE = {
    "Content-Length not a number": send(HEAD.replace(b": 46", b": 4x") + BODY),
    "two Content-Lengths that differ": send(
        HEAD.replace(b"\r\n\r\n", b"\r\nContent-Length: 47\r\n\r\n") + BODY),
    "a bad chunk-size line": send(chunked(BODY).replace(b"2e\r\n", b"2x\r\n")),
    "a chunk longer than its size": send(chunked(BODY).replace(b"2e\r\n", b"2d\r\n")),
    "a head over 64 KiB": send(HEAD.replace(b"\r\n\r\n", b"\r\nX-Pad: " + b"a" * (1 << 16)
                                             + b"\r\n\r\n") + BODY),
    "a bad status line": send(OK.replace(b"HTTP/1.1 200", b"HTTP/1.1 2x0")),
    "a close inside the head": send(HEAD[:30], keep=False),
    "a close inside a Content-Length body": send(OK[:-10], keep=False),
    "a close inside a chunked body": send(chunked(BODY)[:-20], keep=False),
    "a close inside a chunk-size line": send(
        chunked(BODY[:10], BODY[10:]).partition(b"\r\n24\r\n")[0] + b"\r\n2", keep=False),
}


@pytest.mark.parametrize("case", HOSTILE)
def test_a_reply_framed_wrong_is_a_transport_error(raw_stub, open_backend, case):
    """Each ends at once, well within the timeout, in a TransportError, and
    the next call succeeds on a new connection."""
    stub = raw_stub()
    backend = open_backend(stub.url, timeout=0.2)
    stub.script = [HOSTILE[case]]
    started = time.monotonic()
    with pytest.raises(TransportError) as error:
        backend.complete("role", "hello")
    assert time.monotonic() - started < 0.15
    assert not isinstance(error.value.__cause__, TimeoutError)
    assert backend.complete("role", "hello") == "oka"
    assert stub.connections == 2


# ---------------------------------------------------------------------------
# The request bytes: those that http.client.HTTPConnection.request sends
# ---------------------------------------------------------------------------

#: endpoint, proxy, and the host, port and request target that the proxy,
#: or else the endpoint, takes
ENDPOINTS = [
    ("http://endpoint.example/v1/chat/completions", "",
     "endpoint.example", 80, "/v1/chat/completions"),
    ("http://Endpoint.example:80/v1", "", "endpoint.example", 80, "/v1"),
    ("http://endpoint.example:8080/v1/chat?model=a%20b", "",
     "endpoint.example", 8080, "/v1/chat?model=a%20b"),
    ("http://[::1]/v1", "", "::1", 80, "/v1"),
    ("http://[::1]:8080/v1", "", "::1", 8080, "/v1"),
    ("http://caf\u00e9.example/v1", "", "caf\u00e9.example", 80, "/v1"),
    ("http://user:pw@endpoint.example:8080/v1?k=1", "http://proxy.example:3128",
     "proxy.example", 3128, "http://endpoint.example:8080/v1?k=1"),
    ("http://endpoint.example/v1", "proxy.example:3128",
     "proxy.example", 3128, "http://endpoint.example/v1"),
    # TLS to the stub, whose certificate is for 127.0.0.1
    ("https://127.0.0.1/v1", "", "127.0.0.1", 443, "/v1"),
    ("https://127.0.0.1:8443/v1", "", "127.0.0.1", 8443, "/v1"),
]


@pytest.mark.parametrize("api_key", ["", "sk-0123"])
@pytest.mark.parametrize("url, proxy, host, port, target", ENDPOINTS)
def test_a_request_is_the_bytes_http_client_sends(raw_stub, open_backend, monkeypatch,
                                                  url, proxy, host, port, target, api_key):
    """Every connection goes to the stub, whatever address it is for."""
    tls = url.startswith("https")
    stub = raw_stub(tls)
    monkeypatch.setenv("SSL_CERT_FILE", str(DATA_DIR / "tls_cert.pem"))
    connect, addresses = socket.create_connection, []

    def to_the_stub(address, *args, **kwargs):
        addresses.append(address[:2])
        return connect(stub.server_address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", to_the_stub)
    if proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy)
    backend = open_backend(url, api_key)
    assert backend.complete("role", "hello \u00e9", model="m", temperature=0.5) == "oka"
    body = json.dumps({"model": "m", "messages": [{"role": "system", "content": "role"},
                                                  {"role": "user", "content": "hello \u00e9"}],
                       "temperature": 0.5}).encode()
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    reference = (http.client.HTTPSConnection(host, port, context=ssl.create_default_context())
                 if tls else http.client.HTTPConnection(host, port))
    try:
        reference.request("POST", target, body, headers)
        reference.getresponse().read()
    finally:
        reference.close()
    assert addresses == [(host, port)] * 2
    assert stub.requests[0] == stub.requests[1]


@pytest.mark.parametrize("url, port", [("https://127.0.0.1/v1", 443),
                                       ("https://127.0.0.1:8443/v1", 8443)])
def test_a_tunnelled_request_is_the_bytes_http_client_sends(raw_stub, open_backend, monkeypatch,
                                                            url, port):
    """An https endpoint behind a proxy: the request inside the tunnel is
    that of HTTPSConnection with set_tunnel, and two completions share one
    tunnel.  The CONNECT request is set_tunnel's from Python 3.12 on; that
    of 3.11 is HTTP/1.0 with no Host field, so there it is pinned as the
    bytes 3.12 sends."""
    proxy = raw_stub(tunnel=True)
    monkeypatch.setenv("SSL_CERT_FILE", str(DATA_DIR / "tls_cert.pem"))
    monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy.port}")
    backend = open_backend(url, "sk-0123")
    assert [backend.complete("role", "hello", model="m") for _ in range(2)] == ["oka"] * 2
    assert proxy.connections == 1
    body = json.dumps({"model": "m", "messages": [{"role": "system", "content": "role"},
                                                  {"role": "user", "content": "hello"}],
                       "temperature": 0.0}).encode()
    reference = http.client.HTTPSConnection(*proxy.server_address,
                                            context=ssl.create_default_context())
    reference.set_tunnel("127.0.0.1", port)
    try:
        reference.request("POST", "/v1", body, {"Content-Type": "application/json",
                                                "Authorization": "Bearer sk-0123"})
        reference.getresponse().read()
    finally:
        reference.close()
    assert len(proxy.tunnels) == 2
    assert proxy.tunnels[0] == (proxy.tunnels[1] if sys.version_info >= (3, 12) else
                                b"CONNECT 127.0.0.1:%d HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n\r\n"
                                % (port, port))
    assert len(proxy.requests) == 3 and proxy.requests[0] == proxy.requests[1] == proxy.requests[2]


@pytest.fixture
def tunnelled(raw_stub, open_backend, monkeypatch):
    """A proxy stub, and a backend for an https endpoint behind it with the
    given timeout; closed when the test ends."""
    def build(timeout):
        proxy = raw_stub(tunnel=True)
        monkeypatch.setenv("SSL_CERT_FILE", str(DATA_DIR / "tls_cert.pem"))
        monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy.port}")
        return proxy, open_backend("https://127.0.0.1/v1", timeout=timeout)

    return build


def test_the_timeout_bounds_a_trickled_reply_to_connect(tunnelled):
    """The proxy's reply to CONNECT, a byte every 0.1 s, would take 3.9 s;
    the call ends at its 0.5 s timeout."""
    proxy, backend = tunnelled(0.5)
    proxy.answer_connect = trickle(b"", ESTABLISHED, 0.1)
    started = time.monotonic()
    with pytest.raises(BackendTimeout):
        backend.complete("role", "hello")
    assert time.monotonic() - started < 0.5 + 0.15


def test_a_connect_the_proxy_refuses_is_a_transport_error(tunnelled):
    """Each attempt opens a tunnel, is refused it and spends an attempt."""
    proxy, backend = tunnelled(0.5)
    proxy.answer_connect = send(b"HTTP/1.1 407 Proxy Authentication Required\r\n"
                                b"Proxy-Authenticate: Basic\r\nContent-Length: 0\r\n\r\n", keep=False)
    counted = CountingBackend(backend)
    with pytest.raises(TransportError):
        complete(AGENT, counted, "hello")
    assert counted.calls == 3 and len(proxy.tunnels) == 3 and proxy.requests == []


def trickled_handshake(conn):
    """Open the tunnel after 0.3 s, then answer the TLS handshake inside it
    16 bytes every 0.05 s."""
    time.sleep(0.3)
    conn.sendall(ESTABLISHED)
    incoming, outgoing = ssl.MemoryBIO(), ssl.MemoryBIO()
    tls = tls_server_context().wrap_bio(incoming, outgoing, server_side=True)
    while piece := conn.recv(1 << 16):
        incoming.write(piece)
        with contextlib.suppress(ssl.SSLWantReadError):
            tls.do_handshake()
        data = outgoing.read()
        for at in range(0, len(data), 16):
            time.sleep(0.05)
            conn.sendall(data[at:at + 16])
    return False


def test_the_tls_handshake_gets_the_time_the_tunnel_left(tunnelled):
    """The tunnel takes 0.3 s of the 0.5 s timeout, and the trickled
    handshake would take seconds: the call ends at 0.5 s, not 0.3 + 0.5."""
    proxy, backend = tunnelled(0.5)
    proxy.answer_connect = trickled_handshake
    started = time.monotonic()
    with pytest.raises(BackendTimeout):
        backend.complete("role", "hello")
    assert time.monotonic() - started < 0.5 + 0.15


@pytest.mark.parametrize("api_key", ["sk-\n", "sk-\r", "\u20ac"])
def test_an_api_key_that_cannot_be_a_header_is_refused_before_any_request(api_key, connects):
    with pytest.raises(ValueError):
        HttpChatBackend("http://127.0.0.1:9/v1", api_key)
    assert connects == []
