#!/usr/bin/env python3
"""Loopback chat-completions stub for the review-chain-http workload.

    python3 stub.py REPLIES.json

REPLIES.json is a list of {"expect": ..., "reply": ...}.  Request i of an
operation must carry ``expect`` in its last message; it is answered with
``reply`` in the OpenAI chat-completions shape.  The stub speaks HTTP/1.1
with keep-alive and Content-Length, sends each response in one write with
Nagle off (a header write followed by a body write stalls a reused
connection on the delayed ACK), and imports no agwf code, so its own cost
does not move with the program's.

Control requests, on connections of their own:
  POST /control/reset   start the next operation at reply 0, zero the counts
  GET  /control/stats   connections, requests, request bytes, mismatches
  POST /control/stop    exit

The port it listens on is printed as the first line of standard output.
"""

from __future__ import annotations

import json
import socket
import sys
import threading


class Stub:
    def __init__(self, calls: list[dict]):
        self.calls = calls
        self.lock = threading.Lock()
        self.stopping = threading.Event()
        self.reset()

    def reset(self) -> None:
        self.index = 0
        self.stats = {"connections": 0, "requests": 0, "request_bytes": 0, "mismatches": 0}

    def chat(self, body: bytes) -> tuple[int, dict]:
        try:
            prompt = json.loads(body)["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            prompt = ""
        with self.lock:
            if self.index >= len(self.calls) or self.calls[self.index]["expect"] not in prompt:
                self.stats["mismatches"] += 1
                return 400, {"error": {"message": f"unexpected request {self.index}"}}
            reply = self.calls[self.index]["reply"]
            self.index += 1
        return 200, {
            "object": "chat.completion",
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": reply}}],
            "usage": {"prompt_tokens": len(prompt) // 4, "completion_tokens": len(reply) // 4},
        }

    def control(self, method: str, path: str) -> tuple[int, dict]:
        with self.lock:
            if method == "POST" and path == "/control/reset":
                self.reset()
            elif method == "POST" and path == "/control/stop":
                self.stopping.set()
            elif not (method == "GET" and path == "/control/stats"):
                return 404, {"error": {"message": f"no route {method} {path}"}}
            return 200, dict(self.stats)

    def serve(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        counted = False
        with conn, conn.makefile("rb") as stream:
            while True:
                request_line = stream.readline()
                if not request_line.strip():
                    return
                size = len(request_line)
                headers = {}
                while True:
                    line = stream.readline()
                    size += len(line)
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                body = stream.read(int(headers.get("content-length", "0")))
                method, path = request_line.decode("latin-1").split()[:2]
                if path.startswith("/control/"):
                    status, payload = self.control(method, path)
                else:
                    status, payload = self.chat(body)
                    with self.lock:
                        self.stats["requests"] += 1
                        self.stats["request_bytes"] += size + len(body)
                        if not counted:
                            self.stats["connections"] += 1
                            counted = True
                data = json.dumps(payload).encode()
                reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}[status]
                conn.sendall(
                    f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\nConnection: keep-alive\r\n\r\n".encode()
                    + data)
                if self.stopping.is_set() or headers.get("connection", "").lower() == "close":
                    return


def main() -> int:
    with open(sys.argv[1]) as handle:
        stub = Stub(json.load(handle))
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    print(listener.getsockname()[1], flush=True)
    with listener:
        while not stub.stopping.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(None)
            threading.Thread(target=stub.serve, args=(conn,), daemon=True).start()
    return 0


if __name__ == "__main__":
    sys.exit(main())
