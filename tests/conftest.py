"""Shared test plumbing: scripted HTTP stubs and catalog builders."""

from __future__ import annotations

# One line per acceptance criterion, echoed after the run summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

import json
import random
import socket
import string
import sys
import threading
from collections import deque
from dataclasses import dataclass
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, NamedTuple

import pytest

# A launchable personal service for tests: takes the port as its last
# argument and answers every request with 200 and an X-Echo header.
ECHO_SERVICE_SCRIPT = """\
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

class H(BaseHTTPRequestHandler):
    def log_message(self, *a):
        pass

    def _go(self):
        body = b"echo\\n"
        self.send_response_only(200)
        self.send_header("X-Echo", self.path)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    do_GET = do_POST = do_HEAD = _go

HTTPServer(("127.0.0.1", int(sys.argv[-1])), H).serve_forever()
"""


def echo_service_cmd() -> list[str]:
    return [sys.executable, "-c", ECHO_SERVICE_SCRIPT]


def write_descriptor(
    directory: Path,
    stem: str,
    presentation: dict[str, Any],
    *,
    cmd: list[str] | None = None,
    url: str | None = None,
    workdir: str | None = None,
) -> Path:
    configuration: dict[str, Any] = {}
    if cmd is not None:
        configuration["cmd"] = cmd
    if url is not None:
        configuration["url"] = url
    if workdir is not None:
        configuration["dir"] = workdir
    path = directory / f"{stem}.psd"
    path.write_text(
        json.dumps({"configuration": configuration, "presentation": presentation}),
        "utf-8",
    )
    return path


def write_echo_descriptor(directory: Path, stem: str, presentation: dict[str, Any]) -> Path:
    return write_descriptor(
        directory, stem, presentation, cmd=echo_service_cmd(), workdir=str(directory)
    )


# The parties that serve until a signal, as `psvc` arguments; {ps_dir} is the per-user dir.
CLI_PARTIES = {
    "broker": ["broker", "run", "--ps-dir", "{ps_dir}"],
    "proxy": ["proxy", "run", "--listen", "127.0.0.1:0", "--ps-dir", "{ps_dir}"],
    "sp": ["demo", "sp", "--listen", "127.0.0.1:0"],
}


# -- scripted HTTP stub -------------------------------------------------------


@dataclass(frozen=True)
class Recorded:
    """One request as the stub saw it."""

    method: str
    path: str
    headers: tuple[tuple[str, str], ...]
    body: bytes

    def header(self, name: str) -> str | None:
        low = name.lower()
        for key, value in self.headers:
            if key.lower() == low:
                return value
        return None

    def header_values(self, name: str) -> list[str]:
        low = name.lower()
        return [value for key, value in self.headers if key.lower() == low]


@dataclass(frozen=True)
class Scripted:
    """One response for the stub to play."""

    status: int
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes = b""
    reason: str | None = None


Responder = Callable[[Recorded], Scripted]


class StubServer:
    """Plays queued (or computed) responses and records every request."""

    def __init__(self) -> None:
        self.requests: list[Recorded] = []
        self._script: deque[Scripted | Responder] = deque()
        self.default: Scripted | Responder = Scripted(200, (), b"ok\n")
        self._lock = threading.Lock()
        outer = self

        class _H(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *a) -> None:
                pass

            def _play(self) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                recorded = Recorded(
                    method=self.command,
                    path=self.path,
                    headers=tuple(self.headers.items()),
                    body=self.rfile.read(length) if length else b"",
                )
                with outer._lock:
                    outer.requests.append(recorded)
                    item = outer._script.popleft() if outer._script else outer.default
                scripted = item(recorded) if callable(item) else item
                self.send_response_only(scripted.status, scripted.reason)
                for key, value in scripted.headers:
                    self.send_header(key, value)
                self.send_header("Content-Length", str(len(scripted.body)))
                self.send_header("Connection", "close")
                self.end_headers()
                if scripted.body and self.command != "HEAD":
                    self.wfile.write(scripted.body)

            do_GET = do_POST = do_HEAD = do_PUT = do_DELETE = _play

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _H)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self.netloc = f"127.0.0.1:{self.port}"
        threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05), daemon=True
        ).start()

    def url(self, path: str = "/") -> str:
        return f"http://{self.netloc}{path}"

    def enqueue(self, *items: Scripted | Responder) -> None:
        self._script.extend(items)

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def stub():
    """Factory for scripted HTTP endpoints, torn down afterwards."""
    made: list[StubServer] = []

    def make() -> StubServer:
        server = StubServer()
        made.append(server)
        return server

    yield make
    for server in made:
        server.shutdown()


def http_exchange(
    netloc: str,
    method: str,
    target: str,
    headers: list[tuple[str, str]] | None = None,
    body: bytes = b"",
    timeout: float = 10.0,
) -> tuple[int, list[tuple[str, str]], bytes]:
    """Raw exchange; `target` may be absolute (proxy-style) or a path."""
    host, _, port = netloc.rpartition(":")
    conn = HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.putrequest(method, target, skip_host=True, skip_accept_encoding=True)
        sent_host = False
        for key, value in headers or []:
            conn.putheader(key, value)
            sent_host = sent_host or key.lower() == "host"
        if not sent_host:
            conn.putheader("Host", netloc)
        if body or method not in ("GET", "HEAD"):
            conn.putheader("Content-Length", str(len(body)))
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        payload = b"" if method == "HEAD" else resp.read()
        return resp.status, [(k, v) for k, v in resp.getheaders()], payload
    finally:
        conn.close()


def chunked_post(netloc: str, target: str, body: bytes, timeout: float = 10.0) -> tuple[int, bytes]:
    """POST `body` as one chunk with Transfer-Encoding: chunked, no Content-Length."""
    host, _, port = netloc.rpartition(":")
    conn = HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request("POST", target, body=iter([body]), encode_chunked=True)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class _CountedListener:
    """A listening socket that records the client address of each accept."""

    def __init__(self, sock: socket.socket, accepts: list[tuple[str, int]]):
        self._sock = sock
        self._accepts = accepts

    def accept(self):
        conn, address = self._sock.accept()
        self._accepts.append(address)
        return conn, address

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


def count_accepts(server) -> list[tuple[str, int]]:
    """The client address of every connection a kit.ServiceServer accepts from now on.

    Call it before the server starts.
    """
    accepts: list[tuple[str, int]] = []
    server._sock = _CountedListener(server._sock, accepts)
    return accepts


def header_value(headers: list[tuple[str, str]], name: str) -> str | None:
    low = name.lower()
    for key, value in headers:
        if key.lower() == low:
            return value
    return None


class Reply313(NamedTuple):
    """What one broker 313 carries to the proxy."""

    location: str | None
    service: str | None  # PSvc-Service
    error: str | None  # PSvc-Error


def read_313(response) -> Reply313:
    """The fields of a broker reply, a KitResponse from ``psvc.broker.core``."""
    assert response.status == 313
    names = ("Location", "PSvc-Service", "PSvc-Error")
    return Reply313(*(header_value(response.headers, name) for name in names))


# -- random JSON material -----------------------------------------------------


def random_scalar(rng: random.Random) -> Any:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([True, False])
    if kind == 1:
        return rng.randint(-1000, 1000)
    if kind == 2:
        return round(rng.uniform(-10, 10), 3)
    if kind == 3:
        return None
    return "".join(rng.choice(string.ascii_letters + "çãéü ") for _ in range(rng.randint(1, 10)))


def random_json_value(rng: random.Random, depth: int = 2) -> Any:
    if depth <= 0 or rng.random() < 0.6:
        return random_scalar(rng)
    if rng.random() < 0.5:
        return [random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return {
        f"k{i}": random_json_value(rng, depth - 1) for i in range(rng.randint(0, 3))
    }


def random_attribute_name(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(1, 8)))


def random_presentation(rng: random.Random, max_attrs: int = 6) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for _ in range(rng.randint(1, max_attrs)):
        out[random_attribute_name(rng)] = random_json_value(rng)
    return out
