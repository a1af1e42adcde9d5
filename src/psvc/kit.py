"""Building blocks for writing a personal service, and the HTTP scaffold.

A personal service is an ordinary loopback HTTP server whose listening
port arrives as the final command-line argument (the broker allocates
it at launch).  The kit reads that port from argv, spots proxy-built
invocations, renders every party's HTML pages (among them the one that
hands results back to the SP via an auto-submitting POST form) and
bounds the parties' per-user tables.  Its one-handler-function server is
also what broker, proxy and demo SP serve on, and it logs every request
it serves to the transcript.

A spawned service imports this module and little else, so it holds the
wire constants a service needs (``psvc.protocol`` re-exports them).  It
also holds the broker endpoint-file reader, ``allocate_port`` and
``stop_process``, which the proxy and the scenarios use without loading
the broker package.
"""

from __future__ import annotations

import html
import logging
import os
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from socketserver import TCPServer
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import parse_qs, urlsplit

from .transcript import SERVE, Transcript

if TYPE_CHECKING:
    import subprocess

log = logging.getLogger(__name__)

YELLOW_PAGES = 310
WHITE_PAGES = 311
SERVICE_CALL = 312
BROKER_RESULT = 313

REASON_PHRASES = {
    YELLOW_PAGES: "Yellow Pages Call",
    WHITE_PAGES: "White Pages Call",
    SERVICE_CALL: "Personal Service Call",
    BROKER_RESULT: "Broker Result",
}

H_ERROR = "PSvc-Error"
# Marker added to the request a proxy builds when invoking a service.
H_INVOCATION = "PSvc-Invocation"

# The broker publishes its port in this file of the per-user directory.
ENDPOINT_FILE = "broker.ept"
ENDPOINT_HOST = "127.0.0.1"

STOP_TIMEOUT_S = 5.0  # stop_process kills a child still running after this


class BootstrapError(ValueError):
    """The launch convention was not honored; the service must not start."""


def bootstrap(argv: Sequence[str]) -> int:
    """Read the broker-assigned port from the end of argv."""
    if not argv:
        raise BootstrapError("no arguments: expected the listening port last")
    last = argv[-1]
    try:
        port = int(last)
    except ValueError:
        raise BootstrapError(f"last argument {last!r} is not a port number") from None
    if not 0 < port < 65536:
        raise BootstrapError(f"port {port} out of range")
    return port


def write_port_file(path: Path | str, port: int) -> Path:
    """Publish a listening port; write-then-rename, so a reader never sees half."""
    import tempfile  # the broker, proxy and SP publish ports; services do not

    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        os.write(fd, str(port).encode("ascii"))
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return path


class EndpointFileError(ValueError):
    """broker.ept missing or not a decimal port."""


def read_endpoint_file(ps_dir: Path | str) -> tuple[str, int]:
    """Read the published broker endpoint: (host, port)."""
    path = Path(ps_dir) / ENDPOINT_FILE
    try:
        text = path.read_text("ascii").strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise EndpointFileError(f"cannot read {path}: {exc}") from None
    if not text.isdigit():
        raise EndpointFileError(f"{path} does not hold a decimal port")
    port = int(text)
    if not 0 < port < 65536:
        raise EndpointFileError(f"{path} holds an out-of-range port {port}")
    return ENDPOINT_HOST, port


def allocate_port() -> int:
    """Reserve a currently-free loopback port and release it.

    Best effort: the child must bind it before anything else does.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def stop_process(proc: subprocess.Popen) -> None:
    """Terminate a child politely, kill it if it lingers, and reap it."""
    import subprocess  # only parties that start children get here

    if proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def detect_psvc_invocation(headers: Sequence[tuple[str, str]]) -> bool:
    """True when a request was built by a redirection-aware proxy.

    Such a request carries both a Referer naming the SP and the
    proxy-added invocation marker.
    """
    return bool(header_value(headers, "Referer")) and header_value(headers, H_INVOCATION) == "1"


def html_page(title: str, body: str, onload: str = "") -> bytes:
    """A whole HTML document in UTF-8: `title` is escaped, `body` is markup as given."""
    handler = f' onload="{onload}"' if onload else ""
    return (
        f'<!DOCTYPE html>\n<html><head><meta charset="utf-8"><title>{html.escape(title)}'
        f"</title></head>\n<body{handler}>\n{body}</body></html>\n"
    ).encode("utf-8")


def sp_return_page(
    fields: Mapping[str, str],
    sp_callback: str,
    *,
    title: str = "Returning to the service provider",
    message: str = "Handing the result back...",
) -> bytes:
    """HTML that auto-POSTs the given fields to the SP.

    The action must be absolute: the page reaches the browser as the
    response to an SP URL.  With an empty callback there is nowhere to
    return to, so a plain terminal page is produced instead.
    """
    paragraph = f"<p>{html.escape(message)}</p>\n"
    if not sp_callback:
        return html_page(title, paragraph)
    inputs = "".join(
        f'<input type="hidden" name="{html.escape(k, quote=True)}" '
        f'value="{html.escape(str(v), quote=True)}">\n'
        for k, v in fields.items()
    )
    form = (
        f'<form method="POST" action="{html.escape(sp_callback, quote=True)}" '
        f'data-autosubmit="1">\n{inputs}'
        '<noscript><button type="submit">Continue</button></noscript>\n</form>\n'
    )
    return html_page(title, paragraph + form, onload="document.forms[0].submit()")


def header_value(headers: Iterable[tuple[str, str]], name: str) -> str | None:
    """The first value of a header, its name compared without case."""
    low = name.lower()
    for key, value in headers:
        if key.lower() == low:
            return value
    return None


# A party's per-user table (sign-ins, cookies, dialogs) holds at most this many entries.
MAX_TABLE_ENTRIES = 4096


def put_bounded(table: dict, key: str, value: Any) -> None:
    """Insert, then drop the oldest entry past MAX_TABLE_ENTRIES."""
    table[key] = value
    if len(table) > MAX_TABLE_ENTRIES:
        del table[next(iter(table))]


class KitRequest(NamedTuple):
    method: str
    target: str  # the request line's target, as sent
    path: str
    query: dict[str, str]
    headers: tuple[tuple[str, str], ...]
    body: bytes

    def form(self) -> dict[str, str]:
        """Decode an application/x-www-form-urlencoded body."""
        parsed = parse_qs(self.body.decode("utf-8", "replace"), keep_blank_values=True)
        return {k: v[0] for k, v in parsed.items()}


class KitResponse(NamedTuple):
    status: int = 200
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes = b""
    reason: str | None = None  # None: the PSvc phrase for 31x, else the standard one
    note: Mapping[str, Any] = MappingProxyType({})  # extra fields of its SERVE event

    @classmethod
    def html(cls, markup: bytes | str, status: int = 200, **note: Any) -> "KitResponse":
        body = markup.encode("utf-8") if isinstance(markup, str) else markup
        return cls(status, (("Content-Type", "text/html; charset=utf-8"),), body, note=note)

    @classmethod
    def text(cls, message: str, status: int = 200, **note: Any) -> "KitResponse":
        return cls(
            status,
            (("Content-Type", "text/plain; charset=utf-8"),),
            message.encode("utf-8"),
            note=note,
        )


# Bounds on kept-alive connections; each open connection holds a thread.
KEEPALIVE_IDLE_S = 5.0  # an idle connection is closed after this long
KEEPALIVE_MAX = 32  # past this many open connections, replies carry Connection: close
MAX_BODY_BYTES = 8 << 20  # over it: a request body gets a 413, an upstream reply a 502
LINGER_S = 1.0  # how long a refused request's unread body is drained


class _Listener(ThreadingHTTPServer):
    # The default backlog of 5 holds fewer connections than a burst of
    # concurrent flows opens, and a dropped SYN costs a 1 s retransmit.
    request_queue_size = 64
    daemon_threads = True

    def __init__(self, address, handler_class) -> None:
        self.open: set[socket.socket] = set()
        self.open_lock = threading.Lock()
        super().__init__(address, handler_class)

    def server_bind(self) -> None:
        # HTTPServer's own resolves the host's FQDN, which costs an idna
        # import and a reverse lookup; only CGI handlers read server_name.
        TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]

    def process_request(self, request, client_address) -> None:
        with self.open_lock:
            self.open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self.open_lock:
            self.open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A client may reset a kept connection at any time; that ends it.
        exc = sys.exc_info()[1]
        if isinstance(exc, ConnectionError):
            log.debug("%s went away: %s", client_address, exc)
        else:
            super().handle_error(request, client_address)

    def close_open(self) -> None:
        """End every accepted connection; a handler waiting on one reads EOF."""
        with self.open_lock:
            kept = list(self.open)
        for sock in kept:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its peer or its handler


class ServiceServer:
    """HTTP/1.1 server driven by one handler function; every psvc party runs on it.

    It binds in the constructor, so the port is known (and can be
    published) before serving starts.  Every request method reaches the
    handler, and each response goes out with Content-Length once the
    handler returns.  A handler's response whose header names or values
    hold CR, LF or NUL would split its header block, so it goes out as a
    500 instead.  Every response, the refusals below included, is
    logged as one SERVE event of ``actor`` before its bytes leave: a
    peer reacts the moment it has them, and transcript order must follow
    causality.  The party's own events go to ``self.transcript`` too.
    Status line, headers and body are buffered and sent in one write
    (two for a response over the 8 KiB buffer).

    Connections stay open for another request unless the client asks
    for ``close``.  An idle connection is closed after
    ``KEEPALIVE_IDLE_S``, and past ``KEEPALIVE_MAX`` open connections a
    reply carries ``Connection: close``.  ``shutdown()`` ends the kept
    connections too, so no handler thread serves on after it.

    A request whose Content-Length is not a decimal count gets a 400,
    one with a Transfer-Encoding a 411, and one whose body is over
    ``MAX_BODY_BYTES`` a 413, without reaching the handler: the body is
    read by Content-Length only, and a framed body must not reach the
    handler as empty.  These replies close the connection, so the
    unread body is never parsed as the next request.
    """

    def __init__(
        self, address: tuple[str, int], handler: Callable[[KitRequest], KitResponse], actor: str
    ):
        self.transcript = transcript = Transcript.from_env(actor)

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = KEEPALIVE_IDLE_S
            # Buffered: a response leaves in one write when the request is
            # done (handle_one_request flushes), headers and body together.
            wbufsize = -1
            # A response over the buffer takes two writes; with Nagle on, a
            # kept connection stalls the second until the peer's delayed ACK.
            disable_nagle_algorithm = True

            def log_message(self, fmt: str, *args) -> None:
                log.debug("%s %s", self.address_string(), fmt % args)

            def handle_expect_100(self) -> bool:
                super().handle_expect_100()
                self.wfile.flush()  # the client waits for it before its body
                return True

            def _send(self, response: KitResponse) -> None:
                if any(c in k or c in v for k, v in response.headers for c in "\r\n\0"):
                    log.warning("%s %s: a header breaks its line", self.command, self.path)
                    response = KitResponse.text("response header breaks its line\n", 500)
                status = response.status
                transcript.emit(SERVE, self.command, self.path, status,
                                in_err=self.headers.get(H_ERROR), **response.note)
                self.send_response_only(status, response.reason or REASON_PHRASES.get(status))
                for key, value in response.headers:
                    self.send_header(key, value)
                self.send_header("Content-Length", str(len(response.body)))
                if self.close_connection or len(self.server.open) > KEEPALIVE_MAX:
                    self.send_header("Connection", "close")  # also ends the loop
                self.end_headers()
                if response.body and self.command != "HEAD":
                    self.wfile.write(response.body)

            def _refuse(self, message: str, status: int) -> None:
                self.close_connection = True  # the body is left unread
                self._send(KitResponse.text(message, status))
                self.wfile.flush()
                # Closing on unread bytes resets the connection, and a client
                # still sending its body would lose the reply: send EOF, then
                # read and drop what arrives for a moment.
                self.request.shutdown(socket.SHUT_WR)
                self.request.settimeout(LINGER_S)
                deadline = time.monotonic() + LINGER_S
                try:
                    while time.monotonic() < deadline and self.rfile.read1(65536):
                        pass
                except OSError:
                    pass  # timed out or reset: either way the client is done

            def _run(self) -> None:
                if "Transfer-Encoding" in self.headers:
                    self._refuse("request body needs a Content-Length\n", 411)
                    return
                text = (self.headers.get("Content-Length") or "0").strip()
                if not (text.isascii() and text.isdigit()):
                    self._refuse("malformed Content-Length\n", 400)
                    return
                length = int(text)
                if length > MAX_BODY_BYTES:
                    self._refuse(f"request body over {MAX_BODY_BYTES} bytes\n", 413)
                    return
                try:
                    parts = urlsplit(self.path)
                except ValueError:  # an unbalanced IPv6 bracket
                    self._refuse("malformed request target\n", 400)
                    return
                request = KitRequest(
                    method=self.command,
                    target=self.path,
                    path=parts.path,
                    query={k: v[0] for k, v in parse_qs(parts.query).items()},
                    headers=tuple(self.headers.items()),
                    body=self.rfile.read(length) if length else b"",
                )
                self._send(handler(request))

            do_GET = do_POST = do_HEAD = do_PUT = do_DELETE = _run
            do_OPTIONS = do_PATCH = do_CONNECT = _run

        self._httpd = _Listener(address, _Handler)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def netloc(self) -> str:
        """host:port as bound, the form Referer, Host and the transcript use."""
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> None:
        """Serve in a background thread."""
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.1), daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_open()
        if self._thread is not None:
            self._thread.join(timeout=5)
