"""Building blocks for writing a personal service, and the HTTP scaffold.

A personal service is an ordinary loopback HTTP server whose listening
port arrives as the final command-line argument (the broker allocates
it at launch).  The kit turns that convention into a context, spots
proxy-built invocation requests, and renders the page that hands
results back to the SP via an auto-submitting POST form.  Its
one-handler-function server is also what broker, proxy and demo SP
serve on.
"""

from __future__ import annotations

import html
import logging
import os
import tempfile
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence
from urllib.parse import parse_qs, urlsplit

from .protocol import H_INVOCATION, REASON_PHRASES

log = logging.getLogger(__name__)


class BootstrapError(ValueError):
    """The launch convention was not honored; the service must not start."""


@dataclass(frozen=True)
class ServiceContext:
    """Where this service instance must listen."""

    port: int
    bind_address: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if not self.bind_address.startswith("127."):
            raise BootstrapError("personal services bind loopback addresses only")
        if not 0 < self.port < 65536:
            raise BootstrapError(f"port {self.port} out of range")


def bootstrap(argv: Sequence[str]) -> ServiceContext:
    """Read the broker-assigned port from the end of argv."""
    if not argv:
        raise BootstrapError("no arguments: expected the listening port last")
    last = argv[-1]
    try:
        port = int(last)
    except ValueError:
        raise BootstrapError(f"last argument {last!r} is not a port number") from None
    return ServiceContext(port=port)


def write_port_file(path: Path | str, port: int) -> Path:
    """Publish a listening port; write-then-rename, so a reader never sees half."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        os.write(fd, str(port).encode("ascii"))
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return path


def detect_psvc_invocation(headers: Mapping[str, str]) -> bool:
    """True when a request was built by a redirection-aware proxy.

    Such requests carry both a Referer naming the SP and the
    proxy-added invocation marker.
    """
    lowered = {k.lower(): v for k, v in headers.items()}
    return bool(lowered.get("referer")) and lowered.get(H_INVOCATION.lower()) == "1"


_AUTO_FORM = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{title}</title></head>
<body onload="document.forms[0].submit()">
<p>{message}</p>
<form method="POST" action="{action}" data-autosubmit="1">
{inputs}
<noscript><button type="submit">Continue</button></noscript>
</form>
</body></html>
"""


def sp_return_page(
    fields: Mapping[str, str],
    sp_callback: str,
    *,
    title: str = "Returning to the service provider",
    message: str = "Handing the result back...",
) -> bytes:
    """HTML that auto-POSTs the given fields to the SP.

    With an empty callback there is nowhere to return to, so a plain
    terminal page is produced instead.
    """
    if not sp_callback:
        return (
            "<!DOCTYPE html><html><body><p>"
            + html.escape(message)
            + "</p></body></html>"
        ).encode("utf-8")
    inputs = "\n".join(
        f'<input type="hidden" name="{html.escape(k, quote=True)}" '
        f'value="{html.escape(str(v), quote=True)}">'
        for k, v in fields.items()
    )
    page = _AUTO_FORM.format(
        title=html.escape(title),
        message=html.escape(message),
        action=html.escape(sp_callback, quote=True),
        inputs=inputs,
    )
    return page.encode("utf-8")


def header_value(headers: Iterable[tuple[str, str]], name: str) -> str | None:
    """The first value of a header, its name compared without case."""
    low = name.lower()
    for key, value in headers:
        if key.lower() == low:
            return value
    return None


@dataclass(frozen=True)
class KitRequest:
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


@dataclass(frozen=True)
class KitResponse:
    status: int = 200
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes = b""
    reason: str | None = None  # None: the PSvc phrase for 31x, else the standard one

    @classmethod
    def html(cls, markup: bytes | str, status: int = 200) -> "KitResponse":
        body = markup.encode("utf-8") if isinstance(markup, str) else markup
        return cls(status, (("Content-Type", "text/html; charset=utf-8"),), body)

    @classmethod
    def text(cls, message: str, status: int = 200) -> "KitResponse":
        return cls(
            status,
            (("Content-Type", "text/plain; charset=utf-8"),),
            message.encode("utf-8"),
        )


class ServiceServer:
    """HTTP server driven by one handler function; every psvc party runs on it.

    It binds in the constructor, so the port is known (and can be
    published) before serving starts.  Every request method reaches the
    handler, and each response goes out with Content-Length and
    ``Connection: close`` once the handler returns, so an event the
    handler logs precedes the bytes.  A request whose Content-Length is
    not a decimal count gets a 400 without reaching the handler.
    """

    def __init__(self, address: tuple[str, int], handler: Callable[[KitRequest], KitResponse]):
        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt: str, *args) -> None:
                log.debug("%s %s", self.address_string(), fmt % args)

            def _send(self, response: KitResponse) -> None:
                status = response.status
                self.send_response_only(status, response.reason or REASON_PHRASES.get(status))
                for key, value in response.headers:
                    self.send_header(key, value)
                self.send_header("Content-Length", str(len(response.body)))
                self.send_header("Connection", "close")
                self.end_headers()
                if response.body and self.command != "HEAD":
                    self.wfile.write(response.body)

            def _run(self) -> None:
                text = (self.headers.get("Content-Length") or "0").strip()
                if not (text.isascii() and text.isdigit()):
                    self._send(KitResponse.text("malformed Content-Length\n", 400))
                    return
                length = int(text)
                parts = urlsplit(self.path)
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

        self._httpd = ThreadingHTTPServer(address, _Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

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
        if self._thread is not None:
            self._thread.join(timeout=5)
