"""Building blocks for writing a personal service, and the HTTP scaffold.

A personal service is an ordinary loopback HTTP server whose listening
port arrives as the final command-line argument (the broker allocates
it at launch).  The kit reads that port from argv, spots proxy-built
invocations, renders every party's HTML pages (among them the one that
hands results back to the SP via an auto-submitting POST form) and
bounds the parties' per-user tables.  Every party serves on its
one-handler-function server, which logs every request to the transcript,
and runs as a process by ``serve``, which says in one line why one cannot start.

A spawned service imports this module and little else, so it holds the
wire constants a service needs (``psvc.protocol`` re-exports them).  It
also holds the port-file readers (``read_port_file`` and, on it, the
broker's ``read_endpoint_file``), ``allocate_port`` and the one launcher:
``launch`` starts a child, ``wait_until`` awaits it, ``stop_process``
stops it.  The broker, the proxy and the scenarios start every child
with these, and the proxy and the scenarios never load the broker package.
"""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import sys
import threading
import time
from contextlib import suppress
from functools import partialmethod
from http import HTTPStatus
from itertools import takewhile
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import parse_qs, urlsplit

from .transcript import SERVE, Transcript

if TYPE_CHECKING:
    import subprocess

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
MAX_ENDPOINT_BYTES = 8  # a port is at most 5 digits, and a hand-written file may end a line
LOOPBACK = "127.0.0.1"  # the broker and its services listen here; broker.ept names only a port

STOP_TIMEOUT_S = 5.0  # stop_process kills a child still running after this
STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)  # serve() serves until one, by default
LAUNCH_POLL_S = 0.02  # how often wait_until asks whether a launched child is ready


class StartError(ValueError):
    """A party refuses to start as asked; serve() prints why in one line and returns 2."""


class BootstrapError(StartError):
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
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    except OSError as exc:  # it names the temporary file
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with open(fd, "wb") as fh:
            fh.write(str(port).encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def read_port_file(path: Path | str) -> int | None:
    """The port a file publishes, from one read of at most MAX_ENDPOINT_BYTES + 1
    bytes that never waits, as a FIFO would make it; None for a file that is
    missing, unreadable, over the bound or not a port."""
    from .registry import read_bounded  # the one bounded reader; services never get here

    try:
        data = read_bounded(path, MAX_ENDPOINT_BYTES + 1)
        text = data.decode("ascii").strip()
    except (OSError, UnicodeDecodeError):
        return None
    port = int(text) if text.isdigit() else 0
    return port if len(data) <= MAX_ENDPOINT_BYTES and 0 < port < 65536 else None


def read_endpoint_file(ps_dir: Path | str) -> tuple[str, int] | None:
    """The published broker endpoint, (host, port); None without a usable broker.ept."""
    port = read_port_file(Path(ps_dir) / ENDPOINT_FILE)
    return None if port is None else (LOOPBACK, port)


def allocate_port() -> int:
    """Reserve a currently-free loopback port and release it.

    Best effort: the child must bind it before anything else does.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((LOOPBACK, 0))
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


def launch(cmd: Sequence[str], workdir: Path, name: str, **popen: Any) -> subprocess.Popen:
    """Start `cmd` in `workdir`, its stdin, stdout and stderr on DEVNULL unless `popen`
    names others; a Refusal if `workdir` is missing or `cmd` cannot be run."""
    import subprocess  # only parties that start children get here

    if not workdir.is_dir():
        raise Refusal(502, f"working directory {workdir} does not exist")
    streams = dict.fromkeys(("stdin", "stdout", "stderr"), subprocess.DEVNULL)
    try:
        return subprocess.Popen(cmd, cwd=workdir, **(streams | popen))
    except OSError as exc:
        raise Refusal(502, f"cannot launch {name}: {exc}") from None


def wait_until(
    proc: subprocess.Popen, ready: Callable[[], Any], deadline: float, exited: str, late: str
) -> Any:
    """The first true value ready() gives, asked every LAUNCH_POLL_S.  If `proc` exits
    first, a Refusal with reason `exited % status`; at `deadline` (time.monotonic()),
    `proc` is stopped and the Refusal's reason is `late`."""
    while proc.poll() is None:
        if found := ready():
            return found
        if time.monotonic() >= deadline:
            stop_process(proc)
            raise Refusal(502, late)
        time.sleep(LAUNCH_POLL_S)
    raise Refusal(502, exited % proc.returncode)


def detect_psvc_invocation(headers: Sequence[tuple[str, str]]) -> bool:
    """True when a request was built by a redirection-aware proxy.

    Such a request carries both a Referer naming the SP and the
    proxy-added invocation marker.
    """
    return bool(header_value(headers, "Referer")) and header_value(headers, H_INVOCATION) == "1"


def escape(text: str) -> str:
    """`text` as html.escape(text, quote=True) gives it, without loading html's entity table."""
    # Five replaces, `&` first: a str.translate table takes ten times as long on a listed name.
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;").replace("'", "&#x27;")
    )


def html_page(title: str, body: str, onload: str = "") -> bytes:
    """A whole HTML document in UTF-8: `title` is escaped, `body` is markup as given."""
    handler = f' onload="{onload}"' if onload else ""
    return (
        f'<!DOCTYPE html>\n<html><head><meta charset="utf-8"><title>{escape(title)}'
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
    paragraph = f"<p>{escape(message)}</p>\n"
    if not sp_callback:
        return html_page(title, paragraph)
    inputs = "".join(
        f'<input type="hidden" name="{escape(k)}" value="{escape(str(v))}">\n'
        for k, v in fields.items()
    )
    form = (
        f'<form method="POST" action="{escape(sp_callback)}" '
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


def field_tokens(headers: Iterable[tuple[str, str]], name: str) -> list[str]:
    """The comma-separated tokens of every `name` field, lowercased (``Connection``, say)."""
    low = name.lower()
    tokens = (t.strip().lower() for k, v in headers if k.lower() == low for t in v.split(","))
    return [t for t in tokens if t]


# A party's per-user table (sign-ins, cookies, dialogs) holds at most this many entries.
MAX_TABLE_ENTRIES = 4096


def put_bounded(table: dict, key: Any, value: Any, limit: int | None = None) -> Any:
    """Insert; past `limit` (MAX_TABLE_ENTRIES by default) drop the oldest key and return it."""
    table[key] = value
    if len(table) <= (MAX_TABLE_ENTRIES if limit is None else limit):
        return None
    del table[oldest := next(iter(table))]
    return oldest


def drop_stale(table: dict, stale: Callable[[Any], bool]) -> list:
    """Delete the oldest entries while `stale(value)` holds; return their keys.  Each owner stamps
    an entry under its own lock as it inserts it, so its table ages in insertion order."""
    dropped = list(takewhile(lambda key: stale(table[key]), table))
    for key in dropped:
        del table[key]
    return dropped


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


# Bounds on connections and workers.  Idle kept connections wait in one
# epoll set and hold no thread; a request runs on one of the workers.
KEEPALIVE_IDLE_S = 5.0  # an idle connection is closed after this long
KEEPALIVE_MAX = 32  # workers at most; past this many connections, replies carry Connection: close
MAX_BODY_BYTES = 8 << 20  # over it: a request body gets a 413, an upstream reply a 502
LINGER_S = 1.0  # how long a refused request's unread body is drained
MAX_LINE = 65536  # bytes in a start line or a field line, CRLF included
MAX_FIELDS = 100  # field lines in one head

TOKEN = re.compile(rb"[-!#$%&'*+.^_`|~0-9A-Za-z]+")  # RFC 9110 §5.6.2: a method or a field name
REQUEST_LINE = re.compile(rb"(%s) ([\x21-\x7e]+) HTTP/1\.([0-9])\r\n" % TOKEN.pattern)
STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9][0-9]) ([\t\x20-\x7e\x80-\xff]*)\r\n")
_FIELD_VALUE = bytes([9, *range(0x20, 0x7F), *range(0x80, 0x100)])  # HTAB, SP, VCHAR, obs-text
_PHRASES = {**{status.value: status.phrase for status in HTTPStatus}, **REASON_PHRASES}
_ONESHOT = select.EPOLLIN | select.EPOLLONESHOT


class Log:
    """A module's logger that loads `logging` only for a record it keeps.

    Once `logging` is loaded (by -v, a test or an embedding program), every
    record goes to it.  Until then a record below WARNING is dropped, and one
    at WARNING or above loads it, first applying the CLI's `cli_format`.
    """

    cli_format: str | None = None  # the line format psvc.cli asks for without -v

    def __init__(self, name: str):
        self.name = name

    def log(self, level: int, msg: str, *args: Any, exc_info: bool = False) -> None:
        if level < 30 and "logging" not in sys.modules:  # 30: logging.WARNING
            return
        import logging

        if Log.cli_format is not None:
            logging.basicConfig(format=Log.cli_format)
            Log.cli_format = None
        # stacklevel 2: the record names the caller of info(), warning() or exception().
        logging.getLogger(self.name).log(level, msg, *args, exc_info=exc_info, stacklevel=2)

    info, warning = partialmethod(log, 20), partialmethod(log, 30)
    exception = partialmethod(log, 40, exc_info=True)  # with the exception being handled


log = Log(__name__)


class Refusal(Exception):
    """A request that ends in `status` for `reason`.  The server answers a head or body it
    cannot read with one, then closes; the proxy answers a failed step of its chain with one."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status, self.reason = status, reason


class Stream:
    """A connection's incoming bytes, taken a line or a count at a time.

    Every read ends by ``deadline`` (time.monotonic()), or raises
    TimeoutError.  Bytes received beyond those taken wait for the next
    call, such as a pipelined request.
    """

    def __init__(self, sock: socket.socket, timeout: float):
        self._sock = sock
        self.deadline = time.monotonic() + timeout
        self._buf = b""
        self._pos = 0  # where the untaken bytes of _buf start

    def _recv(self, size: int) -> bytes:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("timed out")
        self._sock.settimeout(left)
        return self._sock.recv(size)

    @property
    def idle(self) -> bool:
        """True when every byte received so far was taken."""
        return self._pos == len(self._buf)

    def line(self, too_long: int = 431) -> bytes | None:
        """The next line, LF included, or None at EOF; Refusal(too_long) past MAX_LINE bytes."""
        while (end := self._buf.find(b"\n", self._pos)) < 0:
            if len(self._buf) - self._pos >= MAX_LINE:
                break
            chunk = self._recv(65536)
            if not chunk:
                return None
            self._buf, self._pos = self._buf[self._pos :] + chunk, 0
        if end < 0 or end + 1 - self._pos > MAX_LINE:
            raise Refusal(too_long, "line too long")
        line, self._pos = self._buf[self._pos : end + 1], end + 1
        return line

    def take(self, size: int) -> bytes:
        """The next `size` bytes, fewer only if the peer closes first."""
        data = self._buf[self._pos : self._pos + size]
        self._pos += len(data)
        if len(data) < size:
            data = bytearray(data)
            while len(data) < size and (chunk := self._recv(min(size - len(data), 65536))):
                data += chunk
        return bytes(data)


def read_head(stream: Stream, start_line: re.Pattern = REQUEST_LINE) -> tuple | None:
    """One head read strictly by RFC 9112 §2-§5: a request's, or with STATUS_LINE a reply's.

    Returns (the start line's match, fields), or None if the peer closes
    first.  A Refusal names the status: 414 for a start line over
    MAX_LINE, 431 for a field line over it or past MAX_FIELDS, else 400.
    """
    line = stream.line(414)
    if line is None:
        return None
    start = start_line.fullmatch(line)
    if start is None:
        raise Refusal(400, "malformed start line")
    fields = read_fields(stream)
    return None if fields is None else (start, fields)


def read_fields(stream: Stream) -> tuple[tuple[str, str], ...] | None:
    """Field lines through the empty line that ends them: a head's, or a chunked body's trailers."""
    fields = []
    while (line := stream.line()) != b"\r\n":
        if line is None:
            return None
        field = parse_field(line)
        if field is None:
            raise Refusal(400, "malformed header field")
        if len(fields) == MAX_FIELDS:
            raise Refusal(431, "too many header fields")
        fields.append(field)
    return tuple(fields)


def parse_field(line: bytes) -> tuple[str, str] | None:
    """A field line's (name, value), the value trimmed of SP and HTAB; None if malformed."""
    name, colon, value = line[:-2].partition(b":")
    # Deleting the allowed bytes checks a long value at memory speed, not a regex step per byte.
    if colon and line.endswith(b"\r\n") and TOKEN.fullmatch(name):
        if not value.translate(None, _FIELD_VALUE):
            return name.decode("ascii"), value.decode("latin-1").strip(" \t")
    return None


def content_length(fields: Iterable[tuple[str, str]]) -> int | None:
    """The one Content-Length a head gives, or None; Refusal(400) for several or a malformed one."""
    lengths = [value for key, value in fields if key.lower() == "content-length"]
    if len(lengths) > 1 or lengths and not (lengths[0].isascii() and lengths[0].isdigit()):
        raise Refusal(400, "malformed Content-Length")
    return int(lengths[0]) if lengths else None


def encode_head(lines: Sequence[str]) -> bytes | None:
    """A head's lines as wire bytes; None if one holds CR, LF, NUL or a non-latin-1 character."""
    text = "".join(lines)
    if "\r" in text or "\n" in text or "\0" in text:  # each a memchr, not a regex step per character
        return None
    try:
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    except UnicodeEncodeError:
        return None


def _body_length(fields: tuple[tuple[str, str], ...]) -> int:
    """The length of the request body a head announces (RFC 9112 §6.3), or a Refusal."""
    if header_value(fields, "Transfer-Encoding") is not None:
        raise Refusal(411, "request body needs a Content-Length")
    length = content_length(fields) or 0
    if length > MAX_BODY_BYTES:
        raise Refusal(413, f"request body over {MAX_BODY_BYTES} bytes")
    return length


class ServiceServer:
    """HTTP/1.1 server driven by one handler function; every psvc party runs on it.

    It binds in the constructor, so the port is known (and can be published)
    before serving starts; ``serve()`` then sets the signal handlers, listens
    (``start()``) and only then publishes.  Every method reaches the
    handler, whose response leaves in one write, with Content-Length.  A
    handler that raises, or a response header holding CR, LF or NUL, gets a
    500.  Every response, refusals included, is logged as one SERVE event of
    ``actor`` before its bytes leave, so transcript order follows
    causality.  The party's own events go to ``self.transcript`` too.

    Workers wait together on one epoll set (Linux), where the listener
    and each idle connection are armed for one event; the worker that
    wakes accepts, or serves the connection and re-arms it.  Workers
    start to keep one waiting, up to ``KEEPALIVE_MAX``.  A connection
    closes when the client says ``close`` or speaks HTTP/1.0, and after
    ``KEEPALIVE_IDLE_S`` idle (within twice that); past ``KEEPALIVE_MAX``
    open connections, replies carry ``Connection: close``.  A request's
    head and body together must arrive within ``KEEPALIVE_IDLE_S``.

    Besides ``read_head``'s refusals, Transfer-Encoding gets a 411, a
    Content-Length that is not one decimal count a 400, and a body over
    ``MAX_BODY_BYTES`` a 413: the body is read by Content-Length only.
    A refusal closes the connection, so an unread body is never parsed.
    """

    def __init__(
        self, address: tuple[str, int], handler: Callable[[KitRequest], KitResponse], actor: str
    ):
        self.transcript = Transcript.from_env(actor)
        self._handler = handler
        self._sock = socket.socket()  # bound, not yet listening: a connect is refused
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind(address)
        except OSError as exc:  # it names no address, and a party's one line must
            self._sock.close()
            raise OSError(f"cannot listen on {address[0]}:{address[1]}: {exc}") from None
        self._sock.setblocking(False)
        self.host, self.port = self._sock.getsockname()[:2]
        self.netloc = f"{self.host}:{self.port}"  # the form Referer, Host and the transcript use
        self._wake = os.eventfd(0)  # readable once shutdown() writes it
        self._epoll = select.epoll()
        self._epoll.register(self._wake, select.EPOLLIN)
        self._lock = threading.Lock()
        self._open: dict[int, socket.socket] = {}  # every accepted connection, by fd
        self._idle: dict[int, float] = {}  # fd: since when, of those armed
        self._workers: set[threading.Thread] = set()
        self._waiting = 0  # workers waiting, or on their way back to wait
        self._closed = threading.Event()

    def start(self) -> None:
        """Listen, and serve on worker threads."""
        # The default backlog holds fewer connections than a burst of
        # concurrent flows opens, and a dropped SYN costs a 1 s retransmit.
        self._sock.listen(64)
        self._epoll.register(self._sock, _ONESHOT)
        with self._lock:
            self._spawn()

    def shutdown(self) -> None:
        """Close the listener and every connection, and wait for the workers to end."""
        with self._lock:
            if self._closed.is_set():
                return
            self._closed.set()
            for fd in self._idle:
                self._open.pop(fd).close()
            busy = list(self._open.values())
            workers = self._workers - {threading.current_thread()}
        os.eventfd_write(self._wake, 1)
        for sock in busy:
            with suppress(OSError):  # unless its peer closed it already
                sock.shutdown(socket.SHUT_RDWR)  # its worker reads EOF
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        self._sock.close()
        self._epoll.close()
        os.close(self._wake)

    def _spawn(self) -> None:  # the lock is held
        worker = threading.Thread(target=self._work, daemon=True)
        self._workers.add(worker)
        self._waiting += 1
        worker.start()

    def _work(self) -> None:
        """Wait on the epoll set with the other workers; serve what wakes this one."""
        try:
            while not self._closed.is_set():
                events = self._epoll.poll(KEEPALIVE_IDLE_S, 1)
                fd = events[0][0] if events else -1
                with self._lock:
                    if self._closed.is_set() or not events and self._waiting > 1:
                        return  # shut down, or idle while another worker waits
                    horizon = time.monotonic() - KEEPALIVE_IDLE_S
                    for stale in drop_stale(self._idle, lambda since: since <= horizon):
                        self._open.pop(stale).close()
                    if fd == self._sock.fileno():
                        sock = self._sock
                    elif self._idle.pop(fd, None) is not None:
                        sock = self._open[fd]
                    else:
                        continue  # a timeout, or a connection closed meanwhile
                    self._waiting -= 1
                    if not self._waiting and len(self._workers) < KEEPALIVE_MAX:
                        self._spawn()
                if sock is self._sock:
                    self._accept()
                else:
                    self._answer(fd, sock)
        finally:
            with self._lock:
                self._waiting -= 1
                self._workers.discard(threading.current_thread())

    def _accept(self) -> None:
        try:
            sock = self._sock.accept()[0]
            # A response is one write; it must not wait for the peer's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock = None  # the client gave up before it was accepted
        with self._lock:
            self._waiting += 1
            if not self._closed.is_set():
                self._epoll.modify(self._sock, _ONESHOT)
                if sock is not None:
                    self._open[sock.fileno()] = sock
                    self._idle[sock.fileno()] = time.monotonic()
                    self._epoll.register(sock, _ONESHOT)
                return
        if sock is not None:
            sock.close()

    def _answer(self, fd: int, sock: socket.socket) -> None:
        try:
            keep = self._serve(sock)
        except OSError:
            keep = False  # timed out, reset or gone
        except Exception:
            log.exception("%s: serving a connection failed", self.netloc)
            keep = False
        with self._lock:
            self._waiting += 1
            if keep and not self._closed.is_set():
                self._idle[fd] = time.monotonic()
                self._epoll.modify(fd, _ONESHOT)
                return
            self._open.pop(fd, None)
        sock.close()

    def _serve(self, sock: socket.socket) -> bool:
        """Answer the requests waiting on `sock`; True to keep it for another."""
        stream = Stream(sock, KEEPALIVE_IDLE_S)
        try:
            while True:
                method, target, fields = "", "", ()  # until a head is read
                # One deadline covers a request's head and body, so a client
                # that trickles bytes cannot hold its worker for longer.
                stream.deadline = time.monotonic() + KEEPALIVE_IDLE_S
                head = read_head(stream)
                if head is None:
                    return False
                request, fields = head
                method, target = request[1].decode("ascii"), request[2].decode("ascii")
                http10 = request[3] == b"0"
                length = _body_length(fields)
                if target.startswith("/"):  # origin-form: a leading `//` names no host
                    path, _, raw_query = target.partition("?")
                else:  # absolute-form, as a proxy receives
                    try:
                        parts = urlsplit(target)
                    except ValueError:  # an unbalanced IPv6 bracket
                        raise Refusal(400, "malformed request target") from None
                    path, raw_query = parts.path, parts.query
                if not http10 and (header_value(fields, "Expect") or "").lower() == "100-continue":
                    sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")  # the client waits for it
                body = stream.take(length)
                if len(body) < length:
                    return False
                query = {k: v[0] for k, v in parse_qs(raw_query).items()}
                request = KitRequest(method, target, path, query, fields, body)
                try:
                    response = self._handler(request)
                except Exception:
                    log.exception("%s %s: the handler raised", method, target)
                    response = KitResponse.text("internal error\n", 500)
                close = http10 or "close" in field_tokens(fields, "Connection")
                close = close or len(self._open) > KEEPALIVE_MAX
                self._send(sock, method, target, fields, response, close)
                if close or stream.idle:  # else a pipelined request waits in `stream`
                    return not close
        except Refusal as refusal:
            response = KitResponse.text(refusal.reason + "\n", refusal.status)
            self._send(sock, method, target, fields, response, True)
        # Closing on unread bytes resets the connection, and a client still
        # sending its body would lose the reply: send EOF, then read and drop
        # what arrives for a moment.
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(LINGER_S)
        deadline = time.monotonic() + LINGER_S
        with suppress(OSError):  # timed out or reset: either way the client is done
            while time.monotonic() < deadline and sock.recv(65536):
                pass
        return False

    def _send(self, sock, method, target, fields, response: KitResponse, close: bool) -> None:
        """Log a SERVE event, then send status line, fields, Content-Length and body at once.

        Content-Length follows RFC 9110 §8.6: none on 1xx and 204; on a 304
        or a HEAD reply, the handler's own if given (and none on a HEAD reply
        without a body, as a relayed chunked reply is); else the body's length.
        """
        status, given = response.status, header_value(response.headers, "Content-Length")
        if status < 200 or status == 204:
            length = None
        elif status == 304 or method == "HEAD" and (given is not None or not response.body):
            length = given
        else:
            length = str(len(response.body))
        lines = [f"HTTP/1.1 {status} {response.reason or _PHRASES.get(status, '')}"]
        lines += [f"{k}: {v}" for k, v in response.headers if k.lower() != "content-length"]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        if close:
            lines.append("Connection: close")
        head = encode_head(lines)
        if head is None:
            log.warning("%s %s: a response header breaks its line", method, target)
            response = KitResponse.text("response header breaks its line\n", 500)
            return self._send(sock, method, target, fields, response, close)
        in_err = header_value(fields, H_ERROR)
        self.transcript.emit(SERVE, method, target, status, in_err=in_err, **response.note)
        sock.settimeout(KEEPALIVE_IDLE_S)  # reads left it at what remained of their deadline
        bodiless = method == "HEAD" or status < 200 or status in (204, 304)
        sock.sendall(head if bodiless else head + response.body)


def serve(make: Callable[[], ServiceServer], port_file=None, signals=STOP_SIGNALS, banner="") -> int:
    """Run a party as this process, from its main thread: ``make()`` binds its server,
    `banner` is printed (its ``{netloc}`` the server's), the handlers of `signals` are set
    (each only wakes os.read, so it takes no lock), ``start()`` listens (the broker writes
    broker.ept) and `port_file` is written.  At one of `signals` or a KeyboardInterrupt it
    shuts down and returns 0.  On an OSError or a StartError it prints why, in one line,
    after ``shutdown()`` if the server was built, and returns 2."""
    server = failure = None
    try:
        server = make()
        if banner:
            print(banner.replace("{netloc}", server.netloc), flush=True)
        wake, signalled = os.pipe()  # neither end is inherited by a launched child
        os.set_blocking(signalled, False)
        signal.set_wakeup_fd(signalled)
        for signum in signals:
            signal.signal(signum, lambda *_: None)
        server.start()
        if port_file:
            write_port_file(port_file, server.port)
        os.read(wake, 1)
    except (OSError, StartError) as exc:
        failure = exc
    except KeyboardInterrupt:  # a signal whose handler raises it, as a tracer may set
        pass
    if server is not None:
        server.shutdown()
    if failure is not None:
        print(f"cannot start: {failure}", flush=True)
    return 0 if failure is None else 2
